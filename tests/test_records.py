"""The record contract: for each of the library's record types, one
instance's ``repr``, equality and hashing by value, refusal of assignment
where the record is frozen, and the two exceptions (``AlgebraPresentation``
compares by identity, ``LinearSolveResult`` is unhashable).  Printed forms
and hash values feed golden outputs, so they are pinned exactly."""

import pickle
from fractions import Fraction

import pytest

from tpalg.algebra import (
    AlgebraPresentation,
    BilinearOp,
    Clause,
    Counterexample,
    IdentityReport,
    LinearMap,
    SubalgebraResult,
)
from tpalg.deform import ClassicalLimit, TruncatedDeformation
from tpalg.dim2 import CatalogEntry, NormalForm, NormalizedBasis, NovikovCompatibleFamily
from tpalg.equiv import EquivalenceWitness, EquivVerdict
from tpalg.linalg import LinearSolveResult
from tpalg.scalars import (
    QI,
    QQ,
    GaussianField,
    GaussianRational,
    PolynomialRing,
    RationalField,
    SeriesRing,
    TruncSeries,
)

F = Fraction

# one presentation shared by the records that hold one: it compares by
# identity, so records holding it compare by value only when they share it
ZERO1 = BilinearOp.zero(1, QQ)
PRES = AlgebraPresentation(1, QQ, ["e1"], {"dot": ZERO1})
PRES_REPR = (
    "AlgebraPresentation(dim=1, ring=RationalField(tag='Q'), basis_labels=('e1',), "
    "ops={'dot': BilinearOp(ring=RationalField(tag='Q'), c=(((Fraction(0, 1),),),))})"
)
CE_REPR = "Counterexample(indices=(1, 2), residual=(Fraction(1, 2),), clause='c')"
WIT_REPR = (
    "EquivalenceWitness(order=2, f=(LinearMap(ring=RationalField(tag='Q'), "
    "m=((Fraction(1, 1),),)), LinearMap(ring=RationalField(tag='Q'), m=((Fraction(0, 1),),))))"
)


def series(*coeffs):
    return TruncSeries(2, tuple(F(c) for c in coeffs))


# name: (factory, field names in order, frozen, repr); each call of a
# factory builds a fresh instance with equal fields
RECORDS = {
    "GaussianRational": (
        lambda: GaussianRational(F(2), F(1)),
        "re im",
        True,
        "GaussianRational(re=Fraction(2, 1), im=Fraction(1, 1))",
    ),
    "RationalField": (lambda: RationalField(), "tag", True, "RationalField(tag='Q')"),
    "GaussianField": (lambda: GaussianField(), "tag", True, "GaussianField(tag='Qi')"),
    "PolynomialRing": (
        lambda: PolynomialRing(QI, ("a", "b")),
        "base variables",
        True,
        "PolynomialRing(base=GaussianField(tag='Qi'), variables=('a', 'b'))",
    ),
    "SeriesRing": (
        lambda: SeriesRing(QQ, 3),
        "base order",
        True,
        "SeriesRing(base=RationalField(tag='Q'), order=3)",
    ),
    "LinearSolveResult": (
        lambda: LinearSolveResult(True, [F(1)], [[F(0)]], [1], [0], []),
        "feasible particular nullspace free_cols pivot_cols residuals",
        False,
        "LinearSolveResult(feasible=True, particular=[Fraction(1, 1)], "
        "nullspace=[[Fraction(0, 1)]], free_cols=[1], pivot_cols=[0], residuals=[])",
    ),
    "BilinearOp": (
        lambda: BilinearOp.from_entries(1, QQ, {(0, 0, 0): 3}),
        "ring c",
        True,
        "BilinearOp(ring=RationalField(tag='Q'), c=(((Fraction(3, 1),),),))",
    ),
    "LinearMap": (
        lambda: LinearMap.identity(1, QQ),
        "ring m",
        True,
        "LinearMap(ring=RationalField(tag='Q'), m=((Fraction(1, 1),),))",
    ),
    "AlgebraPresentation": (lambda: PRES, "dim ring basis_labels ops", False, PRES_REPR),
    "Counterexample": (
        lambda: Counterexample((1, 2), (F(1, 2),), "c"),
        "indices residual clause",
        True,
        CE_REPR,
    ),
    "IdentityReport": (
        lambda: IdentityReport("TPA", False, Counterexample((1, 2), (F(1, 2),), "c")),
        "identity_name passed counterexample",
        True,
        f"IdentityReport(identity_name='TPA', passed=False, counterexample={CE_REPR})",
    ),
    "Clause": (
        lambda: Clause("comm", 2, ((1, ("dot", 0, 1)), (-1, ("dot", 1, 0)))),
        "name arity terms alternating",
        True,
        "Clause(name='comm', arity=2, terms=((1, ('dot', 0, 1)), (-1, ('dot', 1, 0))), "
        "alternating=False)",
    ),
    "SubalgebraResult": (
        lambda: SubalgebraResult(False, ("dot", 1, 2), None),
        "closed failing induced",
        True,
        "SubalgebraResult(closed=False, failing=('dot', 1, 2), induced=None)",
    ),
    "TruncatedDeformation": (
        lambda: TruncatedDeformation(PRES, 1, (ZERO1,)),
        "base order mu",
        True,
        f"TruncatedDeformation(base={PRES_REPR}, order=1, "
        "mu=(BilinearOp(ring=RationalField(tag='Q'), c=(((Fraction(0, 1),),),)),))",
    ),
    "ClassicalLimit": (
        lambda: ClassicalLimit(PRES, IdentityReport("TPA", True), IdentityReport("LIE", True)),
        "algebra tpa_report lie_report",
        True,
        f"ClassicalLimit(algebra={PRES_REPR}, "
        "tpa_report=IdentityReport(identity_name='TPA', passed=True, counterexample=None), "
        "lie_report=IdentityReport(identity_name='LIE', passed=True, counterexample=None))",
    ),
    "EquivalenceWitness": (
        lambda: EquivalenceWitness.identity(1, 2, QQ),
        "order f",
        True,
        WIT_REPR,
    ),
    "EquivVerdict": (
        lambda: EquivVerdict("not_equivalent", failure_order=1, reason="r"),
        "tag witness failure_order reason",
        True,
        "EquivVerdict(tag='not_equivalent', witness=None, failure_order=1, reason='r')",
    ),
    "CatalogEntry": (
        lambda: CatalogEntry("A00", None, PRES),
        "name lam algebra",
        True,
        f"CatalogEntry(name='A00', lam=None, algebra={PRES_REPR})",
    ),
    "NovikovCompatibleFamily": (
        lambda: NovikovCompatibleFamily(False, (), None, None, ()),
        "feasible param_names op rightcomm_report obstructions",
        True,
        "NovikovCompatibleFamily(feasible=False, param_names=(), op=None, "
        "rightcomm_report=None, obstructions=())",
    ),
    "NormalizedBasis": (
        lambda: NormalizedBasis(
            (series(1), series(0, 1)), series(0, -1), series(), EquivalenceWitness.identity(1, 2, QQ)
        ),
        "basis a_h b_h witness",
        True,
        "NormalizedBasis(basis=(TruncSeries('1@order=2'), TruncSeries('h@order=2')), "
        f"a_h=TruncSeries('-h@order=2'), b_h=TruncSeries('0@order=2'), witness={WIT_REPR})",
    ),
    "NormalForm": (
        lambda: NormalForm(
            "case1", 1, F(2), series(0, -1), series(0, 2), EquivalenceWitness.identity(1, 2, QQ)
        ),
        "kind m leading canonical_a canonical_b witness",
        True,
        "NormalForm(kind='case1', m=1, leading=Fraction(2, 1), canonical_a=TruncSeries('-h@order=2'), "
        f"canonical_b=TruncSeries('2h@order=2'), witness={WIT_REPR})",
    ),
}


def test_every_record_is_listed():
    assert len(RECORDS) == 21


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr(name):
    factory, _, _, expected = RECORDS[name]
    assert repr(factory()) == expected


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"AlgebraPresentation", "LinearSolveResult"}))
def test_record_value_equality_and_hash(name):
    factory, fields, _, _ = RECORDS[name]
    a, b = factory(), factory()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    if name != "GaussianRational":  # its hash agrees with the rationals'
        assert hash(a) == hash(tuple(getattr(a, f) for f in fields.split()))
    assert a != object()
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a)


@pytest.mark.parametrize("name", sorted(name for name, spec in RECORDS.items() if spec[2]))
def test_frozen_record_refuses_assignment(name):
    factory, fields, _, _ = RECORDS[name]
    record = factory()
    first = fields.split()[0]
    value = getattr(record, first)
    with pytest.raises(AttributeError):
        setattr(record, first, value)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, first) is value


def test_presentation_compares_by_identity_and_is_mutable():
    twin = AlgebraPresentation(1, QQ, ("e1",), {"dot": ZERO1})
    assert PRES == PRES and PRES != twin
    assert hash(PRES) == object.__hash__(PRES)
    assert {PRES: 1}[PRES] == 1
    twin.basis_labels = ("f1",)
    assert twin.basis_labels == ("f1",)


def test_solve_result_compares_by_value_and_is_unhashable():
    factory = RECORDS["LinearSolveResult"][0]
    a, b = factory(), factory()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    b.feasible = False
    assert a != b
    assert repr(pickle.loads(pickle.dumps(a))) == repr(a)
