"""Deformation layer: layer-op containers, deformed-product identity checks,
classical limits, the two-parameter dim-2 family, and the first-order
quantization constructors."""

from fractions import Fraction

import pytest

from conftest import catalog_dots, circ_family, np_pair, rightcomm_only_op
from tpalg.algebra import (
    AlgebraPresentation,
    BilinearOp,
    check_identity,
    commutator,
    default_labels,
    euler_gelfand,
)
from tpalg.deform import (
    TruncatedDeformation,
    check_novikov_deformation,
    classical_limit,
    commutator_deform,
    deform_from_np,
    deformation_from_series,
    deformed_bracket_series,
    family2d_construct,
    family2d_parameters,
    unital_derivation,
)
from tpalg.errors import (
    NotCommutativeBase,
    NotNovikov,
    NotNovikovPoisson,
    NotTPA,
    NotUnit,
    OrderMismatch,
)
from tpalg.scalars import QI, QQ, TruncSeries, parse_series

F = Fraction


def series(text, order=None, base=QQ):
    return parse_series(text, base, order)


def zero_series(order):
    return TruncSeries(order, (F(0),) * order)


# ---------------------------------------------------------------------------
# Container validation and series round trip
# ---------------------------------------------------------------------------


def test_layer_count_must_match_order():
    dot = BilinearOp.zero(2, QQ)
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    with pytest.raises(ValueError):
        TruncatedDeformation(base, 3, (dot, dot))
    with pytest.raises(ValueError):
        TruncatedDeformation(base, 0, ())


def test_layer_dimension_must_match_base():
    dot = BilinearOp.zero(2, QQ)
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    with pytest.raises(ValueError, match=r"^mu\[1\] has dim 3, expected 2$"):
        TruncatedDeformation(base, 2, (dot, BilinearOp.zero(3, QQ)))


def test_deformation_from_series_needs_a_series_op():
    with pytest.raises(TypeError, match="^expected an op over a SeriesRing$"):
        deformation_from_series(BilinearOp.zero(2, QQ))


def test_layer_zero_must_be_base_dot():
    dot = BilinearOp.from_entries(2, QQ, {(0, 0, 1): F(1)})
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    with pytest.raises(ValueError):
        TruncatedDeformation(base, 2, (BilinearOp.zero(2, QQ), dot))


def test_series_roundtrip():
    d = family2d_construct(series("h@order=4"), series("3h^2@order=4"))
    back = deformation_from_series(d.series_op(), d.base.basis_labels)
    assert back.order == d.order
    for mine, theirs in zip(d.mu, back.mu):
        assert mine.entries_equal(theirs)
    assert back.base.basis_labels == d.base.basis_labels


def test_series_op_entries():
    a = series("1+h@order=3")
    d = family2d_construct(a, zero_series(3))
    op = d.series_op()
    assert op.entry(0, 1, 1) == series("1+2h@order=3")  # a_h + h
    assert op.entry(1, 0, 1) == a
    assert op.entry(1, 1, 0) == zero_series(3)


def test_deformed_bracket_is_h_times_e2():
    d = family2d_construct(series("1/2+h^2@order=4"), series("2h@order=4"))
    br = deformed_bracket_series(d)
    assert br.entry(0, 1, 1) == series("h@order=4")
    assert br.entry(1, 0, 1) == series("-h@order=4")
    assert br.entry(0, 1, 0) == zero_series(4)
    assert br.entry(0, 0, 0) == zero_series(4)


# ---------------------------------------------------------------------------
# Novikov check on the deformed product
# ---------------------------------------------------------------------------


def test_family_deformation_is_novikov():
    d = family2d_construct(series("1+h-h^3@order=5"), series("2-h^2@order=5"))
    assert check_novikov_deformation(d).passed


def test_broken_layer_fails_left_symmetry():
    fam = family2d_construct(series("1@order=3"), zero_series(3))
    bad_layer = fam.mu[1] + BilinearOp.from_entries(2, QQ, {(1, 1, 0): F(1)})
    bad = TruncatedDeformation(fam.base, 3, (fam.mu[0], bad_layer, fam.mu[2]))
    report = check_novikov_deformation(bad)
    assert not report.passed
    ce = report.counterexample
    assert ce.clause == "left-symmetry"
    assert ce.indices == (1, 2, 2)
    assert ce.residual[0].coeffs == (F(0), F(0), F(2))
    assert ce.residual[1].coeffs == (F(0), F(0), F(0))


def test_top_layer_noise_invisible_over_nilpotent_base():
    # identities hold exactly through h^(order-1): over the (a, b) = (h, 0)
    # base every product of basis vectors is divisible by h, so an h^2
    # perturbation only shows up at h^3 and an order-3 check cannot see it
    fam = family2d_construct(series("h@order=3"), zero_series(3))
    noisy = fam.mu[2] + BilinearOp.from_entries(2, QQ, {(1, 1, 0): F(1)})
    d = TruncatedDeformation(fam.base, 3, (fam.mu[0], fam.mu[1], noisy))
    assert check_novikov_deformation(d).passed
    longer = family2d_construct(series("h@order=4"), zero_series(4))
    noisy4 = longer.mu[2] + BilinearOp.from_entries(2, QQ, {(1, 1, 0): F(1)})
    d4 = TruncatedDeformation(
        longer.base, 4, (longer.mu[0], longer.mu[1], noisy4, longer.mu[3])
    )
    assert not check_novikov_deformation(d4).passed


# ---------------------------------------------------------------------------
# Classical limits
# ---------------------------------------------------------------------------


def test_classical_limit_of_nilpotent_family():
    d = family2d_construct(series("h@order=3"), series("h^2@order=3"))
    lim = classical_limit(d)
    assert lim.passed
    dot = lim.algebra.op("dot")
    assert dot.entries_equal(BilinearOp.zero(2, QQ))
    bracket = lim.algebra.op("bracket")
    assert bracket.col(0, 1) == [F(0), F(1)]  # [e1, e2] = e2
    assert bracket.col(1, 0) == [F(0), F(-1)]


def test_classical_limit_of_unital_family():
    d = family2d_construct(series("1+2h@order=3"), series("3h@order=3"))
    lim = classical_limit(d)
    assert lim.passed
    assert lim.tpa_report.passed and lim.lie_report.passed
    # mu[1] has e1*e1 = 2e1+3e2, e1*e2 = 3e2, e2*e1 = 2e2, so the
    # commutator bracket is again [e1, e2] = e2
    assert lim.algebra.op("bracket").col(0, 1) == [F(0), F(1)]
    assert lim.algebra.op("dot").col(0, 0) == [F(1), F(0)]


def test_classical_limit_needs_two_layers():
    dot = BilinearOp.zero(2, QQ)
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    d = TruncatedDeformation(base, 1, (dot,))
    with pytest.raises(ValueError):
        classical_limit(d)


def test_classical_limit_rejects_noncommutative_base():
    dot = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1)})  # e1 e2 = e2 only
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    d = TruncatedDeformation(base, 2, (dot, BilinearOp.zero(2, QQ)))
    with pytest.raises(NotCommutativeBase):
        classical_limit(d)


# ---------------------------------------------------------------------------
# First-order quantizations
# ---------------------------------------------------------------------------


def test_deform_from_np_layers():
    dots = catalog_dots()
    pres = np_pair(dots["A01"], circ_family(F(1), F(2)))
    d = deform_from_np(pres, 4)
    assert d.order == 4
    assert d.mu[0].entries_equal(dots["A01"])
    assert d.mu[1].entries_equal(circ_family(F(1), F(2)))
    assert d.mu[2].entries_equal(BilinearOp.zero(2, QQ))
    assert d.mu[3].entries_equal(BilinearOp.zero(2, QQ))
    assert check_novikov_deformation(d).passed
    assert classical_limit(d).passed


def test_deform_from_np_rejects_non_novikov_circ():
    pres = np_pair(BilinearOp.zero(2, QQ), rightcomm_only_op())
    with pytest.raises(NotNovikovPoisson, match="NOV_LEFTSYM"):
        deform_from_np(pres, 3)


def test_deform_from_np_rejects_incompatible_pair():
    # dot and circ each fine on their own, but the mixed identity fails:
    # (e1 . e1) o e2 = e2 while e1 . (e1 o e2) = 0
    dot = BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)})
    circ = circ_family(F(0), F(0))
    pres = np_pair(dot, circ)
    report = check_identity(pres, "NP1")
    assert not report.passed
    assert report.counterexample.indices == (1, 1, 2)
    assert report.counterexample.residual == (F(0), F(1))
    with pytest.raises(NotNovikovPoisson, match="NP1"):
        deform_from_np(pres, 3)


def test_deform_from_np_euler():
    d = deform_from_np(euler_gelfand(4, QQ), 3)
    assert check_novikov_deformation(d).passed
    lim = classical_limit(d)
    assert lim.passed
    expected = commutator(euler_gelfand(4, QQ).op("circ"))
    assert lim.algebra.op("bracket").entries_equal(expected)


def test_commutator_deform():
    circ = euler_gelfand(3, QQ).op("circ")
    d = commutator_deform(circ, 3)
    assert d.mu[0].entries_equal(BilinearOp.zero(3, QQ))
    assert d.mu[1].entries_equal(circ)
    assert check_novikov_deformation(d).passed
    lim = classical_limit(d)
    assert lim.passed
    assert lim.algebra.op("dot").entries_equal(BilinearOp.zero(3, QQ))
    assert lim.algebra.op("bracket").entries_equal(commutator(circ))


def test_commutator_deform_rejects_non_novikov():
    with pytest.raises(NotNovikov, match="NOV_LEFTSYM"):
        commutator_deform(rightcomm_only_op(), 3)


def test_quantization_orders_must_carry_h():
    pres = np_pair(BilinearOp.zero(2, QQ), circ_family(F(1), F(0)))
    with pytest.raises(ValueError):
        deform_from_np(pres, 1)
    with pytest.raises(ValueError):
        commutator_deform(circ_family(F(1), F(0)), 1)


def test_np_quantization_matches_family():
    # zero dot with the (a1, b1) circ quantizes to the family at (a1 h, b1 h)
    a1, b1 = F(2), F(-3)
    pres = np_pair(BilinearOp.zero(2, QQ), circ_family(a1, b1))
    d = deform_from_np(pres, 3)
    fam = family2d_construct(
        TruncSeries(3, (F(0), a1, F(0))), TruncSeries(3, (F(0), b1, F(0)))
    )
    assert d.series_op().entries_equal(fam.series_op())


# ---------------------------------------------------------------------------
# The two-parameter family and its recognizer
# ---------------------------------------------------------------------------


def test_family_construct_validation():
    with pytest.raises(OrderMismatch):
        family2d_construct(zero_series(3), zero_series(4))
    with pytest.raises(ValueError):
        family2d_construct(zero_series(1), zero_series(1))
    with pytest.raises(TypeError):
        family2d_construct(F(1), F(0))


def test_family_gaussian_coefficients():
    a = parse_series("(1+2i)h@order=3", QI)
    d = family2d_construct(a, TruncSeries(3, (QI.zero(),) * 3))
    assert d.ring is QI
    assert d.series_op().entry(0, 0, 0) == a


def test_family_parameters_roundtrip():
    a = series("1/2-h+2h^3@order=4")
    b = series("3h^2@order=4")
    got = family2d_parameters(family2d_construct(a, b))
    assert got == (a, b)


def test_family_parameters_rejects_off_family_ops():
    d = family2d_construct(series("h@order=3"), zero_series(3))
    noisy = d.mu[2] + BilinearOp.from_entries(2, QQ, {(1, 1, 0): F(1)})
    tweaked = TruncatedDeformation(d.base, 3, (d.mu[0], d.mu[1], noisy))
    assert family2d_parameters(tweaked) is None
    assert family2d_parameters(commutator_deform(euler_gelfand(3, QQ).op("circ"), 3)) is None


# ---------------------------------------------------------------------------
# The derivation D = [unit, -] on unital limits
# ---------------------------------------------------------------------------


def _unital_tpa(lam):
    dot = BilinearOp.from_entries(
        2, QQ, {(0, 0, 0): lam, (0, 1, 1): lam, (1, 0, 1): lam}
    )
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    return AlgebraPresentation(
        2, QQ, default_labels(2), {"dot": dot, "bracket": bracket}
    )


def test_unital_derivation_lambda_one():
    D = unital_derivation(_unital_tpa(F(1)), [F(1), F(0)])
    assert D.m == ((F(0), F(0)), (F(0), F(1)))


def test_unital_derivation_lambda_two():
    # unit is e1/2, so D = [e1/2, -] halves the eigenvalue on e2
    D = unital_derivation(_unital_tpa(F(2)), [F(1, 2), F(0)])
    assert D.m == ((F(0), F(0)), (F(0), F(1, 2)))


def test_unital_derivation_rejects_non_unit():
    with pytest.raises(NotUnit):
        unital_derivation(_unital_tpa(F(2)), [F(1), F(0)])


def test_unital_derivation_rejects_non_tpa():
    alg = _unital_tpa(F(1))
    bad_bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 0): F(1), (1, 0, 0): F(-1)})
    bad = AlgebraPresentation(
        2, QQ, default_labels(2), {"dot": alg.op("dot"), "bracket": bad_bracket}
    )
    assert not check_identity(bad, "TPA").passed
    with pytest.raises(NotTPA):
        unital_derivation(bad, [F(1), F(0)])


def test_unital_derivation_is_a_derivation():
    from tpalg.algebra import is_derivation

    alg = _unital_tpa(F(1))
    D = unital_derivation(alg, [F(1), F(0)])
    assert is_derivation(alg.op("dot"), D).passed
