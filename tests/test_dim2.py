"""Dim-2 structure theory: the three-entry catalog, the compatible-Novikov
solver, mixed-identity compatibility, basis normalization, normal forms, and
the operad dimension table."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_dots, circ_family, normal_form_grid, np_pair
from test_algebra import reference_failures, rows_at
from test_linalg import dense_solve_affine
from tpalg import dim2
from tpalg.algebra import (
    IDENTITIES,
    AlgebraPresentation,
    BilinearOp,
    LinearMap,
    check_identity,
    commutator,
    default_labels,
    derivation_rows,
    euler_gelfand,
    gelfand_construct,
    truncated_poly_dot,
)
from tpalg.deform import TruncatedDeformation, deformation_from_series, family2d_construct
from tpalg.dim2 import (
    NormalForm,
    _join_rings,
    catalog,
    normalize_basis,
    normalize_family,
    np_compatibility,
    operad_dims,
    solve_novikov_compatible,
)
from tpalg.equiv import family2d_equiv, verify_witness
from tpalg.errors import (
    BadScalar,
    NotAQuantization,
    NotLie,
    OutOfRange,
    PreconditionViolated,
)
from tpalg.linalg import matvec
from tpalg.scalars import (
    GAUSS_I,
    QI,
    QQ,
    GaussianRational,
    PolynomialRing,
    SeriesRing,
    TruncSeries,
    parse_series,
    series_invert,
)

F = Fraction


def S(text, order=4):
    return parse_series(text, QQ, order)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_entries_and_brackets():
    entries = {e.name: e for e in catalog()}
    assert sorted(entries) == ["A00", "A01", "Alam"]
    a00 = entries["A00"].algebra
    assert a00.op("dot").entries_equal(BilinearOp.zero(2, QQ))
    a01 = entries["A01"].algebra
    assert a01.op("dot").col(0, 0) == [F(0), F(1)]
    for e in catalog():
        br = e.algebra.op("bracket")
        assert br.col(0, 1)[1] == e.algebra.ring.one()
        assert check_identity(e.algebra, "LIE").passed
        assert check_identity(e.algebra, "TPA").passed


def test_catalog_symbolic_lambda():
    alam = {e.name: e for e in catalog()}["Alam"]
    ring = alam.algebra.ring
    assert isinstance(ring, PolynomialRing)
    assert ring.variables == ("lam",)
    assert alam.algebra.op("dot").entry(0, 0, 0) == ring.var("lam")


def test_catalog_numeric_lambda():
    alam = {e.name: e for e in catalog(lam=F(3))}["Alam"]
    assert alam.lam == F(3)
    dot = alam.algebra.op("dot")
    assert dot.entry(0, 0, 0) == F(3)
    assert dot.entry(0, 1, 1) == F(3)
    assert dot.entry(1, 0, 1) == F(3)
    with pytest.raises(ValueError):
        catalog(lam=F(0))


# ---------------------------------------------------------------------------
# Compatible Novikov products for a fixed bracket
# ---------------------------------------------------------------------------


def test_compatible_family_for_e2_bracket():
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    fam = solve_novikov_compatible(bracket)
    assert fam.feasible
    assert fam.param_names == ("p1", "p2")
    assert fam.all_novikov
    assert fam.obstructions == ()
    ring = fam.op.ring
    p1, p2 = ring.var("p1"), ring.var("p2")
    assert fam.op.entry(0, 0, 0) == p2
    assert fam.op.entry(0, 0, 1) == p1
    assert fam.op.entry(0, 1, 1) == p2 + ring.one()
    assert fam.op.entry(1, 0, 1) == p2
    zero = ring.zero()
    for i, j, k in itertools.product(range(2), repeat=3):
        if (i, j, k) not in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1)):
            assert fam.op.entry(i, j, k) == zero


def test_compatible_family_specializes_to_circ_family():
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    fam = solve_novikov_compatible(bracket)
    assign = {"p1": F(2), "p2": F(-1)}
    expected = circ_family(F(-1), F(2))
    for i, j, k in itertools.product(range(2), repeat=3):
        got = fam.op.entry(i, j, k).substitute(assign)
        assert got == expected.entry(i, j, k)


def test_compatible_family_infeasible_for_sl2():
    sl2 = BilinearOp.from_entries(
        3,
        QQ,
        {
            (0, 1, 2): F(1),
            (1, 0, 2): F(-1),
            (2, 0, 0): F(2),
            (0, 2, 0): F(-2),
            (2, 1, 1): F(-2),
            (1, 2, 1): F(2),
        },
    )
    fam = solve_novikov_compatible(sl2)
    assert not fam.feasible
    assert fam.param_names == ()
    assert fam.op is None


def test_compatible_family_dim1_abelian():
    fam = solve_novikov_compatible(BilinearOp.zero(1, QQ))
    assert fam.feasible
    assert fam.param_names == ("p1",)
    assert fam.op.entry(0, 0, 0) == fam.op.ring.var("p1")


@pytest.mark.parametrize("scale", ["1", "a"], ids=["constant", "parametric"])
def test_compatible_solver_refuses_parameters(scale):
    """A bracket over a polynomial ring is refused up front, whether or not
    its entries hold a parameter."""
    ring = PolynomialRing(QQ, ("a", "b"))
    x = ring.var(scale) if scale == "a" else ring.one()
    bracket = BilinearOp.from_entries(2, ring, {(0, 1, 1): x, (1, 0, 1): -x})
    message = r"^compatible products are solved over Q or Q\(i\), but the bracket carries parameters a, b$"
    with pytest.raises(BadScalar, match=message):
        solve_novikov_compatible(bracket)


def test_compatible_solver_requires_lie():
    not_lie = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1)})  # not antisymmetric
    with pytest.raises(NotLie):
        solve_novikov_compatible(not_lie)


def test_compatible_family_commutator_is_bracket():
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    fam = solve_novikov_compatible(bracket)
    comm = commutator(fam.op)
    ring = fam.op.ring
    assert comm.entry(0, 1, 1) == ring.one()
    assert comm.entry(0, 0, 0) == ring.zero()


# The compatibility system as it was built before its rows were sparse: one
# dense row of n^3 entries per equation, every bracket entry tested in an
# n^5 loop.  Solved by the dense Gauss-Jordan reference, it is the oracle
# for the sparse rows solve_novikov_compatible builds.


def dense_compatibility_system(bracket):
    field = bracket.ring
    n = bracket.dim
    nun = n * n * n
    zero, one = field.zero(), field.one()

    def idx(i, j, k):
        return (i * n + j) * n + k

    rows, rhs = [], []
    br = bracket.c
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                row = [zero] * nun
                row[idx(i, j, l)] = row[idx(i, j, l)] + one
                row[idx(j, i, l)] = row[idx(j, i, l)] - one
                rows.append(row)
                rhs.append(br[i][j][l])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    row = [zero] * nun
                    for m in range(n):
                        if br[i][j][m] != 0:
                            row[idx(m, k, l)] = row[idx(m, k, l)] + 2 * br[i][j][m]
                        if br[m][j][l] != 0:
                            row[idx(i, k, m)] = row[idx(i, k, m)] - br[m][j][l]
                        if br[i][m][l] != 0:
                            row[idx(j, k, m)] = row[idx(j, k, m)] - br[i][m][l]
                    rows.append(row)
                    rhs.append(zero)
    return rows, rhs


def _assert_matches_dense_system(bracket):
    """The family solve_novikov_compatible returns is repr-identical to the
    one it returns when its solve is the dense rows by the dense reference."""
    got = solve_novikov_compatible(bracket)
    rows, rhs = dense_compatibility_system(bracket)
    dense = dense_solve_affine(rows, rhs, bracket.ring.one())
    with mock.patch.object(dim2, "solve_affine", lambda *args: dense):
        want = solve_novikov_compatible(bracket)
    assert repr(got) == repr(want)


def _novikov_bracket(ring, coeffs):
    """The commutator of x o y = x . D(y) on K[t]/(t^n), n = len(coeffs) + 1,
    for the derivation D(t) = sum_m coeffs[m-1] t^m."""
    n = len(coeffs) + 1
    rows = [[ring.zero()] * n for _ in range(n)]
    for k in range(1, n):
        for m, c in enumerate(coeffs, start=1):
            if k - 1 + m < n:
                rows[k - 1 + m][k] = rows[k - 1 + m][k] + ring.coerce(k) * c
    deriv = LinearMap(ring, tuple(tuple(row) for row in rows))
    return commutator(gelfand_construct(truncated_poly_dot(n, ring), deriv))


SL2 = {(0, 1, 2): F(1), (1, 0, 2): F(-1), (2, 0, 0): F(2), (0, 2, 0): F(-2), (2, 1, 1): F(-2), (1, 2, 1): F(2)}


# Lie brackets that are not Novikov commutators, so that the 1/2-derivation
# block of the compatibility rows takes other ranks: gl2 is the commutator of
# the 2x2 matrix product on E11, E12, E21, E22; sl2 + K adds a central e4; the
# zero brackets give a block of rank 0.
GL2 = {
    (2 * i + j, 2 * k + l, 2 * i + l): F(1)
    for i, j, k, l in itertools.product(range(2), repeat=4)
    if j == k
}
HEISENBERG = {(0, 1, 2): F(1), (1, 0, 2): F(-1)}


def _gl2_bracket():
    return commutator(BilinearOp.from_entries(4, QQ, GL2))


@pytest.mark.parametrize(
    "bracket",
    [euler_gelfand(n).op("bracket") for n in range(2, 6)]
    + [BilinearOp.from_entries(3, QQ, SL2), BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})]
    + [_gl2_bracket(), BilinearOp.from_entries(3, QQ, HEISENBERG), BilinearOp.from_entries(4, QQ, SL2)]
    + [BilinearOp.zero(2, QQ), BilinearOp.zero(3, QQ), BilinearOp.from_entries(3, QI, SL2)],
    ids=["euler2", "euler3", "euler4", "euler5", "sl2", "e2"]
    + ["gl2", "heisenberg", "sl2+K", "zero2", "zero3", "sl2Qi"],
)
def test_compatible_family_matches_dense_system(bracket):
    _assert_matches_dense_system(bracket)


@given(st.sampled_from((QQ, QI)), st.data())
@settings(max_examples=25, deadline=None)
def test_random_novikov_family_matches_dense_system(ring, data):
    n = data.draw(st.integers(2, 4 if ring is QQ else 3))
    small = st.sampled_from((0, 1, -1, 2, F(1, 2), F(-3, 2)))
    scalar = st.builds(GaussianRational.of, small, small) if ring is QI else small.map(F)
    coeffs = data.draw(st.lists(scalar, min_size=n - 1, max_size=n - 1))
    _assert_matches_dense_system(_novikov_bracket(ring, coeffs))


@pytest.mark.parametrize(
    "bracket",
    [euler_gelfand(n).op("bracket") for n in range(2, 5)]
    + [BilinearOp.from_entries(3, QQ, HEISENBERG), BilinearOp.zero(2, QQ), BilinearOp.zero(1, QQ)]
    + [BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})]
    + [_novikov_bracket(QQ, (F(1), F(-2, 3), F(5))), _novikov_bracket(QI, (GaussianRational.of(1, 2), F(1)))],
    ids=["euler2", "euler3", "euler4", "heisenberg", "zero2", "zero1", "e2", "nov4", "novQi3"],
)
def test_right_multiplications_are_half_derivations(bracket):
    """With every parameter at 0 and with every parameter at 1, each right
    multiplication R_k = o(-, e_k) of the solved family satisfies the
    weight-2 rows of the bracket."""
    fam = solve_novikov_compatible(bracket)
    assert fam.feasible
    n, field = bracket.dim, bracket.ring
    rows = derivation_rows(bracket, 2)
    for value in (0, 1):
        assign = {name: field.coerce(value) for name in fam.param_names}
        c = [[[x.substitute(assign) for x in col] for col in row] for row in fam.op.c]
        for k in range(n):
            vec = [c[a][k][l] for l in range(n) for a in range(n)]
            assert rows_at(rows, vec, field.zero()) == [0] * len(rows), (value, k)


def _lie2_bracket(a, b):
    """[e1, e2] = a e1 + b e2: the bracket [e1, e2] = e2 in another basis."""
    return BilinearOp.from_entries(2, QQ, {(0, 1, 0): a, (0, 1, 1): b, (1, 0, 0): -a, (1, 0, 1): -b})


@pytest.mark.parametrize(
    "bracket",
    [euler_gelfand(n).op("bracket") for n in range(2, 7)]
    + [BilinearOp.from_entries(3, QQ, SL2), _lie2_bracket(F(0), F(1))]
    + [_lie2_bracket(a, b) for a, b in ((F(-3, 2), F(4)), (F(2, 3), F(-1, 3)), (F(1), F(0)))]
    + [_novikov_bracket(QQ, (F(1), F(-2, 3), F(5))), _novikov_bracket(QI, (GaussianRational.of(1, 2),))],
    ids=["euler2", "euler3", "euler4", "euler5", "euler6", "sl2", "e2"]
    + ["lie2a", "lie2b", "lie2c", "nov4", "novQi2"],
)
def test_obstructions_match_per_tuple_scan(bracket):
    """The right-commutativity obstructions of the solved family are the
    per-tuple scan's failures on it: the same tuples in the same order,
    with the same residuals and entry types."""
    fam = solve_novikov_compatible(bracket)
    if not fam.feasible:
        assert fam.obstructions == ()
        return
    pres = AlgebraPresentation(fam.op.dim, fam.op.ring, default_labels(fam.op.dim), {"circ": fam.op})
    want = tuple(
        (tuple(i + 1 for i in t), tuple(res))
        for _, t, res in reference_failures(pres, IDENTITIES["NOV_RIGHTCOMM"][0])
    )
    assert fam.obstructions == want
    assert repr(fam.obstructions) == repr(want)
    assert [[type(x) for x in res] for _, res in fam.obstructions] == [
        [type(x) for x in res] for _, res in want
    ]


# ---------------------------------------------------------------------------
# Mixed compatibility of a dot with a circ
# ---------------------------------------------------------------------------


def test_np_compatibility_catalog_cross_symbolic():
    bracket = BilinearOp.from_entries(2, QQ, {(0, 1, 1): F(1), (1, 0, 1): F(-1)})
    fam = solve_novikov_compatible(bracket)
    for name, dot in sorted(catalog_dots().items()):
        report = np_compatibility(dot, fam.op)
        assert report.passed, name
        assert report.identity_name == "NP1+NP2"


def test_np_compatibility_joins_two_parameter_rings():
    # the symbolic-lam dot against the p1, p2 family of the same bracket:
    # both operands carry parameters, so the check runs over their union
    dot = catalog()[2].algebra.op("dot")
    fam = solve_novikov_compatible(catalog(lam=1)[2].algebra.op("bracket"))
    assert _join_rings(dot.ring, fam.op.ring) == PolynomialRing(QQ, ("lam", "p1", "p2"))
    report = np_compatibility(dot, fam.op)
    assert report.passed
    assert report.identity_name == "NP1+NP2"


@pytest.mark.parametrize(
    "r1, r2, joined",
    [
        (QQ, QI, QI),
        (QQ, QQ, QQ),
        (PolynomialRing(QQ, ("a",)), QI, PolynomialRing(QI, ("a",))),
        (PolynomialRing(QI, ("a",)), QQ, PolynomialRing(QI, ("a",))),
        (PolynomialRing(QQ, ("a", "b")), PolynomialRing(QI, ("b", "c")), PolynomialRing(QI, ("a", "b", "c"))),
        (PolynomialRing(QQ, ("a",)), PolynomialRing(QQ, ("b",)), PolynomialRing(QQ, ("a", "b"))),
    ],
    ids=["field", "same-field", "poly-Q-field-Qi", "poly-Qi-field-Q", "poly-poly-Qi", "poly-poly-Q"],
)
def test_join_rings_takes_the_larger_field_in_either_order(r1, r2, joined):
    assert _join_rings(r1, r2) == joined
    swapped = _join_rings(r2, r1)
    assert swapped.tag == joined.tag
    assert set(getattr(swapped, "variables", ())) == set(getattr(joined, "variables", ()))


def test_np_compatibility_over_q_and_qi_operands():
    """A Q operand against a Q(i) one is checked over Q(i), whichever of dot
    and circ is the Q(i) one."""
    lam_dot = catalog()[2].algebra.op("dot")  # over Q[lam]
    for dot, circ in (
        (BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)}), circ_family(F(0), F(0))),
        (catalog_dots()["A01"], circ_family(F(1), F(-2))),
        (lam_dot, circ_family(F(0), F(1))),
    ):
        over_qi = np_compatibility(dot.coerce_to(_join_rings(dot.ring, QI)), circ.coerce_to(QI))
        assert np_compatibility(dot.coerce_to(_join_rings(dot.ring, QI)), circ) == over_qi
        assert np_compatibility(dot, circ.coerce_to(QI)) == over_qi


def test_q_polynomial_op_coerced_into_qi_holds_gaussian_coefficients():
    """Coercing the Q[lam] dot into Q(i)[lam] moves its coefficients into
    Q(i); the report of a Q[lam] dot against a Q(i) circ, recorded before
    they moved, stays the same."""
    ring = PolynomialRing(QI, ("lam",))
    lam_dot = catalog()[2].algebra.op("dot")
    coerced = lam_dot.coerce_to(ring)
    entries = [x for row in coerced.c for col in row for x in col]
    assert all(x.ring == ring for x in entries)
    assert {type(c) for x in entries for c in x.sparse.values()} == {GaussianRational}
    report = np_compatibility(lam_dot, BilinearOp.from_entries(2, QI, {(1, 1, 0): GAUSS_I}))
    cex = report.counterexample
    assert (report.passed, cex.clause, cex.indices) == (False, "left-mixed-assoc", (2, 1, 2))
    assert [str(x) for x in cex.residual] == ["i*lam", "0"]
    assert {type(c) for x in cex.residual for c in x.sparse.values()} == {GaussianRational}


def test_np_compatibility_failure_carries_clause():
    dot = BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)})
    report = np_compatibility(dot, circ_family(F(0), F(0)))
    assert not report.passed
    assert report.counterexample.clause == "left-mixed-assoc"
    assert report.counterexample.indices == (1, 1, 2)


# ---------------------------------------------------------------------------
# Basis normalization
# ---------------------------------------------------------------------------


def test_normalize_basis_on_family_is_trivial():
    d = family2d_construct(S("1+h", 5), S("2h-h^2", 5))
    norm = normalize_basis(d)
    assert norm.a_h == S("1+h", 5)
    assert norm.b_h == S("2h-h^2", 5)
    assert norm.witness.f[0].is_identity()
    for layer in norm.witness.f[1:]:
        assert all(x == 0 for row in layer.m for x in row)


def test_normalize_basis_rescaled_e2():
    # same products as the family at (a, b) except e1 *_h e2 = (a + h + h^2) e2,
    # i.e. the family seen through e2 -> (1+h) e2; normalization recovers
    # a' = a/(1+h) and b' = b/(1+h)^2
    order = 5
    a, b = S("h", order), S("3h", order)
    sring = SeriesRing(QQ, order)
    h = sring.h()
    nu = sring.one() + h
    entries_by_layer = []
    op_entries = {
        (0, 0, 0): a,
        (0, 0, 1): b,
        (0, 1, 1): a + h + h * h,
        (1, 0, 1): a,
    }
    for k in range(order):
        layer = {}
        for key, ser in op_entries.items():
            layer[key] = ser.coeffs[k]
        entries_by_layer.append(BilinearOp.from_entries(2, QQ, layer))
    base = AlgebraPresentation(
        2, QQ, default_labels(2), {"dot": entries_by_layer[0]}
    )
    d = TruncatedDeformation(base, order, tuple(entries_by_layer))
    norm = normalize_basis(d)
    nu_inv = series_invert(nu)
    assert norm.a_h == nu_inv * a
    assert norm.b_h == nu_inv * nu_inv * b
    fam = family2d_construct(norm.a_h, norm.b_h)
    assert verify_witness(fam, d, norm.witness).passed


def test_normalize_basis_over_gaussians_keeps_gaussian_coefficients():
    a_h = parse_series("(-3/2-i)h", QI, 2)
    b_h = parse_series("i", QI, 2)
    norm = normalize_basis(family2d_construct(a_h, b_h, QI))
    assert norm.a_h == a_h and norm.b_h == b_h
    for s in (norm.a_h, norm.b_h):
        assert all(isinstance(c, GaussianRational) for c in s.coeffs), repr(s.coeffs)


def test_normalize_basis_requires_novikov():
    fam = family2d_construct(S("1", 3), S("0", 3))
    bad_layer = fam.mu[1] + BilinearOp.from_entries(2, QQ, {(1, 1, 0): F(1)})
    bad = TruncatedDeformation(fam.base, 3, (fam.mu[0], bad_layer, fam.mu[2]))
    with pytest.raises(PreconditionViolated, match="not a Novikov deformation"):
        normalize_basis(bad)


def test_normalize_basis_rejects_zero_limit_bracket():
    dot = BilinearOp.zero(2, QQ)
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    d = TruncatedDeformation(base, 3, (dot,) * 3)
    with pytest.raises(PreconditionViolated, match="not 1"):
        normalize_basis(d)


def test_normalize_basis_rejects_noncommutative_h0():
    # e1 o e2 = e2 with zero elsewhere is Novikov but has a nonzero
    # commutator already at h^0
    circ0 = circ_family(F(0), F(0))
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": circ0})
    d = TruncatedDeformation(base, 3, (circ0, BilinearOp.zero(2, QQ), BilinearOp.zero(2, QQ)))
    with pytest.raises(PreconditionViolated, match="commutator at h\\^0"):
        normalize_basis(d)


def test_normalize_basis_rejects_sheared_commutator():
    # transport the family through the constant basis change
    # g(e1) = e1, g(e2) = e1 + e2: still Novikov, but the commutator
    # acquires an e1-component at h^1, which the one-sided shear
    # normalization cannot remove
    d = family2d_construct(S("h", 3), S("0", 3))
    g = [[F(1), F(1)], [F(0), F(1)]]
    ginv = [[F(1), F(-1)], [F(0), F(1)]]
    layers = []
    for mu in d.mu:
        entries = {}
        for i in range(2):
            for j in range(2):
                gi = [g[r][i] for r in range(2)]
                gj = [g[r][j] for r in range(2)]
                image = mu.apply(gi, gj)
                back = [
                    sum(ginv[r][t] * image[t] for t in range(2)) for r in range(2)
                ]
                for k in range(2):
                    if back[k]:
                        entries[(i, j, k)] = back[k]
        layers.append(BilinearOp.from_entries(2, QQ, entries))
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": layers[0]})
    moved = TruncatedDeformation(base, 3, tuple(layers))
    with pytest.raises(PreconditionViolated, match="e1-component"):
        normalize_basis(moved)


def test_normalize_basis_refuses_top_order_shear():
    # the family at (a, b) = (1, 0), order 2, seen through f(e2) = e2 + h e1:
    # the shear's h^1 coefficient sits at the top order, where the commutator
    # divided by h cannot see it, so the products do not take the family
    # shape.  solve_equivalence finds this pair equivalent; normalizing it
    # instead would flip this test.
    order = 2
    op = family2d_construct(S("1", order), S("0", order)).series_op()
    sring = op.ring
    h = sring.h()
    fmat = [[sring.one(), h], [sring.zero(), sring.one()]]
    finv = [[sring.one(), -h], [sring.zero(), sring.one()]]
    cols = [[fmat[r][j] for r in range(2)] for j in range(2)]
    c = tuple(
        tuple(
            tuple(matvec(finv, op.apply(cols[i], cols[j])))
            for j in range(2)
        )
        for i in range(2)
    )
    seen = deformation_from_series(BilinearOp(sring, c))
    with pytest.raises(PreconditionViolated, match="family shape"):
        normalize_basis(seen)


def test_normalize_basis_needs_dim2_and_order2():
    from tpalg.deform import commutator_deform

    with pytest.raises(PreconditionViolated):
        normalize_basis(commutator_deform(euler_gelfand(3, QQ).op("circ"), 3))
    dot = BilinearOp.zero(2, QQ)
    base = AlgebraPresentation(2, QQ, default_labels(2), {"dot": dot})
    with pytest.raises(ValueError):
        normalize_basis(TruncatedDeformation(base, 1, (dot,)))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


def test_normal_form_case1():
    nf = normalize_family(S("-h", 6), S("3h^2+5h^3", 6))
    assert nf.kind == "case1"
    assert nf.m == 2
    assert nf.leading == F(3)
    assert nf.as_pair() == (S("-h", 6), S("3h^2", 6))


def test_normal_form_case2_from_gap():
    nf = normalize_family(S("h^2", 4), S("h^3", 4))
    assert nf.kind == "case2"
    assert nf.m is None and nf.leading is None
    assert nf.as_pair() == (S("h^2", 4), S("0", 4))


def test_normal_form_case2_minus_h_zero_b():
    nf = normalize_family(S("-h", 4), S("0", 4))
    assert nf.kind == "case2"
    assert nf.as_pair() == (S("-h", 4), S("0", 4))


def test_normal_form_case3():
    nf = normalize_family(S("0", 4), S("2h+h^2", 4))
    assert nf.kind == "case3"
    assert nf.m == 1
    assert nf.leading == F(2)
    assert nf.as_pair() == (S("0", 4), S("2h", 4))


def test_normal_form_case3_deep_gap():
    nf = normalize_family(S("-h+h^3", 5), S("h^2", 5))
    assert nf.kind == "case3"
    assert nf.m == 2
    assert nf.leading == F(1)


def test_normal_form_unital():
    nf = normalize_family(S("h", 4), S("2+h", 4))
    assert nf.kind == "unital"
    assert nf.m == 0
    assert nf.leading == F(2)
    assert nf.as_pair() == (S("h", 4), S("2", 4))


def test_normal_form_lambda():
    nf = normalize_family(S("1+h", 4), S("h^2", 4))
    assert nf.kind == "lambda"
    assert nf.as_pair() == (S("1+h", 4), S("0", 4))


def test_normal_form_rejects_double_nonzero():
    with pytest.raises(NotAQuantization):
        normalize_family(S("1", 4), S("1", 4))


def test_normal_form_idempotent_on_grid():
    for name, a, b in normal_form_grid(4):
        nf = normalize_family(a, b)
        again = normalize_family(*nf.as_pair())
        assert again.as_pair() == nf.as_pair(), name
        assert again.kind == nf.kind, name


def test_grid_pairwise_not_equivalent():
    grid = normal_form_grid(4)
    for (n1, a1, b1), (n2, a2, b2) in itertools.combinations(grid, 2):
        verdict = family2d_equiv(a1, b1, a2, b2)
        assert verdict.is_not_equivalent, (n1, n2)


small_coeff = st.integers(min_value=-3, max_value=3).map(F)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_coeff, min_size=4, max_size=4),
    st.lists(small_coeff, min_size=4, max_size=4),
    st.sampled_from(["zero", "unital", "lambda"]),
)
def test_normal_form_is_equivalent_to_input(acs, bcs, shape):
    # force the constant terms into one of the accepted limit shapes
    if shape == "zero":
        acs[0], bcs[0] = F(0), F(0)
    elif shape == "unital":
        acs[0], bcs[0] = F(0), F(1)
    else:
        acs[0], bcs[0] = F(2), F(0)
    a = TruncSeries(4, tuple(acs))
    b = TruncSeries(4, tuple(bcs))
    nf = normalize_family(a, b)
    verdict = family2d_equiv(a, b, *nf.as_pair())
    assert verdict.is_equivalent
    assert verify_witness(
        family2d_construct(a, b),
        family2d_construct(*nf.as_pair()),
        nf.witness,
    ).passed


# ---------------------------------------------------------------------------
# Operad dimensions
# ---------------------------------------------------------------------------


def test_operad_dims_table():
    assert [operad_dims(n) for n in range(1, 6)] == [
        (1, 1),
        (2, 2),
        (6, 6),
        (20, 20),
        (70, 74),
    ]


def test_operad_dims_matches_central_binomial():
    for n in range(1, 6):
        assert operad_dims(n)[0] == math.comb(2 * n - 2, n - 1)


def test_operad_dims_out_of_range():
    for bad in (0, 6, -1, "3"):
        with pytest.raises(OutOfRange):
            operad_dims(bad)
