"""Equivalence of truncated deformations: the general order-by-order solver,
the closed-form criterion for the two-parameter dim-2 family, witness
verification, and cross-validation between the two routes."""

import random
from fractions import Fraction

import pytest

from tpalg.algebra import BilinearOp, LinearMap, euler_gelfand, vsub
from tpalg.deform import (
    TruncatedDeformation,
    commutator_deform,
    deform_from_np,
    family2d_construct,
)
from tpalg.equiv import (
    EquivalenceWitness,
    EquivVerdict,
    _common_frame,
    _delta_matrix,
    _ParamConstraints,
    equivalent,
    family2d_equiv,
    not_equivalent,
    solve_equivalence,
    unknown,
    verify_witness,
)
from tpalg.errors import DimMismatch, OrderMismatch
from tpalg.linalg import matvec, solve_affine
from tpalg.scalars import (
    GAUSS_I,
    QI,
    QQ,
    PolynomialRing,
    SeriesRing,
    TruncSeries,
    parse_series,
    substitute_params,
)

F = Fraction


def S(text, order=4):
    return parse_series(text, QQ, order)


def rand_series(rng, order, lo=-3, hi=3):
    return TruncSeries(order, tuple(F(rng.randint(lo, hi)) for _ in range(order)))


# ---------------------------------------------------------------------------
# Witness container
# ---------------------------------------------------------------------------


def test_witness_constant_layer_must_be_identity():
    zero = LinearMap(QQ, ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        EquivalenceWitness(2, (zero, zero))
    with pytest.raises(ValueError):
        EquivalenceWitness(3, (LinearMap.identity(2, QQ), zero))


def test_witness_mixed_dims_rejected():
    with pytest.raises(DimMismatch):
        EquivalenceWitness(
            2, (LinearMap.identity(2, QQ), LinearMap(QQ, ((F(0),),)))
        )


def test_identity_witness_shape():
    w = EquivalenceWitness.identity(2, 3, QQ)
    assert w.f[0].is_identity()
    for layer in w.f[1:]:
        assert all(x == 0 for row in layer.m for x in row)


def test_witness_inverse_composes_to_identity():
    w = EquivalenceWitness(
        3,
        (
            LinearMap.identity(2, QQ),
            LinearMap(QQ, ((F(0), F(1)), (F(2), F(0)))),
            LinearMap(QQ, ((F(1), F(0)), (F(0), F(-1)))),
        ),
    )
    winv = w.inverse()
    fmat = w.series_matrix()
    gmat = winv.series_matrix()
    ring = SeriesRing(QQ, 3)
    for i in range(2):
        for j in range(2):
            acc = ring.zero()
            for t in range(2):
                acc = acc + fmat[i][t] * gmat[t][j]
            assert acc == (ring.one() if i == j else ring.zero())


# ---------------------------------------------------------------------------
# verify_witness
# ---------------------------------------------------------------------------


def test_identity_witness_verifies_equal_deformations():
    d = family2d_construct(S("1+h"), S("2h"))
    w = EquivalenceWitness.identity(2, 4, QQ)
    assert verify_witness(d, d, w).passed


def test_identity_witness_fails_on_different_deformations():
    d1 = family2d_construct(S("h"), S("0"))
    d2 = family2d_construct(S("h"), S("h"))
    report = verify_witness(d1, d2, EquivalenceWitness.identity(2, 4, QQ))
    assert not report.passed
    assert report.counterexample.clause == "intertwining"
    assert report.counterexample.indices == (1, 1)  # e1 *_h e1 differs


def test_verify_witness_frame_checks():
    d1 = family2d_construct(S("h"), S("0"))
    d2 = family2d_construct(S("h", 3), S("0", 3))
    with pytest.raises(OrderMismatch):
        verify_witness(d1, d2, EquivalenceWitness.identity(2, 4, QQ))
    with pytest.raises(OrderMismatch):
        verify_witness(d1, d1, EquivalenceWitness.identity(2, 3, QQ))
    d3 = commutator_deform(euler_gelfand(3, QQ).op("circ"), 4)
    with pytest.raises(DimMismatch):
        verify_witness(d1, d3, EquivalenceWitness.identity(2, 4, QQ))
    with pytest.raises(DimMismatch):
        verify_witness(d3, d3, EquivalenceWitness.identity(2, 4, QQ))


def test_witness_symmetry_via_inverse():
    v = family2d_equiv(S("h"), S("0"), S("h"), S("h^2"))
    assert v.is_equivalent
    d1 = family2d_construct(S("h"), S("0"))
    d2 = family2d_construct(S("h"), S("h^2"))
    assert verify_witness(d1, d2, v.witness).passed
    assert verify_witness(d2, d1, v.witness.inverse()).passed


# ---------------------------------------------------------------------------
# Family criterion: frozen verdicts
# ---------------------------------------------------------------------------


def test_family_b_shift_equivalent_with_expected_witness():
    # (h, 0) ~ (h, h^2): the correction is b' = b - mu_h * h(a_h + h)
    # with eps = 1, mu_h = -1/2, so f_1 sends e1 to e1 - (1/2) e2
    v = family2d_equiv(S("h"), S("0"), S("h"), S("h^2"))
    assert v.is_equivalent
    assert v.witness.f[1].m[1] == (F(-1, 2), F(0))
    assert v.witness.f[0].is_identity()


def test_family_a_mismatch():
    v = family2d_equiv(S("0"), S("h"), S("h"), S("h"))
    assert v.is_not_equivalent
    assert v.failure_order == 1
    assert v.reason == "a_h coefficients differ at h^1"


def test_family_b_obstruction():
    v = family2d_equiv(S("0"), S("h"), S("0"), S("2h"))
    assert v.is_not_equivalent
    assert v.failure_order == 1
    assert v.reason == "no admissible ε_h: the b-coefficient constraint at h^1 is infeasible"


def test_family_tail_of_b_absorbed():
    # over a = -h the correction term h(a+h) vanishes identically, but
    # rescaling by eps_h still reaches any b with the same leading term
    v = family2d_equiv(
        S("-h", 6), S("3h^2+5h^3", 6), S("-h", 6), S("3h^2", 6)
    )
    assert v.is_equivalent


def test_family_unital_kills_b():
    v = family2d_equiv(S("1"), S("h"), S("1"), S("0"))
    assert v.is_equivalent


def test_family_lambda_scale_not_equivalent():
    v = family2d_equiv(S("1"), S("0"), S("1+h"), S("0"))
    assert v.is_not_equivalent
    assert v.failure_order == 1


def test_family_reflexive_and_mixed_orders():
    v = family2d_equiv(S("1+h"), S("2-h^3"), S("1+h"), S("2-h^3"))
    assert v.is_equivalent
    with pytest.raises(OrderMismatch):
        family2d_equiv(S("h", 3), S("0", 3), S("h", 4), S("0", 4))


# ---------------------------------------------------------------------------
# General solver: frozen verdicts
# ---------------------------------------------------------------------------


def test_solver_base_product_mismatch():
    d1 = family2d_construct(S("1"), S("0"))
    d2 = family2d_construct(S("2"), S("0"))
    v = solve_equivalence(d1, d2)
    assert v.is_not_equivalent
    assert v.failure_order == 0
    assert v.reason == "base products differ at h^0"


def test_solver_agrees_on_b_shift():
    d1 = family2d_construct(S("h"), S("0"))
    d2 = family2d_construct(S("h"), S("h^2"))
    v = solve_equivalence(d1, d2)
    assert v.is_equivalent
    assert verify_witness(d1, d2, v.witness).passed


def test_solver_lambda_scale_obstruction():
    d1 = family2d_construct(S("1"), S("0"))
    d2 = family2d_construct(S("1+h"), S("0"))
    v = solve_equivalence(d1, d2)
    assert v.is_not_equivalent
    assert v.failure_order == 2
    assert v.reason == "linear obstruction at h^2 has no solution"


def test_solver_declines_quadratic_obstruction():
    # with a zero base dot every first-layer coordinate is free, and from
    # h^3 on the residual is quadratic in those parameters; the per-order
    # affine strategy reports unknown instead of guessing -- even on a
    # deformation compared against itself
    circ = euler_gelfand(3, QQ).op("circ")
    d = commutator_deform(circ, 4)
    v = solve_equivalence(d, d)
    assert v.is_unknown
    assert v.reason == "obstruction at h^3 is quadratic in free parameters from lower orders"
    # one order lower the system stays linear and the verdict is definite
    d3 = commutator_deform(circ, 3)
    v3 = solve_equivalence(d3, d3)
    assert v3.is_equivalent
    assert verify_witness(d3, d3, v3.witness).passed


def test_solver_frame_checks():
    d1 = family2d_construct(S("h"), S("0"))
    with pytest.raises(OrderMismatch):
        solve_equivalence(d1, family2d_construct(S("h", 3), S("0", 3)))
    with pytest.raises(DimMismatch):
        solve_equivalence(d1, commutator_deform(euler_gelfand(3, QQ).op("circ"), 4))


def test_verdict_tag_properties():
    v = EquivVerdict("unknown", reason="why not")
    assert v.is_unknown and not v.is_equivalent and not v.is_not_equivalent


# ---------------------------------------------------------------------------
# Cross-validation between the family criterion and the solver
# ---------------------------------------------------------------------------


def test_routes_agree_on_seeded_random_pairs():
    rng = random.Random(9158)
    for _ in range(12):
        order = rng.choice((3, 4, 5))
        a, b, b2 = (rand_series(rng, order) for _ in range(3))
        a2 = a if rng.random() < 0.5 else rand_series(rng, order)
        fam = family2d_equiv(a, b, a2, b2)
        gen = solve_equivalence(
            family2d_construct(a, b), family2d_construct(a2, b2)
        )
        assert not (fam.is_equivalent and gen.is_not_equivalent)
        assert not (fam.is_not_equivalent and gen.is_equivalent)
        if fam.is_equivalent:
            report = verify_witness(
                family2d_construct(a, b),
                family2d_construct(a2, b2),
                fam.witness,
            )
            assert report.passed


def test_routes_agree_on_constructed_equivalences():
    # build b2 = b*eps - mu*h*(a+h) directly, so Equivalent is forced
    rng = random.Random(4427)
    for _ in range(8):
        order = rng.choice((4, 5))
        h = parse_series("h", QQ, order)
        a, b = rand_series(rng, order), rand_series(rng, order)
        eps = TruncSeries(
            order, (F(1),) + tuple(F(rng.randint(-2, 2)) for _ in range(order - 1))
        )
        mu = rand_series(rng, order, -2, 2)
        b2 = b * eps - mu * (h * (a + h))
        fam = family2d_equiv(a, b, a, b2)
        assert fam.is_equivalent
        gen = solve_equivalence(
            family2d_construct(a, b), family2d_construct(a, b2)
        )
        assert not gen.is_not_equivalent
        if gen.is_equivalent:
            assert verify_witness(
                family2d_construct(a, b),
                family2d_construct(a, b2),
                gen.witness,
            ).passed


# ---------------------------------------------------------------------------
# Q(i) deformations
# ---------------------------------------------------------------------------


def perturbed(d, k, idx, delta):
    """d with delta added to the entry idx = (i, j, l) of the layer op mu[k]."""
    n = d.dim
    entries = {
        (i, j, l): d.mu[k].c[i][j][l]
        for i in range(n)
        for j in range(n)
        for l in range(n)
    }
    entries[idx] = entries[idx] + delta
    mu = list(d.mu)
    mu[k] = BilinearOp.from_entries(n, d.ring, entries)
    return TruncatedDeformation(d.base, d.order, tuple(mu))


def test_solver_gaussian_gelfand_self_pair():
    d = deform_from_np(euler_gelfand(3, QI), 4)
    v = solve_equivalence(d, d)
    assert v.is_equivalent
    assert verify_witness(d, d, v.witness).passed


def test_solver_gaussian_perturbed_pair():
    # adding i to the e2-coordinate of e1 * e1 in the h^1 layer is undone
    # by f_h(e1) = e1 + i(-h + h^2 - h^3) e2 (verdict recorded on the
    # series-based solver)
    d = deform_from_np(euler_gelfand(2, QI), 4)
    e = perturbed(d, 1, (0, 0, 1), GAUSS_I)
    v = solve_equivalence(d, e)
    assert v.is_equivalent
    zero = QI.zero()
    assert [layer.m for layer in v.witness.f[1:]] == [
        ((zero, zero), (-GAUSS_I, zero)),
        ((zero, zero), (GAUSS_I, zero)),
        ((zero, zero), (-GAUSS_I, zero)),
    ]
    assert verify_witness(d, e, v.witness).passed


# ---------------------------------------------------------------------------
# Differential test against the series-based solver
# ---------------------------------------------------------------------------
#
# The reference below builds F = id + f_1 h + ... as a matrix of truncated
# series at every order and reads the h^k coefficient of the full
# intertwining residual.  solve_equivalence reads that coefficient from the
# layer ops directly; both must reach the same verdict, failure order,
# reason and witness.


def series_solve_equivalence(d1, d2) -> EquivVerdict:
    """Search for an intertwining witness, one power of h at a time."""
    _common_frame(d1, d2)
    n, order = d1.dim, d1.order
    field = d1.ring
    if not d1.mu[0].entries_equal(d2.mu[0]):
        return not_equivalent(0, "base products differ at h^0")

    names = tuple(f"s{k}_{t}" for k in range(1, order) for t in range(n * n))
    pring = PolynomialRing(field, names)
    sring = SeriesRing(pring, order)
    op1 = d1.series_op().coerce_to(sring)
    op2 = d2.series_op().coerce_to(sring)
    amat = _delta_matrix(d1.mu[0])

    committed = []  # committed[k-1][i][j]: ParamPoly entry of f_k

    def f_series():
        layers = [
            [[pring.one() if i == j else pring.zero() for j in range(n)] for i in range(n)]
        ] + committed
        return [
            [
                TruncSeries(
                    order,
                    tuple(layers[k][i][j] for k in range(len(layers))),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]

    constraints = _ParamConstraints(pring, field)

    for k in range(1, order):
        fmat = f_series()
        fcols = [[fmat[i][j] for i in range(n)] for j in range(n)]
        rhs = []
        for p in range(n):
            for q in range(n):
                lhs = matvec(fmat, op1.col(p, q))
                rhsv = op2.apply(fcols[p], fcols[q])
                residual = vsub(lhs, rhsv)
                for l in range(n):
                    rhs.append(constraints.reduce(pring.coerce(-residual[l].coeffs[k])))
        sol = solve_affine(amat, rhs, field.one())
        if not sol.feasible:
            for stranded in sol.residuals:
                status = constraints.absorb(stranded)
                if status == constraints.CONTRADICTION:
                    return not_equivalent(
                        k, f"linear obstruction at h^{k} has no solution"
                    )
                if status == constraints.NONLINEAR:
                    return unknown(
                        f"obstruction at h^{k} is quadratic in free parameters "
                        "from lower orders"
                    )
            sol = solve_affine(amat, [constraints.reduce(r) for r in rhs], field.one())
            if not sol.feasible:
                raise AssertionError(
                    "internal error: system stayed infeasible after absorbing "
                    "its stranded residuals"
                )
        layer = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                u = i * n + j
                entry = sol.particular[u]
                for t, col in enumerate(sol.free_cols):
                    name = f"s{k}_{col}"
                    entry = entry + pring.var(name) * pring.coerce(sol.nullspace[t][u])
                layer[i][j] = pring.coerce(entry)
        committed.append(layer)

    zero_assignment = constraints.final_assignment()
    maps = [LinearMap.identity(n, field)]
    for layer in committed:
        rows = tuple(
            tuple(field.coerce(substitute_params(layer[i][j], zero_assignment)) for j in range(n))
            for i in range(n)
        )
        maps.append(LinearMap(field, rows))
    witness = EquivalenceWitness(order, tuple(maps))
    report = verify_witness(d1, d2, witness)
    if not report.passed:
        raise AssertionError(
            "internal error: solved witness failed verification "
            f"at {report.counterexample.indices}"
        )
    return equivalent(witness)


def _differential_pairs():
    for ring in (QQ, QI):
        for label, make in (
            ("np", deform_from_np),
            ("comm", lambda pres, order: commutator_deform(pres.op("circ"), order)),
        ):
            for n in (2, 3, 4):
                for order in range(2, 8 - n):
                    d = make(euler_gelfand(n, ring), order)
                    yield f"{ring.tag}/{label}/{n}/{order}/self", d, d
                    rng = random.Random(f"{ring.tag}/{label}/{n}/{order}")
                    for side in (0, 1):
                        k = rng.randrange(1, order)
                        idx = tuple(rng.randrange(n) for _ in range(3))
                        delta = rng.choice((F(1), F(-1), F(2), F(1, 2)))
                        if ring is QI and rng.random() < 0.5:
                            delta = delta * GAUSS_I
                        e = perturbed(d, k, idx, delta)
                        pair = (d, e) if side == 0 else (e, d)
                        yield f"{ring.tag}/{label}/{n}/{order}/{k}{idx}/{side}", *pair


def test_solver_matches_series_reference():
    tags = set()
    for case, d1, d2 in _differential_pairs():
        got = solve_equivalence(d1, d2)
        want = series_solve_equivalence(d1, d2)
        assert (got.tag, got.failure_order, got.reason) == (
            want.tag,
            want.failure_order,
            want.reason,
        ), case
        if want.witness is not None:
            layers = [repr(m.m) for m in got.witness.f]
            assert layers == [repr(m.m) for m in want.witness.f], case
        tags.add(got.tag)
    assert tags == {"equivalent", "not_equivalent", "unknown"}
