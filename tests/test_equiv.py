"""Equivalence of truncated deformations: the general order-by-order solver,
the closed-form criterion for the two-parameter dim-2 family, witness
verification, and cross-validation between the two routes."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpalg.algebra import (
    AlgebraPresentation,
    BilinearOp,
    Counterexample,
    IdentityReport,
    LinearMap,
    default_labels,
    euler_gelfand,
    is_zero_vector,
    vsub,
)
from tpalg.deform import (
    TruncatedDeformation,
    _family_frame,
    commutator_deform,
    deform_from_np,
    family2d_construct,
)
from tpalg.equiv import (
    EquivalenceWitness,
    EquivVerdict,
    _common_frame,
    _delta_matrix,
    _gate_entries,
    _ParamConstraints,
    _solve,
    _verified,
    equivalent,
    family2d_equiv,
    not_equivalent,
    solve_equivalence,
    unknown,
    verify_witness,
)
from tpalg.errors import BadScalar, DimMismatch, OrderMismatch
from tpalg.linalg import invert_series_matrix, matvec, solve_affine
from tpalg.scalars import (
    GAUSS_I,
    QI,
    QQ,
    GaussianRational,
    ParamPoly,
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


def series_matrix(w):
    """The witness as a matrix of TruncSeries entries."""
    n = w.dim
    return [
        [TruncSeries(w.order, tuple(w.f[k].m[i][j] for k in range(w.order))) for j in range(n)]
        for i in range(n)
    ]


def inverse(w):
    """The truncated inverse witness, which exists because f[0] = id."""
    inv_layers = invert_series_matrix([[list(row) for row in fk.m] for fk in w.f])
    ring = w.f[0].ring
    return EquivalenceWitness(
        w.order, tuple(LinearMap(ring, tuple(map(tuple, m))) for m in inv_layers)
    )


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


def test_witness_from_layers_puts_f_k_at_h_k():
    f1, f2 = ((F(0), F(1)), (F(2), F(0))), ((F(1), F(0)), (F(0), F(-1)))
    w = EquivalenceWitness.from_layers(QQ, 2, [[list(row) for row in f1], f2])
    expected = (LinearMap.identity(2, QQ), LinearMap(QQ, f1), LinearMap(QQ, f2))
    assert repr(w) == repr(EquivalenceWitness(3, expected))
    assert repr(EquivalenceWitness.from_layers(QI, 3, [])) == repr(
        EquivalenceWitness(1, (LinearMap.identity(3, QI),))
    )


def test_witness_inverse_composes_to_identity():
    w = EquivalenceWitness(
        3,
        (
            LinearMap.identity(2, QQ),
            LinearMap(QQ, ((F(0), F(1)), (F(2), F(0)))),
            LinearMap(QQ, ((F(1), F(0)), (F(0), F(-1)))),
        ),
    )
    fmat = series_matrix(w)
    gmat = series_matrix(inverse(w))
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
    assert verify_witness(d2, d1, inverse(v.witness)).passed


# ---------------------------------------------------------------------------
# Differential test of the gate: packed integers against series products
# ---------------------------------------------------------------------------
#
# The reference is verify_witness as it was before it packed series over Q
# into integers: every product below is a TruncSeries product, truncated as
# it goes.  Over Q, Q(i) and a polynomial ring both must return the same
# report, residual series and the types of their coefficients included.


def series_verify_witness(d1, d2, w):
    """Does w intertwine d1 into d2?  Every basis pair, on TruncSeries."""
    _common_frame(d1, d2)
    if w.dim != d1.dim:
        raise DimMismatch(f"witness dim {w.dim} does not match deformation dim {d1.dim}")
    if w.order != d1.order:
        raise OrderMismatch(f"witness order {w.order} does not match deformation order {d1.order}")
    op1 = d1.series_op()
    op2 = d2.series_op()
    fmat = series_matrix(w)
    n = d1.dim
    fcols = [[fmat[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = matvec(fmat, op1.col(i, j))
            rhs = op2.apply(fcols[i], fcols[j])
            res = vsub(lhs, rhs)
            if not is_zero_vector(res):
                return IdentityReport(
                    "EQUIVALENCE",
                    False,
                    Counterexample((i + 1, j + 1), tuple(res), "intertwining"),
                )
    return IdentityReport("EQUIVALENCE", True, None)


def _deformation(layers):
    """The deformation with layer ops ``layers`` (the first is dot)."""
    n, ring = layers[0].dim, layers[0].ring
    base = AlgebraPresentation(n, ring, default_labels(n), {"dot": layers[0]})
    return TruncatedDeformation(base, len(layers), tuple(layers))


def _op(n, entry, ring=QQ):
    return BilinearOp(
        ring, tuple(tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in range(n))
    )


def transported(d, w):
    """The deformation that w intertwines d into: F(F^-1 x *_h F^-1 y)."""
    n, order = d.dim, d.order
    op = d.series_op()
    fmat, gmat = series_matrix(w), series_matrix(inverse(w))
    gcols = [[gmat[i][j] for i in range(n)] for j in range(n)]
    layers = [{} for _ in range(order)]
    for p in range(n):
        for q in range(n):
            image = matvec(fmat, op.apply(gcols[p], gcols[q]))
            for l, s in enumerate(image):
                for t, c in enumerate(s.coeffs):
                    layers[t][(p, q, l)] = c
    return TruncatedDeformation(
        d.base, order, tuple(BilinearOp.from_entries(n, d.ring, e) for e in layers)
    )


def aligned_case(n, order, a):
    """A failing pair whose residual comes within a small factor of the
    bound the packed gate sizes its digits by: mu1 = a (1 + h + ...),
    mu2 = a (1 - h - ...) and F = 1 - J (h + h^2 + ...), J all ones."""
    def constant(value):
        return BilinearOp(QQ, tuple(tuple((value,) * n for _ in range(n)) for _ in range(n)))

    minus_j = LinearMap(QQ, tuple((F(-1),) * n for _ in range(n)))
    w = EquivalenceWitness(order, (LinearMap.identity(n, QQ),) + (minus_j,) * (order - 1))
    d1 = _deformation([constant(a)] * order)
    d2 = _deformation([constant(a)] + [constant(-a)] * (order - 1))
    return d1, d2, w


def filled_case(n, order, a1, a2):
    """A failing pair whose defect comes within 4x of the bound the packed
    gate sizes its digits by, at h^(N-1): mu1 = (a1/L1)(1 + h + ...),
    mu2 = -(a2/L2)(1 + h + ...) and F = 1 + (1 - 1/Lf) J (h + h^2 + ...),
    J all ones, for three distinct primes L1, L2, Lf.  Every product on
    both sides has the same sign, and a1 or a2 picks which side holds the
    most of the defect."""
    lf, l1, l2 = 10**9 + 7, 10**9 + 9, 998244353

    def constant(value):
        return BilinearOp(QQ, tuple(tuple((value,) * n for _ in range(n)) for _ in range(n)))

    u = LinearMap(QQ, tuple((F(lf - 1, lf),) * n for _ in range(n)))
    w = EquivalenceWitness(order, (LinearMap.identity(n, QQ),) + (u,) * (order - 1))
    d1 = _deformation([constant(F(a1, l1))] * order)
    d2 = _deformation([constant(F(-a2, l2))] * order)
    return d1, d2, w


POLY = PolynomialRing(QQ, ("a", "b"))


@st.composite
def witness_cases(draw):
    """(d1, d2, w) over Q, Q(i) or Q[a, b]: random layers, family members
    or Euler deformations (Q and Q(i)) against the same deformation, a
    transport (so that w passes), a perturbed transport, or an unrelated
    deformation."""
    rnd = draw(st.randoms(use_true_random=False))
    ring = draw(st.sampled_from([QQ, QI, POLY]))
    top = draw(st.sampled_from([3, 10**9, 10**30]))
    den = draw(st.sampled_from([1, 6, 10**9]))
    density = draw(st.sampled_from([0.3, 1.0]))

    def rational():
        if rnd.random() >= density:
            return F(0)
        return F(rnd.randint(-top, top), rnd.randint(1, den))

    def number():
        if ring == QQ:
            return rational()
        if ring == QI:
            return GaussianRational(rational(), rational())
        a, b = (ring.var(v) for v in ring.variables)
        return ring.coerce(rational()) + rational() * a + rational() * a * b

    def series(order):
        return TruncSeries(order, tuple(number() for _ in range(order)))

    kinds = ["random", "family", "euler"] + ["aligned"] * (ring == QQ)
    kind = draw(st.sampled_from(kinds if ring != POLY else ["random"]))
    if kind == "aligned":
        n, order = draw(st.integers(1, 2)), draw(st.integers(2, 8))
        return aligned_case(n, order, F(rnd.randint(1, top), rnd.randint(1, den)))
    if kind == "random":
        n = draw(st.integers(1, 3))
        order = draw(st.integers(1, 8 if n < 3 else 5))
        d1 = _deformation([_op(n, number, ring) for _ in range(order)])
    elif kind == "family":
        n, order = 2, draw(st.integers(2, 8))
        d1 = family2d_construct(series(order), series(order), ring)
    else:
        n = draw(st.integers(2, 4))
        order = draw(st.integers(2, 8 if n < 4 else 4))
        pres = euler_gelfand(n, ring)
        if draw(st.booleans()):
            d1 = deform_from_np(pres, order)
        else:
            d1 = commutator_deform(pres.op("circ"), order)
    if draw(st.booleans()):
        w = EquivalenceWitness.identity(n, order, ring)
    else:
        w = EquivalenceWitness(order, (LinearMap.identity(n, ring),) + tuple(
            LinearMap(ring, tuple(tuple(number() for _ in range(n)) for _ in range(n)))
            for _ in range(order - 1)
        ))
    pair = draw(st.sampled_from(["same", "transport", "perturbed", "unrelated"]))
    if pair == "same":
        return d1, d1, w
    if pair == "unrelated":
        return d1, _deformation([_op(n, number, ring) for _ in range(order)]), w
    d2 = transported(d1, w)
    if pair == "perturbed" and order > 1:
        idx = tuple(rnd.randrange(n) for _ in range(3))
        d2 = perturbed(d2, rnd.randrange(1, order), idx, F(rnd.randint(1, top), rnd.randint(1, den)))
    return d1, d2, w


def scalar_types(x):
    """The type of a scalar with the types of the coefficients inside it."""
    if isinstance(x, TruncSeries):
        return TruncSeries, tuple(map(scalar_types, x.coeffs))
    if isinstance(x, ParamPoly):
        return ParamPoly, sorted((m, scalar_types(c)) for m, c in x.sparse.items())
    return type(x)


@given(witness_cases())
@example(aligned_case(1, 2, F(10**30 - 1, 10**9 - 7)))
@settings(max_examples=90, deadline=None)
def test_packed_gate_matches_series_gate(case):
    d1, d2, w = case
    got, want = verify_witness(d1, d2, w), series_verify_witness(d1, d2, w)
    assert got == want
    assert repr(got) == repr(want)
    if not want.passed:
        residual = got.counterexample.residual
        assert [type(s) for s in residual] == [TruncSeries] * d1.dim
        assert list(map(scalar_types, residual)) == list(
            map(scalar_types, want.counterexample.residual)
        )


@pytest.mark.parametrize(
    "n, order, a1, a2",
    [(1, 4, 10**30 + 1, 10**30 + 1), (2, 6, 10**30 + 1, 1), (1, 6, 1, 10**30 + 1)],
    ids=["both", "left", "right"],
)
def test_packed_gate_fills_its_digits(n, order, a1, a2):
    """The defect's coefficient of h^(N-1), at the packing's scale, lies
    within 4x of the bound (at least 2^(B-3), and the bound is below
    2^(B-1)), and reads back as the series gate does.  "left" and "right"
    put the most of it on F(mu1(x, y)) and on mu2(F x, F y) in turn."""
    d1, d2, w = filled_case(n, order, a1, a2)
    packing = _gate_entries(d1, d2, w)[3]
    got, want = verify_witness(d1, d2, w), series_verify_witness(d1, d2, w)
    assert got == want and repr(got) == repr(want)
    residual = got.counterexample.residual
    top = max(abs(s.coeffs[-1]) * packing.scale for s in residual)
    assert top == max(abs(c) * packing.scale for s in residual for c in s.coeffs)
    assert 1 << packing.bits - 3 <= top < 1 << packing.bits - 1


def _as_field(x, field):
    """A deformation or a witness with its entries coerced into ``field``."""
    if isinstance(x, EquivalenceWitness):
        return EquivalenceWitness(x.order, tuple(
            LinearMap(field, tuple(tuple(map(field.coerce, row)) for row in f.m)) for f in x.f
        ))
    return _deformation([op.coerce_to(field) for op in x.mu])


def test_packed_gate_ring_choice():
    """The gate packs integers only when both deformations and the witness
    are over Q.  A Q pair with a Q(i) witness, a Q(i) pair with a Q
    witness, and a Q deformation against a Q(i) one run on series, and all
    agree with the series reference, passing and failing."""
    d1, d2 = family2d_construct(S("h"), S("0")), family2d_construct(S("h"), S("h^2"))
    v = family2d_equiv(S("h"), S("0"), S("h"), S("h^2"))
    assert _gate_entries(d1, d2, v.witness)[3] is not None
    ident = EquivalenceWitness.identity(2, 4, QQ)
    cases = [
        (d1, d2, _as_field(v.witness, QI), True),
        (d1, d1, _as_field(ident, QI), True),
        (d1, d2, _as_field(ident, QI), False),
        (_as_field(d1, QI), _as_field(d2, QI), v.witness, True),
        (_as_field(d1, QI), _as_field(d2, QI), ident, False),
        (d1, _as_field(d2, QI), v.witness, True),
        (_as_field(d1, QI), d2, ident, False),
    ]
    for d1, d2, w, passed in cases:
        assert _gate_entries(d1, d2, w)[3] is None
        got, want = verify_witness(d1, d2, w), series_verify_witness(d1, d2, w)
        assert got == want and repr(got) == repr(want)
        assert got.passed == passed


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


@pytest.mark.xfail(
    strict=True,
    reason="family2d_equiv compares a_h through the top order, but when a0 != 0 "
    "rescaling e1 by 1 + c h^(N-1) absorbs a difference at h^(N-1)",
)
def test_family_top_order_a_difference_agrees_with_solver():
    a, b, a2, b2 = S("1", 2), S("0", 2), S("1+h", 2), S("0", 2)
    solved = solve_equivalence(family2d_construct(a, b), family2d_construct(a2, b2))
    assert solved.is_equivalent
    assert family2d_equiv(a, b, a2, b2).tag == solved.tag


def test_family_reflexive_and_mixed_orders():
    v = family2d_equiv(S("1+h"), S("2-h^3"), S("1+h"), S("2-h^3"))
    assert v.is_equivalent
    with pytest.raises(OrderMismatch):
        family2d_equiv(S("h", 3), S("0", 3), S("h", 4), S("0", 4))


# ---------------------------------------------------------------------------
# Differential test of the family criterion against its linear system
# ---------------------------------------------------------------------------
#
# The reference is family2d_equiv as it was before it read the verdict off
# h-valuations: one affine equation per h-degree in the coefficients of
# eps_h and mu_h, solved by Gauss-Jordan, and on failure the first
# infeasible prefix as the failure order.  Both must return the same
# verdict, failure order, reason and witness, coefficient types included.


def linear_family2d_equiv(a_h, b_h, a2_h, b2_h, field=None):
    """The family criterion as a linear system in eps_1.., mu_0..."""
    order, field, (a_h, b_h, a2_h, b2_h) = _family_frame((a_h, b_h, a2_h, b2_h), field)

    for k in range(order):
        if a_h.coeffs[k] != a2_h.coeffs[k]:
            return not_equivalent(k, f"a_h coefficients differ at h^{k}")

    n_eps = order - 1
    n_unknowns = n_eps + order
    g = [field.zero()] * order  # g = h (a_h + h)
    for j in range(1, order):
        g[j] = a_h.coeffs[j - 1] + (field.one() if j == 2 else field.zero())

    def row_for_degree(k):
        row = [field.zero()] * n_unknowns
        for j in range(1, k + 1):
            if j <= n_eps:
                row[j - 1] = row[j - 1] + b_h.coeffs[k - j]
            row[n_eps + (k - j)] = row[n_eps + (k - j)] - g[j]
        return row

    rows = [row_for_degree(k) for k in range(order)]
    rhs = [b2_h.coeffs[k] - b_h.coeffs[k] for k in range(order)]
    sol = solve_affine(rows, rhs, field.one())
    if not sol.feasible:
        for k in range(order):
            if not solve_affine(rows[: k + 1], rhs[: k + 1], field.one()).feasible:
                return not_equivalent(
                    k,
                    f"no admissible ε_h: the b-coefficient constraint at h^{k} is infeasible",
                )

    eps, mu = sol.particular[:n_eps], sol.particular[n_eps:]
    maps = [LinearMap.identity(2, field)]
    for k in range(1, order):
        maps.append(LinearMap(field, ((field.zero(),) * 2, (mu[k - 1], eps[k - 1]))))
    d1 = family2d_construct(a_h, b_h, field)
    d2 = family2d_construct(a2_h, b2_h, field)
    return _verified(d1, d2, EquivalenceWitness(order, tuple(maps)), "family")


def family_case(field, order, v_ah, v_b, v_w, seed=0, explicit=False):
    """(a, b, a, b + w, field) where a + h, b and w have h-valuations v_ah,
    v_b and v_w (the order for the zero series), so g = h (a + h) has
    valuation v_ah + 1; the other coefficients are small random numbers,
    Gaussian over Q(i).  The field is passed only when ``explicit``."""
    rnd = random.Random(seed)

    def number(nonzero):
        while True:
            x = F(rnd.randint(-3, 3), rnd.randint(1, 3))
            if field is QI and rnd.random() < 0.5:
                x = GaussianRational(x, F(rnd.randint(-2, 2)))
            if x or not nonzero:
                return x

    def valued(v):
        return TruncSeries(order, tuple(F(0) if k < v else number(k == v) for k in range(order)))

    a, b = valued(v_ah) - TruncSeries.h(order), valued(v_b)
    return a, b, a, b + valued(v_w), field if explicit else None


@st.composite
def family_cases(draw):
    field = draw(st.sampled_from([QQ, QI]))
    order = draw(st.integers(2, 16))
    v_ah, v_b, v_w = (draw(st.integers(0, order)) for _ in range(3))
    return family_case(
        field, order, v_ah, v_b, v_w, draw(st.integers(0, 2**32)), draw(st.booleans())
    )


@given(family_cases())
# one example per branch (order 6 unless noted): v_w below v(g) = m
@example(family_case(QQ, 6, 2, 4, 1))
# v_w below v_b + 1 = m, over Q(i)
@example(family_case(QI, 6, 4, 1, 1, seed=1))
# v(g) >= v_b + 1: mu_h = 0 and eps_h from the division by b_h
@example(family_case(QQ, 6, 3, 1, 3))
@example(family_case(QI, 9, 5, 2, 7, seed=2, explicit=True))
# v(g) < v_b + 1 < order: mu_h below h^(v_b+1), then eps_h
@example(family_case(QI, 8, 0, 3, 1, seed=3))
# b_h = 0: mu_h alone, through the top order; and the failure at v_w
@example(family_case(QQ, 7, 1, 7, 2))
@example(family_case(QI, 7, 1, 7, 1, seed=4))
# g = 0 mod h^order (a_h = -h + c h^(order-1), or a_h = -h): eps_h alone
@example(family_case(QQ, 6, 5, 2, 3))
@example(family_case(QI, 6, 6, 2, 1, seed=5))
# g = 0 and b_h = 0: only w = 0 passes
@example(family_case(QQ, 5, 5, 5, 5))
@example(family_case(QQ, 5, 4, 5, 4))
@settings(max_examples=150, deadline=None)
def test_family_criterion_matches_linear_system(case):
    assert repr(family2d_equiv(*case)) == repr(linear_family2d_equiv(*case))


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
    # affine strategy reports unknown instead of guessing.  A self-pair is
    # decided by the field pass (the identity is a witness); one entry of
    # the h^3 layer changed leaves the field pass infeasible at h^3
    circ = euler_gelfand(3, QQ).op("circ")
    d = commutator_deform(circ, 4)
    v = solve_equivalence(d, perturbed(d, 3, (0, 0, 2), F(1)))
    assert v.is_unknown
    assert v.reason == "obstruction at h^3 is quadratic in free parameters from lower orders"
    v = solve_equivalence(d, d)
    assert v.is_equivalent
    assert verify_witness(d, d, v.witness).passed
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
    # equivalence is decided over a field: parameters are refused up front,
    # on either side, before the orders are compared
    para = _deformation([_op(2, POLY.zero, POLY), _op(2, lambda: POLY.var("a"), POLY)])
    message = r"^equivalence is decided over Q or Q\(i\), but the deformations carry parameters a, b$"
    for pair in ((para, d1), (d1, para), (para, para)):
        with pytest.raises(BadScalar, match=message):
            solve_equivalence(*pair)


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


def test_mixed_fields_answer_over_qi_in_either_order():
    a_qi, b_qi = parse_series("h", QI, 3), parse_series("i*h^2", QI, 3)
    a_q, b_q = S("h", 3), S("h^2", 3)
    qi, q = family2d_construct(a_qi, b_qi), family2d_construct(a_q, b_q)
    orders = (((qi, q), (a_qi, b_qi, a_q, b_q)), ((q, qi), (a_q, b_q, a_qi, b_qi)))
    for (d1, d2), params in orders:
        for v in (solve_equivalence(d1, d2), family2d_equiv(*params)):
            assert v.is_equivalent
            entries = [x for f in v.witness.f for row in f.m for x in row]
            assert {type(x) for x in entries} == {GaussianRational}
            assert verify_witness(d1, d2, v.witness).passed
            assert series_verify_witness(d1, d2, v.witness).passed


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
    # a pair the field pass leaves to a quadratic obstruction
    d = commutator_deform(euler_gelfand(3, QQ).op("circ"), 4)
    yield "Q/comm/3/4/3(0, 0, 2)/quadratic", d, perturbed(d, 3, (0, 0, 2), F(1))


def test_solver_matches_series_reference():
    # the reference has no field pass: where it answers unknown, the solver
    # may instead find a witness, which must then verify
    tags = set()
    for case, d1, d2 in _differential_pairs():
        got = solve_equivalence(d1, d2)
        want = series_solve_equivalence(d1, d2)
        if want.is_unknown and got.is_equivalent:
            assert verify_witness(d1, d2, got.witness).passed, case
            tags.add(got.tag)
            continue
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


# ---------------------------------------------------------------------------
# The field pass against the symbolic pass
# ---------------------------------------------------------------------------
#
# Wherever the field pass finds a witness, the symbolic pass run alone must
# not find an obstruction, and where it finds a witness too the two must be
# the same, down to the type of every entry.


def _euler_self_pairs():
    for ring in (QQ, QI):
        for label, make in (
            ("np", deform_from_np),
            ("comm", lambda pres, order: commutator_deform(pres.op("circ"), order)),
        ):
            for n in (2, 3, 4, 5):
                for order in (4, 6, 8):
                    d = make(euler_gelfand(n, ring), order)
                    yield f"{ring.tag}/{label}/{n}/{order}/self", d, d


def test_field_pass_witness_matches_symbolic_pass():
    outcomes = set()
    for case, d1, d2 in [*_differential_pairs(), *_euler_self_pairs()]:
        field = _common_frame(d1, d2)
        amat = _delta_matrix(d1.mu[0])
        fast = _solve(d1, d2, field, amat, False)
        if fast is None:
            continue
        slow = _solve(d1, d2, field, amat, True)
        assert fast.is_equivalent and not slow.is_not_equivalent, case
        if slow.is_equivalent:
            layers = [repr(m.m) for m in fast.witness.f]
            assert layers == [repr(m.m) for m in slow.witness.f], case
        outcomes.add(slow.tag)
    assert outcomes == {"equivalent", "unknown"}
