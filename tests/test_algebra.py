"""Identity checking on structure constants, the derivation-product
construction, subalgebras, and the degree-5 identity against a table of
alternating products over index subsets.

The hand-written residual functions below are the independent reference
for the engine's data catalog, and the per-tuple scan further down is the
reference for the engine's prefix-slab scan."""

import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpalg import algebra
from tpalg.algebra import (
    _CACHE_CAP,
    IDENTITIES,
    AlgebraPresentation,
    BilinearOp,
    Clause,
    LinearMap,
    _basis_vector,
    _cache,
    _entries,
    _leaves,
    _nodes,
    _shape,
    _sign,
    _signed_sum,
    bounded_ddt_bracket,
    check_identity,
    clause_failures,
    commutator,
    default_labels,
    derivation_bracket,
    derivation_rows,
    euler_derivation,
    euler_gelfand,
    failure_report,
    gelfand_construct,
    identity_failures,
    identity_names,
    identity_residual,
    is_derivation,
    is_zero_vector,
    subalgebra_check,
    truncated_poly_dot,
    vadd,
    vsub,
)
from tpalg.errors import (
    DependentSpan,
    MissingOp,
    NotCommAssoc,
    NotDerivation,
    OutOfRange,
    UnknownIdentity,
)
from tpalg.linalg import matmul
from tpalg.scalars import (
    QI, QQ, GaussianRational, ParamPoly, PolynomialRing, SeriesRing, TruncSeries,
)

from conftest import catalog_dots, circ_family, np_pair, rightcomm_only_op

F = Fraction


# ---------------------------------------------------------------------------
# Reference residuals, written out by hand for every clause of the catalog
# ---------------------------------------------------------------------------


def vscale(c, u):
    return [c * a for a in u]


def _comm(ops, xs):
    dot = ops["dot"]
    x, y = xs
    return vsub(dot.apply(x, y), dot.apply(y, x))


def _assoc(ops, xs):
    dot = ops["dot"]
    x, y, z = xs
    return vsub(dot.apply(dot.apply(x, y), z), dot.apply(x, dot.apply(y, z)))


def _antisym(ops, xs):
    br = ops["bracket"]
    x, y = xs
    return vadd(br.apply(x, y), br.apply(y, x))


def _jacobi(ops, xs):
    br = ops["bracket"]
    x, y, z = xs
    t1 = br.apply(x, br.apply(y, z))
    t2 = br.apply(y, br.apply(z, x))
    t3 = br.apply(z, br.apply(x, y))
    return vadd(vadd(t1, t2), t3)


def _nov_leftsym(ops, xs):
    circ = ops["circ"]
    x, y, z = xs
    lhs = vsub(circ.apply(circ.apply(x, y), z), circ.apply(circ.apply(y, x), z))
    rhs = vsub(circ.apply(x, circ.apply(y, z)), circ.apply(y, circ.apply(x, z)))
    return vsub(lhs, rhs)


def _nov_rightcomm(ops, xs):
    circ = ops["circ"]
    x, y, z = xs
    return vsub(circ.apply(circ.apply(x, y), z), circ.apply(circ.apply(x, z), y))


def _circ_comm(circ, x, y):
    return vsub(circ.apply(x, y), circ.apply(y, x))


def _nctpa(ops, xs):
    circ = ops["circ"]
    x, y, z = xs
    lhs = vscale(2, circ.apply(_circ_comm(circ, x, y), z))
    rhs = vadd(
        _circ_comm(circ, circ.apply(x, z), y), _circ_comm(circ, x, circ.apply(y, z))
    )
    return vsub(lhs, rhs)


def _tpa(ops, xs):
    dot, br = ops["dot"], ops["bracket"]
    x, y, z = xs
    lhs = vscale(2, dot.apply(br.apply(x, y), z))
    rhs = vadd(br.apply(x, dot.apply(y, z)), br.apply(dot.apply(x, z), y))
    return vsub(lhs, rhs)


def _np1(ops, xs):
    dot, circ = ops["dot"], ops["circ"]
    x, y, z = xs
    return vsub(circ.apply(dot.apply(x, y), z), dot.apply(x, circ.apply(y, z)))


def _np2(ops, xs):
    dot, circ = ops["dot"], ops["circ"]
    x, y, z = xs
    lhs = vsub(dot.apply(circ.apply(x, y), z), dot.apply(circ.apply(y, x), z))
    rhs = vsub(circ.apply(x, dot.apply(y, z)), circ.apply(y, dot.apply(x, z)))
    return vsub(lhs, rhs)


def _perm_sign(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


_S4 = [(p, _perm_sign(p)) for p in itertools.permutations(range(4))]


def _s5_residual(ops, xs):
    """Alternating 24-term sum of nested brackets [x_s1,[x_s2,[x_s3,[x_s4,x5]]]]."""
    br = ops["bracket"]
    x5 = xs[4]
    acc = None
    for perm, sign in _S4:
        inner = x5
        for idx in reversed(perm):
            inner = br.apply(xs[idx], inner)
        term = inner if sign > 0 else [-x for x in inner]
        acc = term if acc is None else vadd(acc, term)
    return acc


REFERENCE = {
    "COMM_ASSOC": (("commutativity", 2, _comm), ("associativity", 3, _assoc)),
    "LIE": (("antisymmetry", 2, _antisym), ("jacobi", 3, _jacobi)),
    "NOV_LEFTSYM": (("left-symmetry", 3, _nov_leftsym),),
    "NOV_RIGHTCOMM": (("right-commutativity", 3, _nov_rightcomm),),
    "NCTPA": (("bracket-compatibility", 3, _nctpa),),
    "TPA": (("transposed-leibniz", 3, _tpa),),
    "NP1": (("left-mixed-assoc", 3, _np1),),
    "NP2": (("mixed-left-symmetry", 3, _np2),),
    "S5": (("alternating-quintuple", 5, _s5_residual),),
}


def _first_failure(alg, reference):
    """The first failure of a direct lexicographic scan of the reference
    clauses over basis tuples, as (clause, 1-based tuple, residual)."""
    basis = [_basis_vector(alg.dim, i, alg.ring) for i in range(alg.dim)]
    for clause, arity, fn in reference:
        for t in itertools.product(range(alg.dim), repeat=arity):
            res = tuple(fn(alg.ops, tuple(basis[i] for i in t)))
            if any(x != 0 for x in res):
                return clause, tuple(i + 1 for i in t), res
    return None


def _assert_same_first_failure(report, first):
    """``report`` fails exactly where the direct scan does, with the same
    residual, entry types included (or passes when the scan finds none)."""
    if first is None:
        assert report.passed
        return
    ce = report.counterexample
    assert (ce.clause, ce.indices, ce.residual) == first
    assert [type(x) for x in ce.residual] == [type(x) for x in first[2]]


def _pres(ops, dim=2, ring=QQ):
    return AlgebraPresentation(dim, ring, default_labels(dim), ops)


def _bracket_e2(ring=QQ):
    one = ring.one()
    return BilinearOp.from_entries(2, ring, {(0, 1, 1): one, (1, 0, 1): -one})


# ---------------------------------------------------------------------------
# The identity catalog
# ---------------------------------------------------------------------------


def test_identity_names():
    assert identity_names() == [
        "COMM_ASSOC",
        "LIE",
        "NCTPA",
        "NOV_LEFTSYM",
        "NOV_RIGHTCOMM",
        "NP1",
        "NP2",
        "S5",
        "TPA",
    ]


def test_identity_name_normalization():
    alg = _pres({"bracket": _bracket_e2()})
    assert check_identity(alg, "lie").passed
    assert check_identity(alg, "Lie").passed
    with pytest.raises(UnknownIdentity):
        check_identity(alg, "np3")
    with pytest.raises(MissingOp):
        check_identity(alg, "tpa")  # needs a dot


def test_tpa_counterexample_frozen():
    """dot e1.e1 = e1 with bracket [e1,e2] = e2 violates the transposed
    Leibniz law at (e1, e2, e1) with residual -e2."""
    dot = BilinearOp.from_entries(2, QQ, {(0, 0, 0): F(1)})
    report = check_identity(_pres({"dot": dot, "bracket": _bracket_e2()}), "TPA")
    assert not report.passed
    ce = report.counterexample
    assert ce.clause == "transposed-leibniz"
    assert ce.indices == (1, 2, 1)
    assert tuple(ce.residual) == (F(0), F(-1))


def test_catalog_dots_are_tpa(np_corpus):
    for name, pres in np_corpus:
        dot = pres.op("dot")
        bracket = commutator(pres.op("circ"))
        alg = AlgebraPresentation(
            pres.dim, pres.ring, pres.basis_labels, {"dot": dot, "bracket": bracket}
        )
        assert check_identity(alg, "TPA").passed, name
        assert check_identity(alg, "LIE").passed, name


def test_symbolic_family_is_novikov():
    ring = PolynomialRing(QQ, ("a", "b"))
    circ = circ_family(ring.var("a"), ring.var("b"), ring)
    alg = AlgebraPresentation(2, ring, default_labels(2), {"circ": circ})
    assert check_identity(alg, "NOV_LEFTSYM").passed
    assert check_identity(alg, "NOV_RIGHTCOMM").passed
    assert check_identity(alg, "NCTPA").passed


def test_rightcomm_only_op():
    alg = _pres({"circ": rightcomm_only_op()})
    assert check_identity(alg, "NOV_RIGHTCOMM").passed
    left = check_identity(alg, "NOV_LEFTSYM")
    assert not left.passed
    assert left.counterexample.indices == (1, 2, 2)
    nctpa = check_identity(alg, "NCTPA")
    assert not nctpa.passed


# ---------------------------------------------------------------------------
# Multilinearity spot-check: identity_residual at random vectors must vanish
# whenever the basis-tuple check passes.
# ---------------------------------------------------------------------------

vec2 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=2
)


@given(vec2, vec2, vec2)
@settings(max_examples=20)
def test_multilinearity_spot_check(x, y, z):
    alg = np_pair(catalog_dots()["A01"], circ_family(F(1), F(2)))
    for clause, res in identity_residual(alg, "NP1", [x, y, z]):
        assert all(c == 0 for c in res), clause
    for clause, res in identity_residual(alg, "NCTPA", [x, y, z]):
        assert all(c == 0 for c in res), clause


@st.composite
def algebra_and_vectors(draw):
    """Random dot, circ and bracket over Q or Q(i), dims 2-4, and five
    random argument vectors.  Denominators run over 1-6, so the ops have
    different lcms of their denominators."""
    dim = draw(st.integers(2, 4))
    ring = draw(st.sampled_from([QQ, QI]))
    rnd = draw(st.randoms(use_true_random=False))

    def rational(sparse):
        if sparse and rnd.random() < 0.5:
            return F(0)
        return F(rnd.randint(-3, 3), rnd.randint(1, 6))

    def scalar(sparse=False):
        re = rational(sparse)
        return re if ring is QQ else GaussianRational(re, rational(True))

    def op():
        return BilinearOp(
            ring,
            tuple(
                tuple(tuple(scalar(sparse=True) for _ in range(dim)) for _ in range(dim))
                for _ in range(dim)
            ),
        )

    alg = _pres({"dot": op(), "circ": op(), "bracket": op()}, dim, ring)
    return alg, [[scalar() for _ in range(dim)] for _ in range(5)]


@given(algebra_and_vectors())
@settings(max_examples=30, deadline=None)
def test_identity_residual_matches_reference(case):
    alg, vectors = case
    assert sorted(REFERENCE) == identity_names()
    for name, reference in REFERENCE.items():
        got = identity_residual(alg, name, vectors)
        assert [clause for clause, _ in got] == [clause for clause, _, _ in reference]
        for (clause, res), (_, arity, fn) in zip(got, reference):
            expected = fn(alg.ops, tuple(vectors[:arity]))
            assert res == expected, (name, clause)
            assert [type(x) for x in res] == [type(x) for x in expected], (name, clause)
        report = check_identity(alg, name)
        if all(arity <= 3 for _, arity, _ in reference):
            _assert_same_first_failure(report, _first_failure(alg, reference))
        elif not report.passed:  # the basis-tuple scan agrees at its counterexample
            ce = report.counterexample
            fn = next(fn for clause, _, fn in reference if clause == ce.clause)
            args = tuple(_basis_vector(alg.dim, i - 1, alg.ring) for i in ce.indices)
            assert tuple(fn(alg.ops, args)) == ce.residual, name


# ---------------------------------------------------------------------------
# The per-tuple scan: each basis tuple evaluated on its own, proper subtrees
# memoized per scan.  The engine reads every value of the last index at one
# prefix in one pass; both must report the same failures, in the same order,
# with the same residual values and entry types.
# ---------------------------------------------------------------------------


def _evaluate_at(ops, tree, args, memo, t):
    """Value of an operation tree on the basis tuple t (args[v] is e_t[v]).
    The memo maps each proper subtree to its variables, in leaf order, and
    a dict from their indices in t to its value."""
    if isinstance(tree, int):
        return args[tree]
    values = []
    for sub in tree[1:]:
        if isinstance(sub, int):
            values.append(args[sub])
            continue
        variables, cache = memo[sub]
        key = tuple(t[v] for v in variables)
        if key not in cache:
            cache[key] = _evaluate_at(ops, sub, args, memo, t)
        values.append(cache[key])
    return ops[tree[0]].apply(*values)


def _tree_reader(ops, clause, basis):
    """Residual at a basis tuple; subtrees of one shape share their values."""
    shared = {}
    memo = {
        sub: (_leaves(sub), shared.setdefault(_shape(sub), {}))
        for _, tree in clause.terms
        for sub in _nodes(tree)[1:]
    }

    def residual_at(t):
        args = [basis[i] for i in t]
        return _signed_sum((c, _evaluate_at(ops, tree, args, memo, t)) for c, tree in clause.terms)

    return residual_at


def _subset_matrix(table, s):
    """A(s) = sum_i (-1)^i ad(s_i) A(s - s_i) for a sorted index tuple s,
    memoized in ``table``, which starts with ad(a) under (a,)."""
    if s not in table:
        products = [
            matmul(table[(a,)], _subset_matrix(table, s[:i] + s[i + 1 :])) for i, a in enumerate(s)
        ]
        mat = products[0]
        for i, prod in enumerate(products[1:], 1):
            mat = [(vsub if i % 2 else vadd)(ra, rb) for ra, rb in zip(mat, prod)]
        table[s] = mat
    return table[s]


def _alternating_reader(ops, clause, basis):
    """Residual at a basis tuple, read off a table of alternating products
    over sorted index subsets S, where ad(a) is the matrix of op(e_a, -):
    A(S) e_last is the clause at the sorted tuple; a repeated index gives
    zero, a permuted tuple the permutation's sign."""
    op = ops[clause.terms[0][1][0]]
    n = op.dim
    table = {(a,): [[op.c[a][j][k] for j in range(n)] for k in range(n)] for a in range(n)}

    def residual_at(t):
        head = t[:-1]
        if len(set(head)) < len(head):
            return ()  # the zero vector
        col = [row[t[-1]] for row in _subset_matrix(table, tuple(sorted(head)))]
        return col if _sign(head) > 0 else [-x for x in col]

    return residual_at


def reference_failures(alg, clause):
    """``clause_failures`` one basis tuple at a time, on the ring's own
    scalars."""
    basis = [_basis_vector(alg.dim, i, alg.ring) for i in range(alg.dim)]
    reader = _alternating_reader if clause.alternating else _tree_reader
    residual_at = reader(alg.ops, clause, basis)
    for t in itertools.product(range(alg.dim), repeat=clause.arity):
        res = residual_at(t)
        if not is_zero_vector(res):
            yield clause.name, t, res


SCAN_CLAUSES = {
    # S5 as its 24 signed chains: subtrees that hold the last variable
    # three levels deep
    "S5_CHAINS": (Clause("s5-chains", 5, IDENTITIES["S5"][0].signed_terms()),),
    # the last variable inside the left factor, and a product of products
    "MIXED4": (
        Clause("mixed-4", 4, (
            (1, ("circ", ("dot", ("bracket", 3, 0), 1), 2)),
            (-2, ("dot", ("circ", 0, 2), ("bracket", 1, 3))),
        )),
    ),
    **IDENTITIES,
}


def _random_ops(rnd, ring, base, dim, density, top=3, den=6):
    """dot, circ and bracket with random entries, each nonzero with
    probability ``density``, over ``ring``, whose numbers lie in ``base``
    (rationals with |numerator| <= top and denominator <= den, for both
    parts of a Gaussian one)."""

    def rational():
        return F(rnd.randint(-top, top), rnd.randint(1, den))

    def number():
        return rational() if base is QQ else GaussianRational(rational(), rational())

    def scalar():
        if rnd.random() >= density:
            return ring.zero()
        if isinstance(ring, PolynomialRing):  # affine in the parameters
            linear = (ring.var(v) * number() for v in ring.variables if rnd.random() < density)
            return sum(linear, ring.coerce(number()))
        if isinstance(ring, SeriesRing):
            return TruncSeries(ring.order, [number() for _ in range(ring.order)])
        return number()

    return {
        label: BilinearOp(
            ring,
            tuple(tuple(tuple(scalar() for _ in range(dim)) for _ in range(dim)) for _ in range(dim)),
        )
        for label in ("dot", "circ", "bracket")
    }


@st.composite
def scan_cases(draw):
    """A catalog identity (or one of the extra clauses) and a random
    algebra over Q, Q(i), polynomials or truncated series.  The ops are
    drawn with no relation between them, so most clauses fail at many
    tuples; dimensions are capped so that n^arity stays in the hundreds."""
    name = draw(st.sampled_from(sorted(SCAN_CLAUSES)))
    base = draw(st.sampled_from([QQ, QI]))
    ring = draw(
        st.sampled_from([base, PolynomialRing(base, ("a",)), SeriesRing(base, 2)])
    )
    # Q and Q(i) are scanned on plain packed integers; series and
    # polynomial products cost far more
    field = ring is base
    if name == "S5":  # it fails only where four head indices differ
        dim = draw(st.integers(4, 5 if field else 4))
    else:
        arity = max(clause.arity for clause in SCAN_CLAUSES[name])
        caps = {2: 5, 3: 5, 4: 3, 5: 3} if field else {2: 4, 3: 3, 4: 2, 5: 2}
        dim = draw(st.integers(2, caps[arity]))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    return name, _pres(_random_ops(rnd, ring, base, dim, density), dim, ring)


def _assert_scans_agree(name, alg):
    """Both scans give the same failures of every clause of ``name``, in
    the same order, with the same residual values, reprs and entry types,
    and ``check_identity`` reports the first; returns how many there are."""
    failures = []
    for clause in SCAN_CLAUSES[name]:
        got = list(clause_failures(alg, clause))
        expected = list(reference_failures(alg, clause))
        assert got == expected, clause.name
        assert repr(got) == repr(expected), clause.name
        types = [[type(x) for x in res] for _, _, res in got]
        assert types == [[type(x) for x in res] for _, _, res in expected], clause.name
        failures += expected
    if name in IDENTITIES:
        assert check_identity(alg, name) == failure_report(name, next(iter(failures), None))
    return len(failures)


@given(scan_cases())
@settings(max_examples=30, deadline=None)
def test_slab_scan_matches_per_tuple_scan(case):
    _assert_scans_agree(*case)


@st.composite
def series_scan_cases(draw):
    """A catalog identity (or one of the extra clauses) and a random
    algebra over Q[h]/(h^N), N = 1..6, with numerators up to 10^30 and
    denominators up to 10^9: the scan runs on packed integers."""
    name = draw(st.sampled_from(sorted(SCAN_CLAUSES)))
    ring = SeriesRing(QQ, draw(st.integers(1, 6)))
    if name == "S5":
        dim = 4
    else:
        arity = max(clause.arity for clause in SCAN_CLAUSES[name])
        dim = draw(st.integers(2, {2: 4, 3: 3, 4: 2, 5: 2}[arity]))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    top = draw(st.sampled_from([3, 10**30]))
    den = draw(st.sampled_from([1, 10**9]))
    rnd = draw(st.randoms(use_true_random=False))
    return name, _pres(_random_ops(rnd, ring, QQ, dim, density, top, den), dim, ring)


@given(series_scan_cases())
@settings(max_examples=40, deadline=None)
def test_packed_series_scan_matches_per_tuple_scan(case):
    _assert_scans_agree(*case)


@st.composite
def gaussian_algebras(draw, name):
    """A random algebra over Q(i) for the clauses of ``name``, with real
    and imaginary numerators up to 10^30 and denominators up to 10^9: the
    scan runs on packed integers, folded mod 2^(2B) + 1."""
    if name == "S5":
        dim = 4
    else:
        arity = max(clause.arity for clause in SCAN_CLAUSES[name])
        dim = draw(st.integers(2, {2: 5, 3: 4, 4: 3, 5: 2}[arity]))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    top = draw(st.sampled_from([3, 10**30]))
    den = draw(st.sampled_from([1, 10**9]))
    rnd = draw(st.randoms(use_true_random=False))
    return _pres(_random_ops(rnd, QI, QI, dim, density, top, den), dim, QI)


@pytest.mark.parametrize("name", sorted(SCAN_CLAUSES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_packed_gaussian_scan_matches_per_tuple_scan(name, data):
    alg = data.draw(gaussian_algebras(name))
    assert all(_entries(alg, clause)[2] is not None for clause in SCAN_CLAUSES[name])
    _assert_scans_agree(name, alg)


def test_gaussian_packing_fills_its_digits():
    """With every bracket entry q = A (1 + i), each Jacobi residual entry
    is 3 n q^2 = 6 n A^2 i.  Its imaginary part is half the bound 3 n (2A)^2,
    the most a product of two entries with parts at most A can give
    (|q1 q2| <= 2 A^2), so it fills its digit to within two bits: the one
    that B keeps above the bound and the factor 2 that the fold bound gives
    away."""
    n, big = 3, 10**30
    q = GaussianRational(F(big), F(big))
    alg = _pres({"bracket": BilinearOp(QI, (((q,) * n,) * n,) * n)}, n, QI)
    clause = IDENTITIES["LIE"][1]
    packing = _entries(alg, clause)[2]
    assert packing.modulus == (1 << 2 * packing.bits) + 1
    assert 1 << packing.bits - 3 <= 6 * n * big**2 < 1 << packing.bits - 2
    assert _assert_scans_agree("LIE", alg) == n**2 + n**3
    *_, (_, _, residual) = clause_failures(alg, clause)
    assert residual == [GaussianRational(F(0), F(6 * n * big**2))] * n
    # the conjugate entries give the negative digit -6 n A^2
    q = GaussianRational(F(big), F(-big))
    alg = _pres({"bracket": BilinearOp(QI, (((q,) * n,) * n,) * n)}, n, QI)
    assert _assert_scans_agree("LIE", alg) == n**2 + n**3
    *_, (_, _, residual) = clause_failures(alg, clause)
    assert residual == [GaussianRational(F(0), F(-6 * n * big**2))] * n


@pytest.mark.parametrize("order", [None, 4, 6], ids=["Q", "series4", "series6"])
def test_rational_and_series_packing_fill_their_digits(order):
    """With every bracket entry q = A (1 + h + ... + h^(N-1)), or q = A
    over plain Q (N = 1), each Jacobi residual entry is 3 n q^2, whose
    coefficient of h^(N-1) is 3 n N A^2: the bound itself, three terms of
    n products of two entries, each with N products of coefficients at
    most A at h^(N-1).  So it fills its digit to within the one bit that B
    keeps above the bound.  With q = A (1 - h + h^2 - ...) that coefficient
    is (-1)^(N-1) 3 n N A^2, a negative digit for even N."""
    n, big = 3, 10**30
    ring, N = (QQ, 1) if order is None else (SeriesRing(QQ, order), order)
    clause = IDENTITIES["LIE"][1]
    for sign in (1,) if order is None else (1, -1):
        q = F(big) if order is None else TruncSeries(N, tuple(F(sign**t * big) for t in range(N)))
        alg = _pres({"bracket": BilinearOp(ring, (((q,) * n,) * n,) * n)}, n, ring)
        packing = _entries(alg, clause)[2]
        assert packing.modulus == 1 << packing.bits * N
        assert 1 << packing.bits - 2 <= 3 * n * N * big**2 < 1 << packing.bits - 1
        assert _assert_scans_agree("LIE", alg) == n**2 + n**3
        *_, (_, _, residual) = clause_failures(alg, clause)
        assert residual == [3 * n * q * q] * n
        top = residual[0] if order is None else residual[0].coeffs[-1]
        assert top == (1 if order is None else sign ** (N - 1)) * 3 * n * N * big**2


def test_gaussian_packing_gate():
    """Only ops over Q(i) whose entries are all GaussianRationals are
    packed; a Fraction or int entry, series over Q(i) and polynomials over
    Q(i) are scanned on their own entries, and both scans agree on all of
    them."""
    rnd = random.Random(7)
    ops = _random_ops(rnd, QI, QI, 3, 0.7)
    packing = _entries(_pres(ops, 3, QI), IDENTITIES["NP2"][0])[2]
    assert packing.ring is QI and packing.modulus == (1 << 2 * packing.bits) + 1

    def with_circ_entry(x):
        """The ops with x as the e3-coordinate of e1 o e2."""
        c = [[list(col) for col in row] for row in ops["circ"].c]
        c[0][1][2] = x
        circ = BilinearOp(QI, tuple(tuple(map(tuple, row)) for row in c))
        return _pres({**ops, "circ": circ}, 3, QI)

    series, poly = SeriesRing(QI, 2), PolynomialRing(QI, ("a",))
    for name, alg in (
        ("NOV_LEFTSYM", with_circ_entry(F(2, 3))),
        ("NP1", with_circ_entry(F(-1))),
        ("NCTPA", with_circ_entry(5)),
        ("NOV_RIGHTCOMM", _pres(_random_ops(rnd, series, QI, 3, 0.7), 3, series)),
        ("LIE", _pres(_random_ops(rnd, poly, QI, 3, 0.7), 3, poly)),
        ("MIXED4", _pres(_random_ops(rnd, poly, QI, 2, 0.7), 2, poly)),
    ):
        assert all(_entries(alg, clause)[2] is None for clause in SCAN_CLAUSES[name]), name
        assert _assert_scans_agree(name, alg), name


# the clauses of at most two ops per term, which are scanned on packed
# integers over Q[p1..pm]
AFFINE_CLAUSES = sorted(
    name for name, clauses in SCAN_CLAUSES.items() if max(sum(c.degrees) for c in clauses) <= 2
)


@st.composite
def affine_scan_cases(draw):
    """A catalog identity of at most two ops per term (NP1 and NP2 among
    them) and random ops whose entries are affine in 1..10 parameters over
    Q, with numerators up to 10^30 and denominators up to 10^9: the scan
    runs on packed integers, whose residuals read back to polynomials of
    degree 2."""
    name = draw(st.sampled_from(AFFINE_CLAUSES))
    ring = PolynomialRing(QQ, tuple(f"p{t + 1}" for t in range(draw(st.integers(1, 10)))))
    arity = max(clause.arity for clause in SCAN_CLAUSES[name])
    dim = draw(st.integers(2, {2: 4, 3: 3}[arity]))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    top = draw(st.sampled_from([3, 10**30]))
    den = draw(st.sampled_from([1, 10**9]))
    rnd = draw(st.randoms(use_true_random=False))
    return name, _pres(_random_ops(rnd, ring, QQ, dim, density, top, den), dim, ring)


@given(affine_scan_cases())
@settings(max_examples=40, deadline=None)
def test_packed_affine_scan_matches_per_tuple_scan(case):
    name, alg = case
    assert all(_entries(alg, clause)[2] is not None for clause in SCAN_CLAUSES[name])
    _assert_scans_agree(name, alg)


def test_affine_packing_fills_its_digits():
    """With every bracket entry q = A (1 + p1 + ... + p4), each Jacobi
    residual entry is 3 n q^2, whose coefficient of p_s p_t (s != t) is
    6 n A^2: the digit bound itself."""
    n, ring = 3, PolynomialRing(QQ, ("p1", "p2", "p3", "p4"))
    q = sum(map(ring.var, ring.variables), ring.one()) * F(10**30)
    alg = _pres({"bracket": BilinearOp(ring, (((q,) * n,) * n,) * n)}, n, ring)
    assert _assert_scans_agree("LIE", alg) == n**2 + n**3
    *_, (_, _, residual) = clause_failures(alg, IDENTITIES["LIE"][1])
    assert residual == [3 * n * q * q] * n


def test_affine_packing_gate():
    """Only entries affine in the ring's parameters with Fraction
    coefficients, over Q, in a clause of at most two ops per term, are
    packed; every other input is scanned on its own entries, and both scans
    agree on all of them."""
    rnd = random.Random(3)
    variables = ("p1", "p2", "p3")
    ring, qi = PolynomialRing(QQ, variables), PolynomialRing(QI, variables)
    ops = _random_ops(rnd, ring, QQ, 3, 0.7)
    packing = _entries(_pres(ops, 3, ring), IDENTITIES["NP2"][0])[2]
    assert packing.ring is ring and packing.positions == [0, 1, 3, 7]

    def with_circ_entry(x):
        """The ops with x as the e3-coordinate of e1 o e2."""
        c = [[list(col) for col in row] for row in ops["circ"].c]
        c[0][1][2] = x
        circ = BilinearOp(ring, tuple(tuple(map(tuple, row)) for row in c))
        return _pres({**ops, "circ": circ}, 3, ring)

    square = with_circ_entry(ring.var("p1") ** 2 - ring.var("p3"))
    integer = with_circ_entry(ParamPoly(ring, {(): 1, ((1, 1),): -2}))
    for name, alg in (
        ("NOV_RIGHTCOMM", square),
        ("NP1", square),
        ("NOV_RIGHTCOMM", integer),
        ("NP1", _pres(_random_ops(rnd, qi, QI, 3, 0.7), 3, qi)),
        ("MIXED4", _pres(_random_ops(rnd, ring, QQ, 2, 0.7), 2, ring)),
        ("S5", _pres(_random_ops(rnd, ring, QQ, 4, 0.3), 4, ring)),
    ):
        assert all(_entries(alg, clause)[2] is None for clause in SCAN_CLAUSES[name]), name
        assert _assert_scans_agree(name, alg), name


@pytest.mark.parametrize("base", [QQ, QI], ids=["Q", "Qi"])
def test_slab_scan_matches_on_dense_s5_failures(base):
    """A dense random bracket fails S5 at heads of both signs."""
    alg = _pres(_random_ops(random.Random(5), base, base, 5, 1.0), 5, base)
    assert _assert_scans_agree("S5", alg) > 500


# presentations with all three ops, one per way the scan reads entries:
# packed over Q, Q(i), series over Q and affine families, and on the
# ring's own entries for a Q(i) op with Fraction entries, for polynomials
# over Q(i), and for the clauses that use an op over Q with int entries
CACHE_CASES = {
    "Q": (QQ, QQ),
    "Qi": (QI, QI),
    "series": (SeriesRing(QQ, 3), QQ),
    "affine": (PolynomialRing(QQ, ("a", "b")), QQ),
    "Qi-Fraction": (QI, QQ),
    "poly-Qi": (PolynomialRing(QI, ("a",)), QI),
    "Q-int-circ": (QQ, QQ),
}


@pytest.mark.parametrize("case", sorted(CACHE_CASES))
def test_cache_state_changes_no_failure(case):
    """Every catalog identity gives the same failures, reprs included,
    whether the scan's cache starts empty or holds what earlier checks of
    the same presentation built, in catalog order or reversed."""
    ring, base = CACHE_CASES[case]
    ops = _random_ops(random.Random(11), ring, base, 4, 0.7)
    if case == "Q-int-circ":  # clauses with circ run on Fractions, the others packed
        ops["circ"] = ops["circ"].map_entries(lambda x: int(60 * x))
    alg = _pres(ops, 4, ring)
    if case in ("Qi-Fraction", "Q-int-circ"):
        assert _entries(alg, IDENTITIES["NP2"][0])[2] is None
    cold = {}
    for name in IDENTITIES:
        _cache.clear()
        cold[name] = repr(list(identity_failures(alg, name)))
    assert sum(text != "[]" for text in cold.values()) > 5
    for names in (list(IDENTITIES), list(reversed(IDENTITIES))):
        _cache.clear()
        assert {name: repr(list(identity_failures(alg, name))) for name in names} == cold


def test_cache_is_bounded():
    """Checks of more presentations than the cap leave at most the cap of
    entries, and the first presentation's ops are no longer held."""
    rnd = random.Random(2)
    first = None
    for _ in range(_CACHE_CAP + 1):
        alg = _pres(_random_ops(rnd, QI, QI, 2, 0.7), 2, QI)
        first = first or list(alg.ops.values())
        for name in IDENTITIES:
            check_identity(alg, name)
        assert len(_cache) <= _CACHE_CAP
    assert len(_cache) == _CACHE_CAP
    held = [owner for owners, _ in _cache.values() for owner in owners]
    assert not any(owner is op for owner in held for op in first)


def test_cache_keeps_the_catalog_plans(monkeypatch):
    """The catalog's clause plans are read by every check, so scans of more
    presentations than the cap build each plan once and keep all of them;
    each build is one ``Clause.signed_terms`` call."""
    builds = []
    signed_terms = Clause.signed_terms

    def counted(clause):
        builds.append(clause)
        return signed_terms(clause)

    monkeypatch.setattr(Clause, "signed_terms", counted)
    _cache.clear()
    rnd = random.Random(8)
    for _ in range(_CACHE_CAP + 1):
        alg = _pres(_random_ops(rnd, QQ, QQ, 4, 0.7), 4, QQ)
        for name in IDENTITIES:
            list(identity_failures(alg, name))
    catalog = [clause for clauses in IDENTITIES.values() for clause in clauses]
    assert len(catalog) == 11
    assert sorted(map(id, builds)) == sorted(map(id, catalog))
    assert all(("plan", id(clause), None) in _cache for clause in catalog)


def test_vacuous_s5_builds_nothing():
    """Below dimension four no head of S5 has distinct indices: the scan
    yields nothing and builds nothing."""
    _cache.clear()
    alg = _pres(_random_ops(random.Random(6), QQ, QQ, 3, 1.0), 3, QQ)
    assert list(clause_failures(alg, IDENTITIES["S5"][0])) == []
    assert _cache == {}


def test_checks_leave_their_records_as_they_were():
    """The cache shows in no op or presentation: repr, ==, hash and a
    pickle round trip are the same after every catalog check."""
    alg = _pres(_random_ops(random.Random(4), QI, QI, 3, 0.7), 3, QI)
    records = [alg, *alg.ops.values()]
    copies = [pickle.loads(pickle.dumps(x)) for x in records]

    def state():
        return [(repr(x), hash(x), pickle.dumps(x)) for x in records]

    before = state()
    for name in IDENTITIES:
        check_identity(alg, name)
    assert state() == before
    assert [repr(pickle.loads(pickle.dumps(x))) for x in records] == [repr(x) for x in copies]
    assert records[1:] == copies[1:]  # ops compare by value, presentations by identity


def test_catalog_refuses_malformed_clauses():
    for clauses in IDENTITIES.values():
        for clause in clauses:
            Clause(clause.name, clause.arity, clause.terms, clause.alternating)
    with pytest.raises(ValueError, match="multilinear"):  # x twice, z never
        Clause("bad", 3, ((1, ("dot", ("dot", 0, 0), 1)),))
    with pytest.raises(ValueError, match="multilinear"):  # arity 3, two variables
        Clause("bad", 3, ((1, ("dot", 0, 1)),))
    with pytest.raises(ValueError, match="unknown operation"):
        Clause("bad", 2, ((1, ("cup", 0, 1)),))
    with pytest.raises(ValueError, match="bare variable"):
        Clause("bad", 1, ((1, 0),))
    with pytest.raises(ValueError, match="how often"):  # not multi-homogeneous
        Clause("bad", 2, ((1, ("dot", 0, 1)), (-1, ("bracket", 0, 1))))
    with pytest.raises(ValueError, match="right-nested"):  # left-nested chain
        Clause("bad", 3, ((1, ("bracket", ("bracket", 0, 1), 2)),), alternating=True)
    with pytest.raises(ValueError, match="right-nested"):  # two operations
        Clause("bad", 3, ((1, ("bracket", 0, ("dot", 1, 2))),), alternating=True)
    with pytest.raises(ValueError, match="right-nested"):  # variables out of order
        Clause("bad", 3, ((1, ("bracket", 1, ("bracket", 0, 2))),), alternating=True)
    with pytest.raises(ValueError, match="right-nested"):  # two terms
        chain = ("bracket", 0, ("bracket", 1, 2))
        Clause("bad", 3, ((1, chain), (1, chain)), alternating=True)
    Clause("ok", 3, ((1, ("circ", 0, ("circ", 1, 2))),), alternating=True)


# ---------------------------------------------------------------------------
# Derivation products
# ---------------------------------------------------------------------------


def test_euler_gelfand_products_frozen():
    """On Q[t]/(t^4): t^i o t^j = j t^{i+j}, bracket (j-i) t^{i+j}."""
    alg = euler_gelfand(4, QQ)
    circ = alg.op("circ")
    bracket = alg.op("bracket")
    for i in range(4):
        for j in range(4):
            col = circ.col(i, j)
            expect = [F(0)] * 4
            if i + j < 4:
                expect[i + j] = F(j)
            assert col == expect, (i, j)
            bcol = bracket.col(i, j)
            bexpect = [F(0)] * 4
            if i + j < 4:
                bexpect[i + j] = F(j - i)
            assert bcol == bexpect, (i, j)


def test_euler_gelfand_is_novikov():
    for n in range(2, 7):
        alg = euler_gelfand(n, QQ)
        assert check_identity(alg, "NOV_LEFTSYM").passed, n
        assert check_identity(alg, "NOV_RIGHTCOMM").passed, n
        assert check_identity(alg, "COMM_ASSOC").passed, n


def test_gelfand_construct_rejects_bad_inputs():
    dot = truncated_poly_dot(3, QQ)
    bad_dot = BilinearOp.from_entries(3, QQ, {(0, 1, 2): F(1)})
    deriv = euler_derivation(3, QQ)
    with pytest.raises(NotCommAssoc):
        gelfand_construct(bad_dot, deriv)
    not_deriv = LinearMap(QQ, ((F(1), F(1), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))))
    with pytest.raises(NotDerivation):
        gelfand_construct(dot, not_deriv)


def test_is_derivation():
    dot = truncated_poly_dot(3, QQ)
    assert is_derivation(dot, euler_derivation(3, QQ)).passed
    bad = LinearMap(QQ, ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0))))
    rep = is_derivation(dot, bad)
    assert not rep.passed and rep.counterexample.clause == "leibniz"


def rows_at(rows, vec, zero):
    """Each dict row's value at the vector ``vec``."""
    return [sum((x * vec[c] for c, x in row.items()), zero) for row in rows]


@st.composite
def derivation_cases(draw):
    """A product over Q or Q(i) and a linear map, drawn so that both
    outcomes of the Leibniz check occur: the Euler derivation and its
    multiples on K[t]/(t^n), inner derivations ad_e_k of the Euler bracket,
    and these with one entry changed, against random products and maps."""
    ring = draw(st.sampled_from((QQ, QI)))
    n = draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    small = st.sampled_from((F(1), F(-1), F(2), F(1, 2), F(-3, 2)))
    scalar = small.map(ring.coerce) if ring is QQ else st.builds(GaussianRational, small, small)
    kind = draw(st.sampled_from(("euler", "inner", "random")))
    if kind == "euler":
        dot = truncated_poly_dot(n, ring)
        m = [[draw(scalar) * x for x in row] for row in euler_derivation(n, ring).m]
    elif kind == "inner":
        dot = euler_gelfand(n, ring).op("bracket")
        k = draw(st.integers(0, n - 1))
        m = [[dot.c[k][j][l] for j in range(n)] for l in range(n)]
    else:
        dot = _random_ops(rnd, ring, ring, n, draw(st.sampled_from((0.3, 0.7))))["dot"]
        m = [[ring.zero()] * n for _ in range(n)]
    if kind == "random" or draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = m[i][j] + draw(scalar)
    return dot, LinearMap(ring, tuple(tuple(row) for row in m))


@given(derivation_cases())
@settings(max_examples=80, deadline=None)
def test_derivation_rows_vanish_exactly_on_derivations(case):
    """The weight-1 rows at vec(D) are zero exactly when is_derivation
    passes; otherwise the first pair with a nonzero row is the check's
    counterexample, and its n rows are the check's residual."""
    dot, deriv = case
    n = dot.dim
    rows = derivation_rows(dot, 1)
    assert len(rows) == n**3
    assert all(0 <= c < n * n for row in rows for c in row)
    values = rows_at(rows, [deriv.m[i][j] for i in range(n) for j in range(n)], dot.ring.zero())
    rep = is_derivation(dot, deriv)
    assert rep.passed == all(x == 0 for x in values)
    if not rep.passed:
        pair = next(t for t, x in enumerate(values) if x != 0) // n
        assert rep.counterexample.indices == (pair // n + 1, pair % n + 1)
        assert tuple(values[pair * n : (pair + 1) * n]) == rep.counterexample.residual


@pytest.mark.parametrize("ring", [QQ, QI])
def test_identity_map_is_a_half_derivation(ring):
    """At vec(I) a row of weight w reads (w - 2) (e_p * e_q)_l, so the
    identity map satisfies the weight-2 rows of every product."""
    rnd = random.Random(3)
    for n in (1, 2, 3, 4):
        dot = _random_ops(rnd, ring, ring, n, 0.7)["dot"]
        ident = [ring.one() if i == j else ring.zero() for i in range(n) for j in range(n)]
        fibres = [x for p in range(n) for q in range(n) for x in dot.c[p][q]]
        for weight in (1, 2):
            values = rows_at(derivation_rows(dot, weight), ident, ring.zero())
            assert values == [(weight - 2) * x for x in fibres]


def test_derivation_bracket_matches_commutator():
    dot = truncated_poly_dot(4, QQ)
    deriv = euler_derivation(4, QQ)
    circ = gelfand_construct(dot, deriv)
    assert derivation_bracket(dot, deriv).entries_equal(commutator(circ))


# ---------------------------------------------------------------------------
# The d/dt bracket on bounded-degree polynomials, and the closed span
# ---------------------------------------------------------------------------


def test_bounded_ddt_bracket_strict():
    # [t^p, t^q] = (q-p) t^{p+q-1}; degree overflow only happens with both
    # degrees high, and strict mode refuses to truncate it silently
    br = bounded_ddt_bracket(3, QQ, strict=False)
    col = br.col(1, 2)  # [t, t^2] = t^2
    assert col == [F(0), F(0), F(1), F(0)]
    with pytest.raises(OutOfRange):
        bounded_ddt_bracket(3, QQ, strict=True)


def test_sl2_span_closed():
    """{1, 2t, -t^2} under [f,g] = f g' - g f' has the constants
    [2t, -t^2] = -2 t^2, [2t, 1] = -2, [-t^2, 1] = 2t."""
    br = bounded_ddt_bracket(4, QQ, strict=False)
    alg = AlgebraPresentation(
        5, QQ, ("1", "t", "t2", "t3", "t4"), {"bracket": br}
    )
    f1 = [F(1), F(0), F(0), F(0), F(0)]
    f2 = [F(0), F(2), F(0), F(0), F(0)]
    f3 = [F(0), F(0), F(-1), F(0), F(0)]
    result = subalgebra_check(alg, [f1, f2, f3])
    assert result.closed
    ind = result.induced.op("bracket")
    # induced columns are coordinates in the span basis f1, f2, f3
    assert ind.col(1, 2) == [F(0), F(0), F(2)]  # [2t, -t2] = -2t2 = 2 f3
    assert ind.col(1, 0) == [F(-2), F(0), F(0)]  # [2t, 1] = -2 = -2 f1
    assert ind.col(2, 0) == [F(0), F(1), F(0)]  # [-t2, 1] = 2t = f2


def test_subalgebra_dependent_span():
    br = bounded_ddt_bracket(3, QQ, strict=False)
    alg = AlgebraPresentation(4, QQ, ("1", "t", "t2", "t3"), {"bracket": br})
    v = [F(1), F(0), F(0), F(0)]
    with pytest.raises(DependentSpan):
        subalgebra_check(alg, [v, [F(2), F(0), F(0), F(0)]])


def test_subalgebra_not_closed():
    br = bounded_ddt_bracket(3, QQ, strict=False)
    alg = AlgebraPresentation(4, QQ, ("1", "t", "t2", "t3"), {"bracket": br})
    # span {1, t^3}: [t^3, 1] = -3t^2 leaves the span
    result = subalgebra_check(alg, [[F(1), F(0), F(0), F(0)], [F(0), F(0), F(0), F(1)]])
    assert not result.closed
    assert result.failing[0] == "bracket"


# ---------------------------------------------------------------------------
# S5: the slab scan against a direct 24-term evaluation
# ---------------------------------------------------------------------------


def test_s5_euler_dim5():
    alg = euler_gelfand(5, QQ)
    assert check_identity(alg, "S5").passed


def _sl2_semidirect_v2():
    """sl2 acting on its 2-dim module: e1=e, e2=f, e3=h, e4=v1, e5=v2."""
    ent = {}

    def setbr(i, j, vec):
        for k, c in vec.items():
            ent[(i, j, k)] = F(c)
            ent[(j, i, k)] = -F(c)

    setbr(0, 1, {2: 1})
    setbr(2, 0, {0: 2})
    setbr(2, 1, {1: -2})
    setbr(0, 4, {3: 1})
    setbr(1, 3, {4: 1})
    setbr(2, 3, {3: 1})
    setbr(2, 4, {4: -1})
    br = BilinearOp.from_entries(5, QQ, ent)
    return AlgebraPresentation(5, QQ, default_labels(5), {"bracket": br})


def test_s5_vacuous_below_dim_four():
    # the residual alternates over the first four arguments, so with only
    # three basis vectors every basis residual vanishes: sl2 passes
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
    alg = AlgebraPresentation(3, QQ, default_labels(3), {"bracket": sl2})
    assert check_identity(alg, "LIE").passed
    assert check_identity(alg, "S5").passed


def test_s5_catches_sl2_semidirect_v2():
    alg = _sl2_semidirect_v2()
    assert check_identity(alg, "LIE").passed
    report = check_identity(alg, "S5")
    assert not report.passed
    ce = report.counterexample
    assert ce.clause == "alternating-quintuple"
    # lexicographically first violating quintuple, frozen from a direct
    # 24-term evaluation (test below re-derives it)
    assert ce.indices == (1, 2, 3, 4, 2)
    assert tuple(ce.residual) == (F(0), F(0), F(0), F(0), F(5))


@pytest.mark.parametrize("ring, entry", [(QQ, int), (QI, F)], ids=["Q-int", "Qi-Fraction"])
def test_s5_residuals_carry_the_ring_type(ring, entry):
    """On an op whose entries are not of its ring's type (all int over Q,
    all Fraction over Q(i)), S5 residuals carry the ring's type, as every
    other clause's do, and equal ``identity_residual`` at their tuple."""
    sl2_v2 = _sl2_semidirect_v2()
    bracket = sl2_v2.ops["bracket"].map_entries(entry, ring)
    assert {type(x) for row in bracket.c for col in row for x in col} == {entry}
    alg = AlgebraPresentation(5, ring, sl2_v2.basis_labels, {"bracket": bracket})
    failures = list(clause_failures(alg, IDENTITIES["S5"][0]))
    assert failures[0][1] == (0, 1, 2, 3, 1) and len(failures) > 20
    for _, t, res in failures:
        args = [_basis_vector(5, i, ring) for i in t]
        assert res == identity_residual(alg, "S5", args)[0][1], t
        assert {type(x) for x in res} == {type(ring.zero())}, t
    assert check_identity(alg, "S5") == failure_report("S5", failures[0])


def test_s5_agrees_with_direct_scan():
    """The memoized path and a direct 24-term evaluation agree, residual,
    its entry types and first counterexample included.  Scaling the sl2
    bracket by 2/3 makes the integer scan scale its residual back by 3^4."""
    sl2_v2 = _sl2_semidirect_v2()
    scaled = sl2_v2.ops["bracket"].map_entries(lambda x: x * F(2, 3))
    for alg in (
        AlgebraPresentation(
            3, QQ, ("1", "t", "t2"), {"bracket": bounded_ddt_bracket(2, QQ)}
        ),
        sl2_v2,
        AlgebraPresentation(5, QQ, sl2_v2.basis_labels, {"bracket": scaled}),
    ):
        _assert_same_first_failure(check_identity(alg, "S5"), _first_failure(alg, REFERENCE["S5"]))


def _sl2_v2_inside(dim, indices, ring=QQ):
    """The bracket of ``_sl2_semidirect_v2`` on the basis vectors at
    ``indices`` (0-based) of a ``dim``-dimensional algebra over ``ring``,
    every other bracket zero."""
    c = _sl2_semidirect_v2().ops["bracket"].c
    entries = {
        (indices[i], indices[j], indices[k]): c[i][j][k]
        for i, j, k in itertools.product(range(5), repeat=3)
        if c[i][j][k]
    }
    return _pres({"bracket": BilinearOp.from_entries(dim, ring, entries)}, dim, ring)


@pytest.mark.parametrize("ring", [QQ, QI], ids=["Q", "Qi"])
def test_s5_fails_in_order_at_interleaved_heads(ring, monkeypatch):
    """sl2 on e2, e4, e5 and its module on e1, e6 fail S5 at the sorted
    heads (0, 1, 3, 4) and (1, 3, 4, 5) only.  Permutations of the first,
    such as (3, 0, 1, 4), sort after the second: the failures still come
    in lexicographic order, and the first check reads no slab past the
    first failing head."""
    alg = _sl2_v2_inside(6, (1, 3, 4, 0, 5), ring)
    failures = list(clause_failures(alg, IDENTITIES["S5"][0]))
    assert {tuple(sorted(t[:4])) for _, t, _ in failures} == {(0, 1, 3, 4), (1, 3, 4, 5)}
    prefixes = [t[:4] for _, t, _ in failures]
    assert prefixes.index((1, 3, 4, 5)) < prefixes.index((3, 0, 1, 4))
    assert _assert_scans_agree("S5", alg) == len(failures)

    reads = []
    tree_slab = algebra._tree_slab

    def counted(*args):
        rows_at = tree_slab(*args)

        def read(prefix):
            reads.append(prefix)
            return rows_at(prefix)

        return read

    monkeypatch.setattr(algebra, "_tree_slab", counted)
    report = check_identity(alg, "S5")
    assert report == failure_report("S5", failures[0])
    assert failures[0][1][:4] == (0, 1, 3, 4)
    heads = list(itertools.combinations(range(6), 4))
    assert reads == heads[: heads.index((0, 1, 3, 4)) + 1]


def test_s5_on_a_zero_bracket_keeps_no_slab():
    """S5 on the zero bracket of dim 16 reads its C(16, 4) sorted heads,
    keeps none of their slabs and keeps each zero subtree as no rows, so
    the scan peaks well under 2 MB (about 0.6 MB under CPython 3.11)."""
    alg = _pres({"bracket": BilinearOp.zero(16, QQ)}, 16, QQ)
    tracemalloc.start()
    try:
        assert check_identity(alg, "S5").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
