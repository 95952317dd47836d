"""Exact linear algebra: affine solving against sympy and against a dense
Gauss-Jordan reference, series-matrix inversion against direct
multiplication."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tpalg.linalg import (
    FactoredMatrix,
    LinearSolveResult,
    factor,
    invert_series_matrix,
    matmul,
    matvec,
    rank,
    solve_affine,
)
from tpalg.scalars import GAUSS_I, GaussianRational, ParamPoly

F = Fraction

entries = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def _matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def test_solve_affine_unique():
    # x + y = 3, x - y = 1  ->  (2, 1)
    sol = solve_affine([[F(1), F(1)], [F(1), F(-1)]], [F(3), F(1)])
    assert sol.feasible
    assert sol.particular == [F(2), F(1)]
    assert sol.free_cols == []


def test_solve_affine_underdetermined():
    sol = solve_affine([[F(1), F(2), F(0)]], [F(4)])
    assert sol.feasible
    assert sol.particular == [F(4), F(0), F(0)]
    assert sol.free_cols == [1, 2]
    assert len(sol.nullspace) == 2
    for basis_vec in sol.nullspace:
        assert sum(c * v for c, v in zip([F(1), F(2), F(0)], basis_vec)) == 0


def test_solve_affine_infeasible():
    sol = solve_affine([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert not sol.feasible
    assert sol.residuals


@given(_matrices(4, 3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=50)
def test_solve_affine_agrees_with_sympy(rows, x):
    """Build a consistent system A x = b, check a solution is found and that
    feasibility matches sympy's."""
    b = [sum(r * v for r, v in zip(row, x)) for row in rows]
    sol = solve_affine(rows, b)
    assert sol.feasible
    got = sol.particular
    for row, rhs in zip(rows, b):
        assert sum(r * v for r, v in zip(row, got)) == rhs
    # rank of [A|b] equals rank of A exactly when feasible
    A = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    Ab = A.row_join(sympy.Matrix([sympy.Rational(v) for v in b]))
    assert A.rank() == Ab.rank()


@given(_matrices(3, 3), st.lists(entries, min_size=3, max_size=3))
@settings(max_examples=50)
def test_infeasibility_matches_sympy(rows, b):
    sol = solve_affine(rows, b)
    A = sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])
    Ab = A.row_join(sympy.Matrix([sympy.Rational(v) for v in b]))
    assert sol.feasible == (A.rank() == Ab.rank())


def test_matvec_matmul():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert matvec(m, [F(1), F(1)]) == [F(3), F(7)]
    mm = matmul(m, m)
    assert mm == [[F(7), F(10)], [F(15), F(22)]]


def test_invert_series_matrix():
    # f = I + N h with N nilpotent-ish; check f * f^{-1} = I layer by layer
    f = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(2), F(1)], [F(0), F(-1)]],
        [[F(0), F(3)], [F(1), F(0)]],
    ]
    g = invert_series_matrix(f)
    order = len(f)
    for k in range(order):
        acc = [[F(0)] * 2 for _ in range(2)]
        for j in range(k + 1):
            prod = matmul(f[j], g[k - j])
            for r in range(2):
                for c in range(2):
                    acc[r][c] += prod[r][c]
        expected = [[F(1), F(0)], [F(0), F(1)]] if k == 0 else [[F(0)] * 2] * 2
        assert acc == [list(map(F, row)) for row in expected]


def test_result_shape():
    sol = solve_affine([[F(0)]], [F(0)])
    assert isinstance(sol, LinearSolveResult)
    assert sol.feasible and sol.free_cols == [0]


# ---------------------------------------------------------------------------
# Sparse elimination against the dense reference
# ---------------------------------------------------------------------------


def dense_solve_affine(matrix, rhs, one=Fraction(1)):
    """Dense Gauss-Jordan reference.  solve_affine must make the same
    pivots, row swaps and row operations, so every result field, residuals
    and their order included, is the same."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [list(row) for row in matrix]
    b = list(rhs)
    if len(b) != nrows:
        raise ValueError("rhs length does not match row count")

    pivot_cols = []
    pivot_row_of = {}
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if a[k][c] != 0:
                pivot = k
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = one / a[r][c]
        a[r] = [inv * x for x in a[r]]
        b[r] = inv * b[r]
        for k in range(nrows):
            if k == r:
                continue
            f = a[k][c]
            if f == 0:
                continue
            a[k] = [x - f * y for x, y in zip(a[k], a[r])]
            b[k] = b[k] - f * b[r]
        pivot_row_of[c] = r
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break

    residuals = [b[k] for k in range(r, nrows) if b[k] != 0]
    if residuals:
        return LinearSolveResult(False, None, None, None, pivot_cols, residuals)

    free_cols = [c for c in range(ncols) if c not in pivot_row_of]
    particular = []
    zero_rhs = None
    for c in range(ncols):
        if c in pivot_row_of:
            particular.append(b[pivot_row_of[c]])
        else:
            if zero_rhs is None:
                zero_rhs = b[0] * 0 if nrows else Fraction(0)
            particular.append(zero_rhs)
    basis = []
    zero = one * 0
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = one
        for c in pivot_cols:
            vec[c] = -a[pivot_row_of[c]][f]
        basis.append(vec)
    return LinearSolveResult(True, particular, basis, free_cols, pivot_cols, [])


SMALL = sorted({F(p, q) for p in range(-3, 4) for q in (1, 2, 3)})
NONZERO_Q = [x for x in SMALL if x]
NONZERO_QI = [GaussianRational(x, y) for x in SMALL[::3] for y in SMALL[::3] if x or y]
PARAMS = ("s", "t")


def _sparse(nonzero, zero):
    # about 20 % nonzero; shrinking moves toward the zeros at the front
    return st.sampled_from([zero] * (4 * len(nonzero)) + nonzero)


def _params(coeffs):
    expo = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(expo, coeffs, max_size=3).map(lambda terms: ParamPoly(PARAMS, terms))


@st.composite
def right_hand_sides(draw, matrix, one):
    """A right-hand side for ``matrix`` over Q, Q(i) or parameter
    polynomials, either consistent by construction or drawn at random."""
    rationals, gaussians = st.sampled_from(SMALL), st.sampled_from(NONZERO_QI)
    rhs_entries = draw(st.sampled_from((rationals, gaussians, _params(st.sampled_from(NONZERO_Q)))))
    if draw(st.booleans()):
        x = draw(st.lists(rhs_entries, min_size=len(matrix[0]), max_size=len(matrix[0])))
        return [sum((a * v for a, v in zip(r, x)), one * 0) for r in matrix]
    return draw(st.lists(rhs_entries, min_size=len(matrix), max_size=len(matrix)))


@st.composite
def sparse_systems(draw):
    """A system of up to 12 x 10 with about 20 % nonzero entries over Q or
    Q(i), and one of its ``right_hand_sides``."""
    one = draw(st.sampled_from((F(1), GaussianRational.of(1))))
    entry = _sparse(NONZERO_Q if isinstance(one, F) else NONZERO_QI, one * 0)
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    matrix = draw(st.lists(row, min_size=nrows, max_size=nrows))
    return matrix, draw(right_hand_sides(matrix, one)), one


@given(sparse_systems())
@settings(max_examples=200)
def test_sparse_solve_matches_dense_reference(system):
    matrix, rhs, one = system
    got = solve_affine(matrix, rhs, one)
    want = dense_solve_affine(matrix, rhs, one)
    assert got == want

    def types(result):
        vectors = [result.particular or [], result.residuals] + (result.nullspace or [])
        return [[type(x) for x in vec] for vec in vectors]

    assert types(got) == types(want)


# ---------------------------------------------------------------------------
# One elimination, many right-hand sides
# ---------------------------------------------------------------------------


def _dict_rows(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _assert_same(got, want):
    """Equal results whose vectors hold the same element types."""
    assert got == want

    def types(result):
        vectors = [result.particular or [], result.residuals] + (result.nullspace or [])
        return [[type(x) for x in vec] for vec in vectors]

    assert types(got) == types(want)


@given(sparse_systems(), st.data())
@settings(max_examples=150)
def test_factored_solves_match_dense_reference(system, data):
    """One factorization of dict rows answers 1-4 right-hand sides of mixed
    kinds, each as the dense reference answers it alone."""
    matrix, rhs, one = system
    factored = factor(_dict_rows(matrix), one, len(matrix[0]))
    more = data.draw(st.lists(right_hand_sides(matrix, one), max_size=3))
    for b in [rhs] + more:
        _assert_same(solve_affine(factored, b), dense_solve_affine(matrix, b, one))


BIG = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**9))


@given(st.data())
@settings(max_examples=60)
def test_large_rationals_match_dense_reference(data):
    """Numerators up to 10^30 and denominators up to 10^9: the integer rows
    and their scales give the Fraction elimination's values."""
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    entry = st.one_of(st.just(F(0)), BIG)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    matrix = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    factored = factor(matrix)
    for _ in range(2):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(BIG, min_size=ncols, max_size=ncols))
            b = [sum((a * v for a, v in zip(r, x)), F(0)) for r in matrix]
        else:
            b = data.draw(st.lists(BIG, min_size=nrows, max_size=nrows))
        _assert_same(solve_affine(factored, b), dense_solve_affine(matrix, b))


def test_dict_rows_match_dense_rows():
    dense = [[F(0), F(2), F(-1, 3)], [F(1), F(0), F(0)], [F(1), F(4), F(-2, 3)]]
    for rhs in ([F(1), F(2), F(4)], [F(1), F(2), F(5)]):
        got = solve_affine(_dict_rows(dense), rhs, F(1), 3)
        _assert_same(got, solve_affine(dense, rhs))
        _assert_same(got, dense_solve_affine(dense, rhs))
    with pytest.raises(ValueError, match="ncols"):
        solve_affine(_dict_rows(dense), [F(0)] * 3)


def test_trailing_zero_columns_come_from_ncols():
    # x0 + 2 x1 = 3 in four unknowns: x2 and x3 appear in no row
    sol = solve_affine([{0: F(1), 1: F(2)}], [F(3)], F(1), 4)
    _assert_same(sol, dense_solve_affine([[F(1), F(2), F(0), F(0)]], [F(3)]))
    assert sol.free_cols == [1, 2, 3]
    assert sol.particular == [F(3), F(0), F(0), F(0)]
    one = GaussianRational.of(1)
    gauss = solve_affine([{}, {1: GAUSS_I}], [one * 0, one], one, 3)
    zero = one * 0
    _assert_same(gauss, dense_solve_affine([[zero] * 3, [zero, GAUSS_I, zero]], [zero, one], one))


def test_factored_matrix_is_its_rows():
    rows = [{0: F(1)}, {0: F(2), 2: F(1)}]
    factored = factor(rows, F(1), 3)
    assert isinstance(factored, FactoredMatrix)
    assert list(factored) == rows and len(factored) == 2
    assert factored.pivot_cols == [0, 2]
    with pytest.raises(ValueError, match="row count"):
        solve_affine(factored, [F(1)])


@given(st.integers(1, 7), st.integers(1, 7), st.data())
@settings(max_examples=60)
def test_rank_of_sparse_integer_rows_matches_sympy(nrows, ncols, data):
    entry = st.sampled_from([0] * 6 + [-3, -2, -1, 1, 2, 5, 10**12])
    dense = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    assert rank(_dict_rows(dense), ncols=ncols) == sympy.Matrix(dense).rank()
    assert rank(dense) == sympy.Matrix(dense).rank()
