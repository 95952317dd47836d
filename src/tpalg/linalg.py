"""Exact linear algebra over the scalar tower.

The solver does Gauss-Jordan elimination on sparse rows, with the
coefficient matrix over a field (rationals or Gaussian rationals).
Right-hand sides only need module operations (+, -, scaling by field
elements), so the same routine solves systems whose right-hand side
carries symbolic parameters.  ``general_solution`` turns a feasible
solve into particular + sum of named parameters times nullspace vectors,
the form both parametric solvers hand on.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Record


def matvec(rows, vec):
    return [_dot(row, vec) for row in rows]


def matmul(a, b):
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def _dot(row, col):
    acc = None
    for x, y in zip(row, col):
        piece = x * y
        acc = piece if acc is None else acc + piece
    return acc


def mat_neg(a):
    return [[-x for x in row] for row in a]


def is_identity_matrix(rows):
    return all(
        (x == 1 if i == j else x == 0) for i, row in enumerate(rows) for j, x in enumerate(row)
    )


class LinearSolveResult(Record):
    """Outcome of solving A x = b over a field.

    feasible      -- every zero row of the reduced A has zero residual
    particular    -- one solution with all free coordinates set to zero
                     (entries have the right-hand side's type)
    nullspace     -- basis of solutions of A x = 0, one vector per free
                     column, in ascending column order
    free_cols     -- the free column indices
    pivot_cols    -- the pivot column indices
    residuals     -- for infeasible systems, the nonzero right-hand sides
                     left on zero rows (in elimination order)
    """

    __slots__ = ("feasible", "particular", "nullspace", "free_cols", "pivot_cols", "residuals")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        feasible: bool,
        particular: list | None,
        nullspace: list | None,
        free_cols: list | None,
        pivot_cols: list,
        residuals: list,
    ):
        self.feasible = feasible
        self.particular = particular
        self.nullspace = nullspace
        self.free_cols = free_cols
        self.pivot_cols = pivot_cols
        self.residuals = residuals


def solve_affine(matrix, rhs, one=Fraction(1)):
    """Gauss-Jordan solve of ``matrix . x = rhs``.

    ``matrix`` entries must be field scalars; ``rhs`` entries may live in
    any module over that field.  Returns a LinearSolveResult.  For an
    infeasible system the residuals list holds every nonzero entry stranded
    on a zero row; when right-hand sides are symbolic the caller decides
    what a nonzero residual means.

    Rows are dicts from column to nonzero (truthy) coefficient; pivots, row
    swaps and row operations follow dense elimination step for step, so the
    result, residuals included, is the dense one without work on zeros.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    a = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    b = list(rhs)
    if len(b) != nrows:
        raise ValueError("rhs length does not match row count")
    zero = one * 0

    pivot_cols = []
    pivot_row_of = {}
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if c in a[k]:
                pivot = k
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        b[r], b[pivot] = b[pivot], b[r]
        inv = one / a[r][c]
        prow = a[r] = {j: inv * x for j, x in a[r].items()}
        b[r] = inv * b[r]
        for k in range(nrows):
            row = a[k]
            f = row.get(c)
            if f is None or k == r:
                continue
            for j, y in prow.items():
                x = row.get(j, zero) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
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
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = one
        for c in pivot_cols:
            vec[c] = -a[pivot_row_of[c]].get(f, zero)
        basis.append(vec)
    return LinearSolveResult(True, particular, basis, free_cols, pivot_cols, [])


def general_solution(sol, ring, names):
    """Per coordinate u of a feasible solve, the polynomial
    particular[u] + sum_t names[t] * nullspace[t][u] in ``ring``, one
    name per free column; zero nullspace entries add no term."""
    out = []
    for u, value in enumerate(sol.particular):
        value = ring.coerce(value)
        for name, vec in zip(names, sol.nullspace):
            if vec[u] != 0:
                value = value + ring.var(name) * ring.base.coerce(vec[u])
        out.append(value)
    return out


def rank(matrix, one=Fraction(1)):
    if not matrix:
        return 0
    zero = one * 0
    result = solve_affine(matrix, [zero] * len(matrix), one)
    return len(result.pivot_cols)


def invert_series_matrix(layers):
    """Invert a square matrix with truncated-series entries, given layer by
    layer: ``layers[k]`` is the matrix of h^k coefficients and ``layers[0]``
    must be the identity.  Returns the inverse's layers, computed by

        g_0 = I,   g_k = -(sum_{j=1..k} f_j g_{k-j}).

    No division happens, so the base ring can be any commutative ring.
    """
    if not layers:
        raise ValueError("need at least the constant layer")
    if not is_identity_matrix(layers[0]):
        raise ValueError("constant layer must be the identity matrix")
    out = [[row[:] for row in layers[0]]]
    for k in range(1, len(layers)):
        acc = None
        for j in range(1, k + 1):
            piece = matmul(layers[j], out[k - j])
            acc = piece if acc is None else [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, piece)]
        out.append(mat_neg(acc))
    return out
