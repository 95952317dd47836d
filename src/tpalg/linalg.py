"""Exact linear algebra over the scalar tower.

``factor`` runs Gauss-Jordan elimination on a coefficient matrix over a
field (rationals or Gaussian rationals) once and records its row
operations; ``solve_affine`` replays them on a right-hand side, so one
elimination serves every right-hand side of the same matrix.  A matrix is a
list of rows, each a dense list or a dict {column: coefficient} with the
width given as ``ncols``; zero coefficients are skipped either way.

Over Q each row is scaled to integers and carries a rational scale s
(integer row = s times the row a Fraction elimination would hold).  Pivots
and swaps depend only on where the nonzeros are, so they are the Fraction
elimination's.  A row update is (p/g) row_k - (e/g) pivot row, with p and e
the integer entries of the pivot row and of row k in the pivot column and
g = gcd(p, e), divided by the gcd of its entries.  The right-hand side gets exactly the
Fraction elimination's operations, b[r] = inv b[r] and b[k] -= f b[r], with
inv and f the same Fractions, so the particular solution, nullspace, pivots
and residuals are the same values.  Over other fields the rows hold the
ring's scalars with scale 1.

Right-hand sides only need module operations (+, -, scaling by field
elements), so the same routine solves systems whose right-hand side
carries symbolic parameters.  ``general_solution`` turns a feasible
solve into particular + sum of named parameters times nullspace vectors,
the form both parametric solvers hand on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


class FactoredMatrix(list):
    """The rows of a matrix, as given, with their elimination done once by
    ``factor``; ``solve_affine`` replays it with this matrix's ``one``.

    steps      -- per pivot (r, k, inv, [(row, f), ...]): swap b[r] and
                  b[k], b[r] = inv b[r], then b[row] -= f b[r]
    pivot_cols -- the pivot column indices; pivot i sits on row i
    reduced    -- the reduced pivot rows, in pivot order, as dicts of the
                  Fraction elimination's values
    """

    __slots__ = ("ncols", "one", "steps", "pivot_cols", "reduced")


def factor(matrix, one=Fraction(1), ncols=None):
    """Eliminate ``matrix`` (entries in the field of ``one``) once; returns
    the FactoredMatrix that ``solve_affine`` solves against.  Dict rows need
    ``ncols``; dense rows default it to the length of the first row."""
    if ncols is None:
        if matrix and isinstance(matrix[0], dict):
            raise ValueError("dict rows need ncols")
        ncols = len(matrix[0]) if matrix else 0
    integral = type(one) is Fraction
    zero = 0 if integral else one * 0
    a, s = [], []
    for row in matrix:
        row = [(j, x) for j, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x]
        if integral:
            den = lcm(*(x.denominator for _, x in row))
            row = {j: x.numerator * (den // x.denominator) for j, x in row}
            d = gcd(*row.values()) or 1
            if d > 1:
                row = {j: x // d for j, x in row.items()}
            s.append(Fraction(den, d))
        else:
            row = dict(row)
            s.append(one)
        a.append(row)

    nrows = len(a)
    steps, pivot_cols = [], []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, nrows) if c in a[k]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        s[r], s[pivot] = s[pivot], s[r]
        p = a[r][c]
        inv = s[r] / p
        if integral:
            s[r] = Fraction(p)
        else:
            a[r] = {j: inv * x for j, x in a[r].items()}
        prow = a[r]
        updates = []
        for k in range(nrows):
            row = a[k]
            e = row.get(c)
            if e is None or k == r:
                continue
            if integral:
                g = gcd(p, e) if p > 0 else -gcd(p, e)
                alpha, beta = p // g, e // g
                f = Fraction(e * s[k].denominator, s[k].numerator)
                if alpha != 1:
                    for j in row:
                        row[j] *= alpha
            else:
                f = beta = e
            for j, y in prow.items():
                x = row.get(j, zero) - beta * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            if integral:
                d = gcd(*row.values()) or 1
                if d > 1:
                    for j in row:
                        row[j] //= d
                if alpha != 1 or d > 1:
                    s[k] = Fraction(s[k].numerator * alpha, s[k].denominator * d)
            updates.append((k, f))
        steps.append((r, pivot, inv, updates))
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break

    out = FactoredMatrix(matrix)
    out.ncols, out.one, out.steps, out.pivot_cols = ncols, one, steps, pivot_cols
    out.reduced = [
        {j: Fraction(x * scale.denominator, scale.numerator) for j, x in row.items()}
        if integral
        else row
        for row, scale in zip(a[:r], s)
    ]
    return out


def solve_affine(matrix, rhs, one=Fraction(1), ncols=None):
    """Gauss-Jordan solve of ``matrix . x = rhs``.

    ``matrix`` is a list of dense or dict rows (dict rows with ``ncols``)
    whose entries are field scalars, or a FactoredMatrix, which keeps the
    ``one`` it was factored with; ``rhs`` entries may live in any module
    over that field.  Returns a LinearSolveResult.  For an infeasible
    system the residuals list holds every nonzero entry stranded on a zero
    row; when right-hand sides are symbolic the caller decides what a
    nonzero residual means.  Pivots, swaps and the right-hand side's
    operations are those of dense Fraction elimination, so every result
    field, residuals included, is the dense one (see the module docstring).
    """
    b = list(rhs)
    if len(b) != len(matrix):
        raise ValueError("rhs length does not match row count")
    if not isinstance(matrix, FactoredMatrix):
        matrix = factor(matrix, one, ncols)
    one, ncols, pivot_cols = matrix.one, matrix.ncols, list(matrix.pivot_cols)
    for r, swap, inv, updates in matrix.steps:
        b[r], b[swap] = b[swap], b[r]
        x = b[r] = inv * b[r]
        for k, f in updates:
            b[k] = b[k] - f * x
    residuals = [x for x in b[len(pivot_cols) :] if x != 0]
    if residuals:
        return LinearSolveResult(False, None, None, None, pivot_cols, residuals)

    value = dict(zip(pivot_cols, b))
    free_cols = [c for c in range(ncols) if c not in value]
    zero_rhs = (b[0] * 0 if b else Fraction(0)) if free_cols else None
    particular = [value[c] if c in value else zero_rhs for c in range(ncols)]
    zero = one * 0
    basis = []
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = one
        for c, row in zip(pivot_cols, matrix.reduced):
            vec[c] = -row.get(f, zero)
        basis.append(vec)
    return LinearSolveResult(True, particular, basis, free_cols, pivot_cols, [])


def general_solution(sol, ring, names):
    """Per coordinate u of a feasible solve, the polynomial
    particular[u] + sum_t names[t] * nullspace[t][u] in ``ring``, one
    name per free column; zero nullspace entries add no term.  With no
    names it is the particular solution coerced into ``ring``, which may
    then be a field."""
    out = []
    for u, value in enumerate(sol.particular):
        value = ring.coerce(value)
        for name, vec in zip(names, sol.nullspace):
            if vec[u] != 0:
                value = value + ring.var(name) * ring.base.coerce(vec[u])
        out.append(value)
    return out


def rank(matrix, one=Fraction(1), ncols=None):
    """The rank of ``matrix``, dense or dict rows as for ``factor``; over Q
    the rows may hold ints."""
    return len(factor(matrix, one, ncols).pivot_cols)


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
