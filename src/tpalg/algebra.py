"""Structure-constant algebras and the multilinear identity engine.

An algebra is a tensor c[i][j][k] (product of basis vectors i, j expanded in
the basis) over one of the scalar rings.  The identity catalog is data:
each clause is a signed sum of operation trees over its variables, and the
degree-5 identity is one alternating clause.  One evaluator computes a
clause at given vectors (``identity_residual``).  The scan over all basis
tuples in lexicographic order (``check_identity``) reads, at each prefix
of all indices but the last, the residuals for every last index at once:
this slab treats a subtree with the last variable as n rows.  An
alternating clause is read as its signed sum of chains at its C(n, k)
sorted heads of k distinct indices only (``itertools.combinations``): a
head with a repeated index gives zero, and any other is a permutation of a
sorted head, whose slab is the sign of its sort times the sorted head's.
A sorted head whose slab is not zero puts its permutations on a heap that
gives them back in lexicographic order, so of the residual slabs only
those still pending there are kept, and the subtree memo keeps a zero
subtree as no rows at all.  The scan is complete because every clause is
multilinear.  Every term of a clause also uses each operation equally
often, so where the ring has a packed format (``scalars.Packing``) the
scan runs on integers: each op scaled by the lcm of its denominators and
packed, and a residual read back exactly.
Other rings are scanned on their own structure constants.  One set-up
step (``_entries``) chooses a scan's entries: the clause's plan, the
sparse tables of its ops, the packing (none on the ring's own entries)
and the zero and one of the entries; the slab reader and the scan loop
are the same for both formats.  When the entries are ParamPoly values,
"zero residual" means the identically-zero polynomial, so one check
certifies a whole parametric family.
What a scan reads off a clause or an op alone is built once, in one
cache of ``_CACHE_CAP`` entries (enough for the checks of one
presentation) that drops the least recently used entry, so the catalog's
clause plans, read by every check, stay.  Its keys: each clause's plan
(its signed terms and subtrees) per clause; each op's integer form per
(op, ring, d > 2), d the ops per term, as the affine format's limit of
degree 2 is the one way a form reads the clause; and each op's sparse
tables per (op, ring, B), B the clause's digit width, 0 in a one-digit
format (Q, series of order 1), where packing leaves the ints as they
are, and None on the ring's own entries.
"""

from __future__ import annotations

import itertools
import operator

from .errors import (
    DependentSpan,
    MissingOp,
    NotCommAssoc,
    NotDerivation,
    OutOfRange,
    Record,
    UnknownIdentity,
)
from .linalg import factor, is_identity_matrix, solve_affine
from .scalars import QQ, Packing, integer_form

# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def vadd(u, v):
    return [a + b for a, b in zip(u, v)]


def vsub(u, v):
    return [a - b for a, b in zip(u, v)]


def is_zero_vector(u):
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


class BilinearOp(Record):
    """Bilinear operation as structure constants: e_i * e_j = sum_k c[i][j][k] e_k."""

    __slots__ = ("ring", "c")

    @property
    def dim(self):
        return len(self.c)

    @classmethod
    def zero(cls, dim, ring=QQ):
        z = ring.zero()
        return cls(ring, tuple(tuple((z,) * dim for _ in range(dim)) for _ in range(dim)))

    @classmethod
    def from_entries(cls, dim, ring, entries):
        """Build from a sparse {(i, j, k): scalar} dict with 0-based indices."""
        z = ring.zero()
        c = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in entries.items():
            c[i][j][k] = ring.coerce(value)
        return cls(ring, tuple(tuple(tuple(col) for col in row) for row in c))

    def entry(self, i, j, k):
        return self.c[i][j][k]

    def col(self, i, j):
        """Coordinates of e_i * e_j."""
        return list(self.c[i][j])

    def apply(self, u, v):
        """Product of two coordinate vectors."""
        n = self.dim
        out = [self.ring.zero()] * n
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                w = ui * vj
                row = self.c[i][j]
                for k in range(n):
                    if row[k] != 0:
                        out[k] = out[k] + w * row[k]
        return out

    def map_entries(self, fn, ring=None):
        ring = ring if ring is not None else self.ring
        return BilinearOp(
            ring,
            tuple(
                tuple(tuple(fn(x) for x in col) for col in row) for row in self.c
            ),
        )

    def coerce_to(self, ring):
        return self.map_entries(ring.coerce, ring)

    def transpose(self):
        """Swap the two arguments."""
        n = self.dim
        return BilinearOp(
            self.ring,
            tuple(
                tuple(tuple(self.c[j][i][k] for k in range(n)) for j in range(n))
                for i in range(n)
            ),
        )

    def _entrywise(self, other, fn):
        return BilinearOp(
            self.ring,
            tuple(
                tuple(tuple(map(fn, ca, cb)) for ca, cb in zip(ra, rb))
                for ra, rb in zip(self.c, other.c)
            ),
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def entries_equal(self, other):
        return self.dim == other.dim and all(
            x == y
            for ra, rb in zip(self.c, other.c)
            for ca, cb in zip(ra, rb)
            for x, y in zip(ca, cb)
        )


class LinearMap(Record):
    """Linear endomorphism: column j holds the coordinates of the image of e_j."""

    __slots__ = ("ring", "m")  # m[i][j]

    @property
    def dim(self):
        return len(self.m)

    @classmethod
    def identity(cls, dim, ring=QQ):
        one, zero = ring.one(), ring.zero()
        return cls(ring, tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)))

    def col(self, j):
        return [self.m[i][j] for i in range(self.dim)]

    def apply(self, v):
        n = self.dim
        out = [self.ring.zero()] * n
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            for i in range(n):
                if self.m[i][j] != 0:
                    out[i] = out[i] + self.m[i][j] * vj
        return out

    def is_identity(self):
        return is_identity_matrix(self.m)


class AlgebraPresentation(Record):
    """A finite-dimensional algebra carrying named bilinear operations
    ("dot", "circ", "bracket", ...) over a common scalar ring.  Mutable, and
    compared by identity."""

    __slots__ = ("dim", "ring", "basis_labels", "ops")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        self.basis_labels = tuple(self.basis_labels)
        if len(self.basis_labels) != self.dim:
            raise ValueError("need one basis label per dimension")
        for label, op in self.ops.items():
            if op.dim != self.dim:
                raise ValueError(f"op {label!r} has dim {op.dim}, expected {self.dim}")

    @property
    def field_tag(self):
        return self.ring.tag

    def op(self, label):
        try:
            return self.ops[label]
        except KeyError:
            raise MissingOp(f"presentation has no {label!r} operation") from None


def default_labels(dim):
    return tuple(f"e{i + 1}" for i in range(dim))


def presentation_of(**ops):
    """The presentation of bare ops, such as those a check scans: dim and
    ring are the first op's, the labels the default ones."""
    op = next(iter(ops.values()))
    return AlgebraPresentation(op.dim, op.ring, default_labels(op.dim), ops)


# ---------------------------------------------------------------------------
# Identity reports
# ---------------------------------------------------------------------------


class Counterexample(Record):
    __slots__ = ("indices", "residual", "clause")  # indices are 1-based
    _defaults = {"clause": ""}


class IdentityReport(Record):
    __slots__ = ("identity_name", "passed", "counterexample")
    _defaults = {"counterexample": None}


# ---------------------------------------------------------------------------
# Identity catalog
# ---------------------------------------------------------------------------

OPS = ("dot", "circ", "bracket")  # the catalog's operations, in checking order


def _nodes(tree):
    """The operation nodes of a tree, root first."""
    return [] if isinstance(tree, int) else [tree, *_nodes(tree[1]), *_nodes(tree[2])]


def _leaves(tree):
    return [tree] if isinstance(tree, int) else _leaves(tree[1]) + _leaves(tree[2])


def _chain(op, variables):
    """The right-nested chain op(v0, op(v1, ... op(v[k-2], v[k-1])))."""
    tree = variables[-1]
    for v in reversed(variables[:-1]):
        tree = (op, v, tree)
    return tree


def _degrees(tree):
    """How often each operation of ``OPS`` occurs in a tree."""
    names = [node[0] for node in _nodes(tree)]
    return tuple(names.count(op) for op in OPS)


def _sign(seq):
    """Sign of the permutation that sorts a sequence of distinct values."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


class Clause(Record):
    """A signed sum of operation trees, held in ``terms`` as (coefficient,
    tree) pairs; a tree is a variable index (0-based) or (op, left, right).
    The residual at given arguments is zero iff the clause holds there.
    Every term is multilinear in the variables and uses each operation
    equally often (``degrees``), so scaling an operation by a constant
    scales the whole residual by a power of it.  An alternating clause has
    the one term op(x0, op(x1, ... op(x[k-1], xk))) with coefficient 1 and
    stands for its alternating sum over the orderings of x0..x[k-1]."""

    __slots__ = ("name", "arity", "terms", "alternating")
    _defaults = {"alternating": False}

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        terms = self.terms
        for _, tree in terms:
            if isinstance(tree, int):
                raise ValueError(f"clause {self.name!r}: a term is a bare variable")
            if any(node[0] not in OPS for node in _nodes(tree)):
                raise ValueError(f"clause {self.name!r}: unknown operation in {tree!r}")
            if sorted(_leaves(tree)) != list(range(self.arity)):
                raise ValueError(f"clause {self.name!r}: a term is not multilinear")
        if len({_degrees(tree) for _, tree in terms}) > 1:
            raise ValueError(
                f"clause {self.name!r}: the terms differ in how often an operation occurs"
            )
        if self.alternating and not (
            self.arity > 1
            and len(terms) == 1
            and terms[0][0] == 1
            and terms[0][1] == _chain(terms[0][1][0], tuple(range(self.arity)))
        ):
            raise ValueError(
                f"alternating clause {self.name!r} must be one right-nested chain "
                "of a single operation, with coefficient 1"
            )

    @property
    def degrees(self):
        """How often each operation of ``OPS`` occurs in every term."""
        return _degrees(self.terms[0][1])

    def signed_terms(self):
        """The clause as a plain signed sum of trees."""
        if not self.alternating:
            return self.terms
        op, last = self.terms[0][1][0], self.arity - 1
        return tuple(
            (_sign(perm), _chain(op, perm + (last,)))
            for perm in itertools.permutations(range(last))
        )


def _op(name):
    return lambda a, b: (name, a, b)


_dot, _circ, _br = map(_op, OPS)
X, Y, Z = 0, 1, 2


IDENTITIES = {
    "COMM_ASSOC": (
        Clause("commutativity", 2, ((1, _dot(X, Y)), (-1, _dot(Y, X)))),
        Clause("associativity", 3, ((1, _dot(_dot(X, Y), Z)), (-1, _dot(X, _dot(Y, Z))))),
    ),
    "LIE": (
        Clause("antisymmetry", 2, ((1, _br(X, Y)), (1, _br(Y, X)))),
        Clause("jacobi", 3, (
            (1, _br(X, _br(Y, Z))), (1, _br(Y, _br(Z, X))), (1, _br(Z, _br(X, Y))),
        )),
    ),
    "NOV_LEFTSYM": (
        Clause("left-symmetry", 3, (
            (1, _circ(_circ(X, Y), Z)), (-1, _circ(_circ(Y, X), Z)),
            (-1, _circ(X, _circ(Y, Z))), (1, _circ(Y, _circ(X, Z))),
        )),
    ),
    "NOV_RIGHTCOMM": (
        Clause("right-commutativity", 3, (
            (1, _circ(_circ(X, Y), Z)), (-1, _circ(_circ(X, Z), Y)),
        )),
    ),
    # 2 [x, y] o z = [x o z, y] + [x, y o z], where [u, v] = u o v - v o u
    "NCTPA": (
        Clause("bracket-compatibility", 3, (
            (2, _circ(_circ(X, Y), Z)), (-2, _circ(_circ(Y, X), Z)),
            (-1, _circ(_circ(X, Z), Y)), (1, _circ(Y, _circ(X, Z))),
            (-1, _circ(X, _circ(Y, Z))), (1, _circ(_circ(Y, Z), X)),
        )),
    ),
    "TPA": (
        Clause("transposed-leibniz", 3, (
            (2, _dot(_br(X, Y), Z)), (-1, _br(X, _dot(Y, Z))), (-1, _br(_dot(X, Z), Y)),
        )),
    ),
    "NP1": (
        Clause("left-mixed-assoc", 3, ((1, _circ(_dot(X, Y), Z)), (-1, _dot(X, _circ(Y, Z))))),
    ),
    "NP2": (
        Clause("mixed-left-symmetry", 3, (
            (1, _dot(_circ(X, Y), Z)), (-1, _dot(_circ(Y, X), Z)),
            (-1, _circ(X, _dot(Y, Z))), (1, _circ(Y, _dot(X, Z))),
        )),
    ),
    # sum over the orderings s of x1..x4 of sign(s) [x_s1, [x_s2, [x_s3, [x_s4, x5]]]]
    "S5": (
        Clause(
            "alternating-quintuple", 5, ((1, _br(0, _br(1, _br(2, _br(3, 4))))),), alternating=True
        ),
    ),
}


def identity_names():
    return sorted(IDENTITIES)


def _basis_vector(dim, i, ring):
    v = [ring.zero()] * dim
    v[i] = ring.one()
    return v


def _identity_name(identity):
    """The catalog name of ``identity``."""
    name = str(identity).upper().replace("-", "_")
    if name not in IDENTITIES:
        raise UnknownIdentity(
            f"unknown identity {identity!r}; expected one of {', '.join(identity_names())}"
        )
    return name


def _canonical_identity(alg, identity):
    """The catalog name of ``identity``, once ``alg`` is known to carry the
    operations it uses."""
    name = _identity_name(identity)
    degrees = [clause.degrees for clause in IDENTITIES[name]]
    for label, used in zip(OPS, zip(*degrees)):
        if any(used):
            alg.op(label)
    return name


# -- the evaluator ------------------------------------------------------------


def _evaluate(ops, tree, args):
    """Value of an operation tree with variable v bound to the vector args[v]."""
    if isinstance(tree, int):
        return args[tree]
    return ops[tree[0]].apply(_evaluate(ops, tree[1], args), _evaluate(ops, tree[2], args))


def _signed_sum(pairs):
    """Sum of coefficient * vector over (coefficient, vector) pairs; zero
    entries are skipped, which leaves every value and type unchanged."""
    acc = None
    for coeff, vec in pairs:
        if coeff != 1:
            vec = [coeff * x if x else x for x in vec]
        acc = vec if acc is None else [a + b if b else a for a, b in zip(acc, vec)]
    return acc


def identity_residual(alg, identity, vectors):
    """Residuals of every clause of ``identity`` at the given concrete
    argument vectors (one list per clause, in clause order).  Used to
    spot-check multilinearity against the basis-tuple verdicts."""
    out = []
    for clause in IDENTITIES[_canonical_identity(alg, identity)]:
        args = tuple(vectors[: clause.arity])
        pairs = ((c, _evaluate(alg.ops, tree, args)) for c, tree in clause.signed_terms())
        out.append((clause.name, _signed_sum(pairs)))
    return out


def _shape(tree):
    """The tree with its variables erased."""
    return None if isinstance(tree, int) else (tree[0], _shape(tree[1]), _shape(tree[2]))


def _sparse(row):
    """The nonzero entries of a vector as (index, entry) pairs."""
    return [(m, x) for m, x in enumerate(row) if x != 0]


# The scan's cache (see the module docstring): one presentation's checks
# make up to 3 ops x (2 forms + a few tables) + 11 clause plans of entries.
# An entry keeps its owners, whose id()s key it, so no id is reused early.
_CACHE_CAP = 32
_cache = {}


def _cached(kind, owners, detail, build):
    """``build()``, memoized under ``kind``, the ids of ``owners`` and
    ``detail``; a hit moves to the end, and the least recently used entry
    is dropped."""
    key = (kind, *map(id, owners), detail)
    hit = _cache.pop(key, None)
    if hit is None or not all(map(operator.is_, hit[0], owners)):
        hit = owners, build()
        if len(_cache) >= _CACHE_CAP:
            del _cache[next(iter(_cache))]
    _cache[key] = hit
    return hit[1]


def _plan(clause):
    """What a scan reads off ``clause`` alone, built once (``_cached``):
    its signed terms, the ops it uses and how often, and for each subtree
    below a root the getter of its indices and its shape."""

    def build():
        terms = clause.signed_terms()
        labels, degrees = zip(*[(label, deg) for label, deg in zip(OPS, clause.degrees) if deg])
        subtrees = {
            sub: (operator.itemgetter(*_leaves(sub)), _shape(sub))
            for _, tree in terms
            for sub in _nodes(tree)[1:]
        }
        return terms, labels, degrees, subtrees

    return _cached("plan", (clause,), None, build)


def _flat(op):
    """The entries c[i][j][k] of ``op``, at (i n + j) n + k."""
    return [x for row in op.c for col in row for x in col]


def _sparse_tables(flat, n):
    """For an op laid out as ``_flat`` gives it: the table whose entry
    [i][j] holds the nonzero (k, c[i][j][k]), and its columns, so that
    e_i * e_j, e_i * last and last * e_j are lookups."""
    products = [_sparse(flat[k : k + n]) for k in range(0, len(flat), n)]
    table = [products[i * n : i * n + n] for i in range(n)]
    return table, list(zip(*table))


def _tree_slab(tables, plan, zero, one, n):
    """Slab reader for a clause: at a prefix (the indices of every variable
    but the last), the residual rows at prefix + (k,) for k = 0..n-1, given
    what ``_entries`` chose.  A subtree's value is its n sparse rows, row k
    its value at last = k; one without the last variable is one vector
    repeated, and it is memoized per scan by its shape and indices, so
    subtrees of one shape (such as x o y and y o x) share their values.
    e_i * e_j, e_i * last and last * e_j are table lookups, and each term's
    root product is added straight into the slab rows with the term's
    coefficient.  A subtree whose value is zero is memoized as no rows at
    all, so a product with it stops at once, and the memo of a zero or
    sparse op holds little beyond its keys."""
    repeat = itertools.repeat
    terms, _, _, subtrees = plan
    units = [[(k, one)] for k in range(n)]  # the identity's rows
    shared = {}
    memo = {  # a subtree's indices in t, and the values of its shape
        sub: (indices, shared.setdefault(shape, {})) for sub, (indices, shape) in subtrees.items()
    }

    def value(tree, t):
        if isinstance(tree, int):
            return units if t[tree] is None else repeat(units[t[tree]])
        label, left, right = tree
        if isinstance(left, int) and isinstance(right, int):
            i, j = t[left], t[right]
            table, columns = tables[label]
            if i is None:
                return columns[j]
            return table[i] if j is None else repeat(table[i][j])
        indices, cache = memo[tree]
        key = indices(t)
        if key not in cache:
            rows = [[zero] * n for _ in range(n if None in key else 1)]
            product(rows, 1, tree, t)
            rows = [_sparse(row) for row in rows]
            cache[key] = () if not any(rows) else rows if None in key else repeat(rows[0])
        return cache[key]

    def product(rows, coeff, tree, t):
        """Add coeff times the root product of ``tree`` into ``rows``."""
        table = tables[tree[0]][0]
        for acc, u, v in zip(rows, value(tree[1], t), value(tree[2], t)):
            for i, ui in u:
                wi = ui if coeff == 1 else coeff * ui
                ti = table[i]
                for j, vj in v:
                    w = wi * vj
                    for m, x in ti[j]:
                        acc[m] = acc[m] + w * x

    def rows_at(prefix):
        t = prefix + (None,)  # the last variable's index is the row
        rows = [[zero] * n for _ in range(n)]
        for coeff, tree in terms:
            product(rows, coeff, tree, t)
        return rows

    return rows_at


def _sorted_heads(rows_at, n, length):
    """(prefix, sign, slab) at every prefix of ``length`` distinct indices
    whose slab is not zero, in lexicographic order, for an alternating
    clause, whose slab is zero at a repeated index.  The slab is read at
    each sorted head only, and one that is not zero pushes every
    permutation of its head, with the sign of its sort, onto a heap.
    Before the next sorted head c is read, every pending prefix below c is
    popped: a permutation p of a later head c' has p >= sorted(p) = c' > c.
    The heap is all that is kept, one slab per head with a pending
    permutation."""
    import heapq  # here, so that commands that scan no such clause never load it

    pending = []
    for head in itertools.combinations(range(n), length):
        while pending and pending[0][0] < head:
            yield heapq.heappop(pending)
        rows = rows_at(head)
        if any(map(any, rows)):
            for perm in itertools.permutations(head):
                heapq.heappush(pending, (perm, _sign(perm), rows))
    while pending:
        yield heapq.heappop(pending)


def _entries(alg, clause):
    """What a scan of ``clause`` on ``alg`` reads: its ``_plan``, the
    ``_sparse_tables`` of each op it uses, the ``scalars.Packing`` that
    reads a residual back (None unless every op has an ``integer_form``,
    when the tables hold the ring's own entries) and the tables' zero and
    one.  A term of d ops sums n^(d-1) products of d entries, degrees[f]
    of them from op f.  The packing, and so its digit width B, is the
    clause's own; the cache keys are in the module docstring."""
    ring, n = alg.ring, alg.dim
    plan = terms, labels, degrees, _ = _plan(clause)
    d = sum(degrees)
    ops = [alg.ops[label] for label in labels]
    forms = [
        _cached("form", (op, ring), d > 2, lambda: integer_form(ring, _flat(op), d)) for op in ops
    ]
    if None in forms:
        packing, bits, zero, one = None, None, ring.zero(), ring.one()
    else:
        count = sum(abs(c) for c, _ in terms) * n ** (d - 1)
        packing = Packing(ring, forms, [(count, degrees)])
        bits, zero, one = packing.bits if len(packing.positions) > 1 else 0, 0, 1
    tables = {
        label: _cached(
            "tables",
            (op, ring),
            bits,
            lambda: _sparse_tables(_flat(op) if packing is None else packing.pack(form[1]), n),
        )
        for label, op, form in zip(labels, ops, forms)
    }
    return plan, tables, packing, zero, one


def clause_failures(alg, clause):
    """Every basis tuple at which ``clause`` fails on ``alg``, as (clause
    name, 0-based tuple, residual), tuples in lexicographic order.

    The entries are chosen once (``_entries``), and the slab reader gives
    the residuals at a prefix for every last index at once, on either
    format.  An alternating clause is read at its sorted heads only
    (``_sorted_heads``), and a failure at a permuted head comes out as soon
    as every smaller prefix has, so taking the first failure reads no slab
    past the first failing sorted head.  An alternating clause in more
    variables than the dimension plus one has no head of distinct indices,
    and so nothing to scan.
    """
    if clause.alternating and alg.dim < clause.arity - 1:
        return
    plan, tables, packing, zero, one = _entries(alg, clause)
    n, length = alg.dim, clause.arity - 1
    rows_at = _tree_slab(tables, plan, zero, one, n)
    if clause.alternating:
        slabs = _sorted_heads(rows_at, n, length)
    else:
        prefixes = itertools.product(range(n), repeat=length)
        slabs = ((prefix, 1, rows_at(prefix)) for prefix in prefixes)
    for prefix, sign, rows in slabs:
        for k, res in enumerate(rows):
            # every scalar type is false exactly when zero
            if any(res):
                res = [sign * r for r in res] if packing is None else packing.read(res, sign)
                if res is not None:
                    yield clause.name, prefix + (k,), res


def identity_failures(alg, identity):
    """Every basis tuple at which a clause of ``identity`` fails, as
    (clause name, 0-based tuple, residual): clause by clause, tuples in
    lexicographic order.  A generator, so taking the first one ends the
    scan (and an unknown identity or missing op raises on the first one)."""
    for clause in IDENTITIES[_canonical_identity(alg, identity)]:
        yield from clause_failures(alg, clause)


def failure_report(name, hit):
    """The report named ``name`` on the first failure ``hit`` of a scan, or
    a pass when ``hit`` is None."""
    if hit is None:
        return IdentityReport(name, True, None)
    clause, t, res = hit
    return IdentityReport(name, False, Counterexample(tuple(i + 1 for i in t), tuple(res), clause))


def check_identity(alg: AlgebraPresentation, identity) -> IdentityReport:
    """Exhaustively verify a multilinear identity on all basis tuples."""
    hit = next(identity_failures(alg, identity), None)
    return failure_report(_identity_name(identity), hit)


def first_failure(alg, identities, name=None):
    """The report of the first of ``identities`` to fail, renamed ``name``
    if given, else a pass named ``name``: one ``check_identity`` call each."""
    for identity in identities:
        report = check_identity(alg, identity)
        if not report.passed:
            return report if name is None else IdentityReport(name, False, report.counterexample)
    return IdentityReport(name, True, None)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def commutator(op: BilinearOp) -> BilinearOp:
    """The bracket c'[i][j][k] = c[i][j][k] - c[j][i][k]."""
    return op - op.transpose()


def is_derivation(dot: BilinearOp, deriv: LinearMap) -> IdentityReport:
    """Leibniz check D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all basis pairs."""
    n = dot.dim
    for i in range(n):
        for j in range(n):
            lhs = deriv.apply(dot.col(i, j))
            ei = _basis_vector(n, i, dot.ring)
            ej = _basis_vector(n, j, dot.ring)
            rhs = vadd(dot.apply(deriv.col(i), ej), dot.apply(ei, deriv.col(j)))
            res = vsub(lhs, rhs)
            if not is_zero_vector(res):
                return IdentityReport(
                    "DERIVATION",
                    False,
                    Counterexample((i + 1, j + 1), tuple(res), "leibniz"),
                )
    return IdentityReport("DERIVATION", True, None)


def derivation_rows(op: BilinearOp, weight):
    """weight f(e_p * e_q) - f(e_p) * e_q - e_p * f(e_q) as linear rows in f,
    one dict row per (p, q; coordinate l) in that order, with f[i][j] in
    column i*n + j (the ``LinearMap`` layout).  Weight 1 gives derivations
    of ``op``, weight 2 its 1/2-derivations."""
    n, c, zero = op.dim, op.c, op.ring.zero()
    rows = []
    for p in range(n):
        for q in range(n):
            v = c[p][q] if weight == 1 else [weight * x for x in c[p][q]]
            for l in range(n):
                row = {l * n + j: x for j, x in enumerate(v) if x}
                for i in range(n):
                    x, y = c[i][q][l], c[p][i][l]
                    if x:
                        row[i * n + p] = row.get(i * n + p, zero) - x
                    if y:
                        row[i * n + q] = row.get(i * n + q, zero) - y
                rows.append(row)
    return rows


def gelfand_construct(dot: BilinearOp, deriv: LinearMap) -> BilinearOp:
    """The product x o y = x . D(y) built from a commutative associative
    product and one of its derivations; the result satisfies both Novikov
    identities."""
    ca = first_failure(presentation_of(dot=dot), ("COMM_ASSOC",))
    if not ca.passed:
        raise NotCommAssoc("dot is not commutative associative", ca)
    der = is_derivation(dot, deriv)
    if not der.passed:
        raise NotDerivation("the map is not a derivation of dot", der)
    n, ring = dot.dim, dot.ring
    return BilinearOp(
        ring,
        tuple(
            tuple(tuple(dot.apply(_basis_vector(n, i, ring), deriv.col(j))) for j in range(n))
            for i in range(n)
        ),
    )


def derivation_bracket(dot: BilinearOp, deriv: LinearMap) -> BilinearOp:
    """[x, y] = x . D(y) - y . D(x); the commutator of the construction above."""
    return commutator(gelfand_construct(dot, deriv))


class SubalgebraResult(Record):
    __slots__ = ("closed", "failing", "induced")  # failing: (op label, a, b), 1-based


def subalgebra_check(alg: AlgebraPresentation, span) -> SubalgebraResult:
    """Is the span of the given independent vectors closed under every op?

    If closed, returns the induced presentation in the span basis (labels
    f1..fr).  Raises DependentSpan when the vectors are not independent.
    """
    span = [list(alg.ring.coerce(x) for x in v) for v in span]
    r = len(span)
    if r == 0:
        raise DependentSpan("empty span")
    one = alg.ring.one()
    coords = factor([{t: v[i] for t, v in enumerate(span)} for i in range(alg.dim)], one, r)
    if len(coords.pivot_cols) < r:
        raise DependentSpan("span vectors are linearly dependent")

    induced_entries = {}
    for label in sorted(alg.ops):
        op = alg.ops[label]
        for a in range(r):
            for b in range(r):
                w = op.apply(span[a], span[b])
                sol = solve_affine(coords, w, one)
                if not sol.feasible:
                    return SubalgebraResult(False, (label, a + 1, b + 1), None)
                for t in range(r):
                    induced_entries.setdefault(label, {})[(a, b, t)] = sol.particular[t]
    ops = {
        label: BilinearOp.from_entries(r, alg.ring, entries)
        for label, entries in induced_entries.items()
    }
    induced = AlgebraPresentation(
        r, alg.ring, tuple(f"f{t + 1}" for t in range(r)), ops
    )
    return SubalgebraResult(True, None, induced)


# ---------------------------------------------------------------------------
# Stock algebras used across tests, scripts and the CLI
# ---------------------------------------------------------------------------


def truncated_poly_dot(n, ring=QQ):
    """Multiplication of K[t]/(t^n) on the basis 1, t, ..., t^(n-1)."""
    entries = {}
    one = ring.one()
    for i in range(n):
        for j in range(n):
            if i + j < n:
                entries[(i, j, i + j)] = one
    return BilinearOp.from_entries(n, ring, entries)


def poly_labels(n):
    return tuple("1" if k == 0 else ("t" if k == 1 else f"t^{k}") for k in range(n))


def euler_derivation(n, ring=QQ):
    """D(t^k) = k t^k, the canonical derivation of K[t]/(t^n)."""
    rows = [[ring.coerce(j) if i == j else ring.zero() for j in range(n)] for i in range(n)]
    return LinearMap(ring, tuple(tuple(row) for row in rows))


def euler_gelfand(n, ring=QQ) -> AlgebraPresentation:
    """K[t]/(t^n) with t^i o t^j = j t^(i+j) and its commutator bracket."""
    dot = truncated_poly_dot(n, ring)
    circ = gelfand_construct(dot, euler_derivation(n, ring))
    return AlgebraPresentation(
        n,
        ring,
        poly_labels(n),
        {"dot": dot, "circ": circ, "bracket": commutator(circ)},
    )


def bounded_ddt_bracket(max_deg, ring=QQ, strict=True):
    """[f, g] = f g' - f' g on polynomials of degree <= max_deg.

    On monomials [t^p, t^q] = (q - p) t^(p+q-1).  Products whose degree
    exceeds max_deg are dropped; with strict=True dropping a term with a
    nonzero coefficient raises OutOfRange instead.
    """
    n = max_deg + 1
    entries = {}
    for p in range(n):
        for q in range(n):
            coeff = q - p
            if coeff == 0:
                continue
            deg = p + q - 1
            if 0 <= deg <= max_deg:
                entries[(p, q, deg)] = ring.coerce(coeff)
            elif strict:
                raise OutOfRange(
                    f"[t^{p}, t^{q}] has degree {deg}, outside 0..{max_deg}"
                )
    return BilinearOp.from_entries(n, ring, entries)

