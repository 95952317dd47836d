"""Equivalence of truncated deformations.

Two deformations of the same product are equivalent when some
f_h = id + f_1 h + f_2 h^2 + ... intertwines them:
f_h(x *_h y) = f_h(x) *'_h f_h(y), exactly through h^(order-1).

Three tools:

* verify_witness     -- check a candidate f_h on all basis pairs, in one
                        loop: on packed integers (``scalars.Packing``) over
                        Q, on series gathered from the layers otherwise
* solve_equivalence  -- order-by-order linear solver in two passes over one
                        loop: over the field with every free coordinate at
                        0, which can only find a witness, then, where that
                        pass meets an infeasible order, over polynomial
                        parameters (a sound semidecision: NotEquivalent only
                        on parameter-free obstructions, Unknown on quadratic
                        ones)
* family2d_equiv     -- the closed-form criterion for the two-parameter
                        dim-2 family, which is a complete decision there
"""

from __future__ import annotations

from itertools import starmap
from operator import mul

from .algebra import BilinearOp, Counterexample, IdentityReport, LinearMap, derivation_rows
from .deform import _family_frame, family2d_construct
from .errors import BadScalar, DimMismatch, OrderMismatch, Record
from .linalg import factor, general_solution, solve_affine
from .scalars import (
    Packing, ParamPoly, PolynomialRing, SeriesRing, TruncSeries, h_valuation, integer_form,
    join_fields, packed_format, series_invert, substitute_params,
)


class EquivalenceWitness(Record):
    """f_h = sum_k f[k] h^k with f[0] = id."""

    __slots__ = ("order", "f")  # f: LinearMaps, one per power of h

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        f = self.f
        if len(f) != self.order:
            raise ValueError("need one layer map per power of h")
        if not f[0].is_identity():
            raise ValueError("the constant layer of a witness must be the identity")
        dims = {m.dim for m in f}
        if len(dims) != 1:
            raise DimMismatch("witness layers have mixed dimensions")

    @property
    def dim(self):
        return self.f[0].dim

    @classmethod
    def from_layers(cls, ring, dim, layers):
        """id + sum_k f_k h^k, the rows of f_k at ``layers[k - 1]``."""
        maps = [LinearMap(ring, tuple(map(tuple, rows))) for rows in layers]
        return cls(len(maps) + 1, (LinearMap.identity(dim, ring), *maps))

    @classmethod
    def identity(cls, dim, order, ring):
        return cls.from_layers(ring, dim, [[[ring.zero()] * dim] * dim] * (order - 1))


def _refuse_parameters(d1, d2):
    """Equivalence is decided over Q or Q(i): refuse deformations whose
    structure constants carry parameters."""
    names = [v for d in (d1, d2) if isinstance(d.ring, PolynomialRing) for v in d.ring.variables]
    if names:
        raise BadScalar(
            "equivalence is decided over Q or Q(i), but the deformations carry "
            f"parameters {', '.join(dict.fromkeys(names))}"
        )


def _common_frame(d1, d2):
    """The field of both deformations (``scalars.join_fields``)."""
    if d1.dim != d2.dim:
        raise DimMismatch(f"deformation dims differ: {d1.dim} vs {d2.dim}")
    if d1.order != d2.order:
        raise OrderMismatch(f"deformation orders differ: {d1.order} vs {d2.order}")
    return join_fields(d1.ring, d2.ring)


def _gate_entries(d1, d2, w):
    """mu1, mu2 and F's layers as flat entry lists ((i, j, k) at
    (i n + j) n + k, F's (i, j) at i n + j), and the ``Packing`` that reads
    a defect back, or None.  Packed when series over the field of d1 and d2
    have a packed format and every entry fits it (a list holds their
    coefficient runs): a defect sums n products F(mu1(x, y)) and n^2
    products mu2(F x, F y).  Otherwise TruncSeries gathered from the layers."""
    n, order, field = d1.dim, d1.order, join_fields(d1.ring, d2.ring)
    flat = [[x for op in d.mu for row in op.c for col in row for x in col] for d in (d1, d2)]
    flat.append([x for f in w.f for row in f.m for x in row])
    ring = SeriesRing(field, order)
    forms = [integer_form(field, v, 1) for v in flat] if packed_format(ring) else [None]
    if None not in forms:
        packing = Packing(ring, forms, [(n, (1, 0, 1)), (n * n, (0, 1, 2))])
        (op1, op2, fm), (m1, m2) = [packing.pack(v) for _, v, _ in forms], packing.multipliers
        return [x * m1 for x in op1], [x * m2 for x in op2], fm, packing
    sizes = (n**3, n**3, n * n)  # entries per layer
    series = [[TruncSeries(order, v[m::s]) for m in range(s)] for v, s in zip(flat, sizes)]
    return (*series, None)


def verify_witness(d1, d2, w: EquivalenceWitness) -> IdentityReport:
    """Does w intertwine d1 into d2?  Checks F(e_i *_1 e_j) = F(e_i) *_2
    F(e_j) on every basis pair through the full truncation order, in one
    loop on the entries of ``_gate_entries``, packed integers or
    TruncSeries.  It shares no code with the solver's R_k."""
    _common_frame(d1, d2)
    if w.dim != d1.dim:
        raise DimMismatch(f"witness dim {w.dim} does not match deformation dim {d1.dim}")
    if w.order != d1.order:
        raise OrderMismatch(f"witness order {w.order} does not match deformation order {d1.order}")
    n = d1.dim
    op1, op2, fm, packing = _gate_entries(d1, d2, w)
    op2 = [[(l, z) for l, z in enumerate(op2[m : m + n]) if z] for m in range(0, n**3, n)]
    # F = id + O(h), so every row holds its diagonal entry and each sum below
    # has a term: the start 0 leaves every value and type unchanged
    frows = [[(k, x) for k, x in enumerate(fm[l * n : (l + 1) * n]) if x] for l in range(n)]
    fcols = [[(l, fm[l * n + j]) for l in range(n) if fm[l * n + j]] for j in range(n)]
    for i in range(n):
        for j in range(n):
            m = (i * n + j) * n
            res = [sum(x * op1[m + k] for k, x in row) for row in frows]
            for a, x in fcols[i]:
                for b, y in fcols[j]:
                    xy = x * y
                    for l, z in op2[a * n + b]:
                        res[l] -= xy * z
            # every scalar type is false exactly when zero
            if any(res):
                res = res if packing is None else packing.read(res)
                if res is not None:
                    hit = Counterexample((i + 1, j + 1), tuple(res), "intertwining")
                    return IdentityReport("EQUIVALENCE", False, hit)
    return IdentityReport("EQUIVALENCE", True, None)


class EquivVerdict(Record):
    """``tag`` is "equivalent" | "not_equivalent" | "unknown"."""

    __slots__ = ("tag", "witness", "failure_order", "reason")
    _defaults = {"witness": None, "failure_order": None, "reason": ""}

    @property
    def is_equivalent(self):
        return self.tag == "equivalent"

    @property
    def is_not_equivalent(self):
        return self.tag == "not_equivalent"

    @property
    def is_unknown(self):
        return self.tag == "unknown"


def equivalent(witness):
    return EquivVerdict("equivalent", witness=witness)


def not_equivalent(order, reason):
    return EquivVerdict("not_equivalent", failure_order=order, reason=reason)


def unknown(reason):
    return EquivVerdict("unknown", reason=reason)


def _verified(d1, d2, witness, what):
    """equivalent(witness) once verify_witness accepts it; a rejected
    witness is a defect of the ``what`` decider, not a verdict."""
    report = verify_witness(d1, d2, witness)
    if not report.passed:
        raise AssertionError(
            f"internal error: {what} witness failed verification "
            f"at {report.counterexample.indices}"
        )
    return equivalent(witness)


# ---------------------------------------------------------------------------
# Order-by-order solver
# ---------------------------------------------------------------------------
#
# Write F = id + f_1 h + ... and G(x,y) = F(x *_h y) - F(x) *'_h F(y).  The
# degree-k layer of G splits as  delta(f_k) + R_k  where
#
#     delta(f)(x,y) = f(x.y) - f(x).y - x.f(y)      (dot = the shared mu[0])
#
# and R_k collects only layers below k:
#
#     R_k(x,y) = sum_{a<k} f_a(mu1_{k-a}(x,y))
#                - sum_{a,b<k, a+b<=k} mu2_{k-a-b}(f_a(x), f_b(y))
#
# ``_residual_terms`` reads R_k straight from the layer ops of both
# deformations and the committed layers f_0 = id, f_1, ..., f_{k-1}, skipping
# zero factors; no series is formed.  So each order is an affine-linear solve
# against the same coefficient matrix, factored once.  ``_solve`` runs the
# order-by-order loop in one of two passes, on the same R_k code:
#
#   field pass     -- the layers hold field scalars.  Each order commits its
#                     particular solution, every free coordinate at 0, and
#                     the first infeasible order ends the pass undecided.
#   symbolic pass  -- free coordinates of earlier layers are carried as fresh
#                     polynomial parameters rather than being fixed eagerly:
#                     a later order may constrain them.  Stranded residuals
#                     (zero rows of the reduced system with nonzero
#                     right-hand side) are then classified:
#
#       * parameter-free nonzero      -> genuine obstruction, NotEquivalent(k)
#       * affine-linear in parameters -> absorbed as a constraint binding the
#                                        earlier free coordinates, solve goes on
#       * nonlinear in parameters     -> Unknown (deciding it would need
#                                        quadratic-system reasoning)
#
#     Its witness substitutes the accumulated constraint solution with every
#     remaining free coordinate at zero.
#
# solve_equivalence runs the field pass, and the symbolic pass from the start
# only where the field pass is undecided.  So Equivalent comes from either
# pass, NotEquivalent and Unknown only from the symbolic one.  Where both
# would find a witness, it is the same: setting every parameter to 0 is a
# ring map, so at 0 the symbolic pass's right-hand sides, solutions and
# stranded residuals are the field pass's, as long as every solved parameter
# is 0 there too.  When the field pass is feasible at every order, each
# stranded residual vanishes at 0, so each absorbed constraint has a zero
# constant term and solves its pivot to an expression that is 0 at 0; by
# induction the final assignment is all zeros and the symbolic layers are
# the field pass's particular solutions.  A contradiction (a nonzero
# constant residual) cannot arise there either.  verify_witness re-checks
# every witness through every order, with code that shares nothing with R_k.


class _ParamConstraints:
    """Triangular solved form for affine constraints on the free symbols:
    maps a symbol to an affine polynomial in still-unsolved symbols."""

    def __init__(self, pring, field):
        self.pring = pring
        self.field = field
        self.solved = {}

    def reduce(self, poly: ParamPoly) -> ParamPoly:
        if not self.solved or not (poly.used_variables() & self.solved.keys()):
            return poly
        return poly.subs(self.solved)

    CONTRADICTION = "contradiction"
    NONLINEAR = "nonlinear"
    OK = "ok"

    def absorb(self, poly: ParamPoly) -> str:
        """Require poly = 0; returns OK / CONTRADICTION / NONLINEAR."""
        r = self.reduce(poly)
        if r.is_zero():
            return self.OK
        if not r.is_affine():
            return self.NONLINEAR
        const, linear = r.affine_parts()
        if not linear:
            return self.CONTRADICTION
        # pivot on the newest symbol so older choices stay free
        pivot = max(linear, key=self.pring.variables.index)
        coeff = linear[pivot]
        expr = (self.pring.var(pivot) * coeff - r) / coeff
        self.solved = {
            name: rhs.subs({pivot: expr}) for name, rhs in self.solved.items()
        }
        self.solved[pivot] = expr
        return self.OK

    def final_assignment(self):
        """Every symbol bound: unsolved ones at zero, solved ones evaluated."""
        zeros = {
            name: self.field.zero()
            for name in self.pring.variables
            if name not in self.solved
        }
        out = dict(zeros)
        for name, expr in self.solved.items():
            out[name] = self.field.coerce(expr.substitute(zeros))
        return out


def _delta_matrix(dot: BilinearOp):
    """The linearized intertwining operator in the n^2 unknowns m[i][j]
    (flattened i*n+j): the Leibniz rows of ``dot``, one per (pair p,q;
    coordinate l), factored once for the solves at every order."""
    return factor(derivation_rows(dot, 1), dot.ring.one(), dot.dim**2)


def _residual_terms(k, m1, m2, cols, one):
    """sum_{a<k} f_a(m1_{k-a}(e_p, e_q)) + sum_{a,b<k, a+b<=k}
    m2_{k-a-b}(f_a e_p, f_b e_q), at each coordinate l, as a list of (x, c)
    pairs meaning sum x * c, one list per (p, q, l) in the order
    (p n + q) n + l.  ``m1``, ``m2`` hold layer ops' entries [i][j][l] and
    ``cols[a][j]`` the nonzero entries (i, (f_a)_ij) of column j of f_a,
    a < k, whose identity entries are ``one``.  With m1 = -mu1 and
    m2 = mu2 the sums are -R_k."""
    n = len(cols[0])
    out = []
    for p in range(n):
        for q in range(n):
            acc = [[] for _ in range(n)]
            for a in range(k):
                v = m1[k - a][p][q]
                for j in range(n):
                    if v[j]:
                        for l, x in cols[a][j]:
                            acc[l].append((x, v[j]))
            for a in range(k):
                for b in range(min(k - 1, k - a) + 1):
                    op = m2[k - a - b]
                    for i, x in cols[a][p]:
                        for j, y in cols[b][q]:
                            w = op[i][j]
                            if not any(w):
                                continue
                            xy = y if x is one else x if y is one else x * y
                            for l in range(n):
                                if w[l]:
                                    acc[l].append((xy, w[l]))
            out += acc
    return out


def _poly_sum(ring, terms):
    """sum x * c over (x, c) pairs, x a ParamPoly in ``ring`` and c a
    field scalar, collected term by term."""
    acc = {}
    for x, c in terms:
        for mono, coeff in x.sparse.items():
            acc[mono] = acc.get(mono, 0) + coeff * c
    return ParamPoly(ring, acc)


def _solve(d1, d2, field, amat, symbolic):
    """The order-by-order loop against ``amat``, the factored
    ``_delta_matrix``: the field pass (``symbolic`` false) returns None at
    the first infeasible order, the symbolic pass a verdict."""
    n, order = d1.dim, d1.order
    m1 = [[[[-x if x else x for x in v] for v in row] for row in op.c] for op in d1.mu]
    m2 = [op.c for op in d2.mu]
    if symbolic:
        names = tuple(f"s{k}_{t}" for k in range(1, order) for t in range(n * n))
        ring = PolynomialRing(field, names)
        constraints = _ParamConstraints(ring, field)
    else:
        ring = field
    zero, one = ring.zero(), ring.one()

    committed = []  # committed[k-1][i][j]: the entry of f_k in ring
    # cols[a][j]: the nonzero entries (i, (f_a)_ij) of column j of f_a
    cols = [[[(j, one)] for j in range(n)]]

    for k in range(1, order):
        terms = _residual_terms(k, m1, m2, cols, one)
        if symbolic:
            rhs = [constraints.reduce(_poly_sum(ring, t)) for t in terms]
        else:
            rhs = [sum(starmap(mul, t), zero) for t in terms]
        sol = solve_affine(amat, rhs)
        if not sol.feasible:
            if not symbolic:
                return None
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
            sol = solve_affine(amat, [constraints.reduce(r) for r in rhs])
            if not sol.feasible:
                raise AssertionError(
                    "internal error: system stayed infeasible after absorbing "
                    "its stranded residuals"
                )
        names_k = [f"s{k}_{col}" for col in sol.free_cols] if symbolic else ()
        flat = general_solution(sol, ring, names_k)
        layer = [flat[i * n : (i + 1) * n] for i in range(n)]
        committed.append(layer)
        cols.append(
            [[(i, layer[i][j]) for i in range(n) if layer[i][j]] for j in range(n)]
        )

    if symbolic:
        zeros = constraints.final_assignment()
        committed = [
            [[field.coerce(substitute_params(x, zeros)) for x in row] for row in layer]
            for layer in committed
        ]
    return _verified(d1, d2, EquivalenceWitness.from_layers(field, n, committed), "solved")


def solve_equivalence(d1, d2) -> EquivVerdict:
    """Search for an intertwining witness, one power of h at a time, over Q
    or Q(i): the field pass, then the symbolic pass where that is
    undecided (see above); deformations with parameters raise BadScalar."""
    _refuse_parameters(d1, d2)
    field = _common_frame(d1, d2)
    if not d1.mu[0].entries_equal(d2.mu[0]):
        return not_equivalent(0, "base products differ at h^0")
    amat = _delta_matrix(d1.mu[0])
    verdict = _solve(d1, d2, field, amat, False)
    return verdict or _solve(d1, d2, field, amat, True)


# ---------------------------------------------------------------------------
# Closed-form criterion for the dim-2 family
# ---------------------------------------------------------------------------
#
# For the family with parameters (a_h, b_h), equivalence to (a'_h, b'_h)
# holds exactly when a_h = a'_h and there are eps_h = 1 + O(h) and mu_h with
#
#     b'_h - b_h = b_h (eps_h - 1) - mu_h g,   g = h (a_h + h)   (mod h^order).
#
# The right sides form the ideal (h b_h, g), and every ideal of K[h]/(h^order)
# is a power of h: it is (h^m), m = min(v(b_h) + 1, v(g), order), v the
# h-valuation.  So the pair is equivalent iff v(b'_h - b_h) >= m, and
# otherwise that valuation is the failure order.  The witness is
# f(e2) = eps_h e2, f(e1) = e1 + mu_h h e2; mu_h and eps_h - 1 each come from
# one series division, cut to the coefficients the equation determines.


def family2d_equiv(a_h, b_h, a2_h, b2_h, field=None) -> EquivVerdict:
    """Decide equivalence of the family deformations (a_h, b_h) and
    (a2_h, b2_h) by the valuation criterion above; Equivalent verdicts carry
    a verified witness."""
    order, field, (a_h, b_h, a2_h, b2_h) = _family_frame((a_h, b_h, a2_h, b2_h), field)

    for k in range(order):
        if a_h.coeffs[k] != a2_h.coeffs[k]:
            return not_equivalent(k, f"a_h coefficients differ at h^{k}")

    sring = SeriesRing(field, order)
    h = sring.h()
    g = h * (a_h + h)
    w = b2_h - b_h
    v_b, v_g, v_w = h_valuation(b_h), h_valuation(g), h_valuation(w)
    if v_w < min(v_b + 1, v_g, order):
        return not_equivalent(
            v_w, f"no admissible ε_h: the b-coefficient constraint at h^{v_w} is infeasible"
        )

    top = min(v_b + 1, order)  # below h^top, b_h (eps_h - 1) vanishes
    mu = eps = sring.zero()  # mu_h and eps_h - 1
    if v_g < top:
        mu = -(w.shift_down(v_g) * series_invert(g.shift_down(v_g)))
        mu = TruncSeries(order, mu.coeffs[: top - v_g])
    if top < order:
        eps = (w + g * mu).shift_down(v_b) * series_invert(b_h.shift_down(v_b))
        eps = TruncSeries(order, eps.coeffs[: order - v_b])
    layers = [((field.zero(),) * 2, (mu.coeffs[k - 1], eps.coeffs[k])) for k in range(1, order)]
    d1 = family2d_construct(a_h, b_h, field)
    d2 = family2d_construct(a2_h, b2_h, field)
    return _verified(d1, d2, EquivalenceWitness.from_layers(field, 2, layers), "family")
