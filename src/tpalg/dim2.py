"""The complete two-dimensional story.

* the catalog of 2-dim transposed Poisson algebras with bracket [e1,e2]=e2
* the linear solver for products whose right multiplications are
  1/2-derivations of a given bracket
* basis normalization of dim-2 deformations into the two-parameter family
* the normal-form classifier for that family, with verified witnesses
"""

from __future__ import annotations

import math

from .algebra import (
    BilinearOp,
    IdentityReport,
    commutator,
    derivation_rows,
    failure_report,
    first_failure,
    identity_failures,
    presentation_of,
)
from .deform import (
    TruncatedDeformation,
    _family_frame,
    check_novikov_deformation,
    family2d_construct,
    family_layer,
)
from .errors import (
    BadScalar,
    NotAQuantization,
    NotLie,
    OutOfRange,
    PreconditionViolated,
    Record,
)
from .linalg import factor, general_solution, solve_affine
from .scalars import (
    QI,
    QQ,
    PolynomialRing,
    SeriesRing,
    TruncSeries,
    h_valuation,
    join_fields,
    series_invert,
)

# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class CatalogEntry(Record):
    """name is "A00" | "A01" | "Alam"; lam is None except for "Alam"."""

    __slots__ = ("name", "lam", "algebra")


def _with_bracket_e2(dot):
    """The dim-2 presentation of ``dot`` with the bracket [e1,e2]=e2."""
    one = dot.ring.one()
    bracket = BilinearOp.from_entries(2, dot.ring, {(0, 1, 1): one, (1, 0, 1): -one})
    return presentation_of(dot=dot, bracket=bracket)


def catalog(lam=None, field=QQ):
    """The three 2-dim transposed Poisson algebras with bracket [e1,e2]=e2:
    zero product, e1.e1=e2, and e1.e1=lam e1 with e1.e2=e2.e1=lam e2.
    ``lam`` defaults to a symbolic parameter."""
    if lam is None:
        ring = PolynomialRing(field, ("lam",))
        lam_value = ring.var("lam")
    else:
        ring = field
        lam_value = field.coerce(lam)
        if lam_value == 0:
            raise ValueError("lam must be nonzero")
    # the dots are h^0 layers of the family: (a, b) = (0, 0), (0, 1), (lam, 0)
    zero, one = field.zero(), field.one()
    dots = (
        ("A00", None, family_layer(zero, zero, field, zero)),
        ("A01", None, family_layer(zero, one, field, zero)),
        ("Alam", lam_value, family_layer(lam_value, ring.zero(), ring, ring.zero())),
    )
    return [CatalogEntry(name, value, _with_bracket_e2(dot)) for name, value, dot in dots]


# ---------------------------------------------------------------------------
# Compatible-Novikov solver
# ---------------------------------------------------------------------------


class NovikovCompatibleFamily(Record):
    """Affine family of products whose commutator is the given bracket and
    which satisfy the bracket-compatibility identity; free parameters appear
    as symbols p1, p2, ...  ``obstructions`` lists every nonzero
    right-commutativity residual of the family (empty iff the whole family
    is Novikov)."""

    __slots__ = ("feasible", "param_names", "op", "rightcomm_report", "obstructions")

    @property
    def all_novikov(self):
        return self.feasible and self.rightcomm_report.passed


def solve_novikov_compatible(bracket: BilinearOp) -> NovikovCompatibleFamily:
    """Solve {commutator(o) = bracket, bracket-compatibility} for the n^3
    structure constants of o, over the bracket's field, Q or Q(i).
    Compatibility says each R_k = o(-, e_k) is a 1/2-derivation of the
    bracket: one block of rows in R_k, factored once, whose reduced rows
    span its row space and join the commutator rows for every k."""
    field = bracket.ring
    if field not in (QQ, QI):
        carried = (
            f"parameters {', '.join(field.variables)}"
            if isinstance(field, PolynomialRing)
            else f"series truncated at order {field.order}"
        )
        raise BadScalar(
            f"compatible products are solved over Q or Q(i), but the bracket carries {carried}"
        )
    lie = first_failure(presentation_of(bracket=bracket), ("LIE",))
    if not lie.passed:
        raise NotLie("the input bracket is not a Lie bracket", lie)

    n = bracket.dim
    nun = n * n * n
    zero, one = field.zero(), field.one()

    def idx(i, j, k):
        return (i * n + j) * n + k

    br = bracket.c
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                rows.append({idx(i, j, l): one, idx(j, i, l): -one})
                rhs.append(br[i][j][l])
    # column l*n + a of the block holds R_k[l][a] = o[a][k][l]
    half = factor(derivation_rows(bracket, 2), one, n * n).reduced
    for k in range(n):
        cols = [idx(a, k, l) for l in range(n) for a in range(n)]
        rows += ({cols[c]: x for c, x in row.items()} for row in half)
    rhs += [zero] * (len(rows) - len(rhs))

    sol = solve_affine(rows, rhs, one, nun)
    if not sol.feasible:
        return NovikovCompatibleFamily(False, (), None, None, ())

    names = tuple(f"p{t + 1}" for t in range(len(sol.free_cols)))
    pring = PolynomialRing(field, names)
    flat = general_solution(sol, pring, names)
    cells = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    op = BilinearOp.from_entries(n, pring, {cell: flat[idx(*cell)] for cell in cells})

    if not commutator(op).entries_equal(bracket.coerce_to(pring)):
        raise AssertionError("internal error: solved family has wrong commutator")

    failures = tuple(identity_failures(presentation_of(circ=op), "NOV_RIGHTCOMM"))
    report = failure_report("NOV_RIGHTCOMM", failures[0] if failures else None)
    obstructions = tuple((tuple(i + 1 for i in t), tuple(res)) for _, t, res in failures)
    return NovikovCompatibleFamily(True, names, op, report, obstructions)


def _join_rings(r1, r2):
    """The ring of two operands: over ``join_fields`` of their fields, and
    over the parameters of both, r1's first, when either one has any."""
    polys = [r for r in (r1, r2) if isinstance(r, PolynomialRing)]
    base = join_fields(*(r.base if isinstance(r, PolynomialRing) else r for r in (r1, r2)))
    if not polys:
        return base
    return PolynomialRing(base, tuple(dict.fromkeys(v for r in polys for v in r.variables)))


def np_compatibility(dot: BilinearOp, circ: BilinearOp) -> IdentityReport:
    """Are (dot, circ) compatible in the Novikov-Poisson sense?  Runs the
    two mixed identities; over symbolic entries "pass" certifies the whole
    parametric family."""
    ring = _join_rings(dot.ring, circ.ring)
    pres = presentation_of(dot=dot.coerce_to(ring), circ=circ.coerce_to(ring))
    return first_failure(pres, ("NP1", "NP2"), "NP1+NP2")


# ---------------------------------------------------------------------------
# Basis normalization (dim 2)
# ---------------------------------------------------------------------------


class NormalizedBasis(Record):
    """Change of basis putting a dim-2 deformation into the two-parameter
    family shape; ``basis`` holds the coordinate columns of the new basis
    vectors (entries are truncated series)."""

    __slots__ = ("basis", "a_h", "b_h", "witness")


def normalize_basis(d: TruncatedDeformation) -> NormalizedBasis:
    """Rescale e1 and absorb an e1-component into e2 so that the deformed
    products take the family shape; returns the new basis, the recovered
    (a_h, b_h) and the witness mapping the family onto d."""
    from .equiv import EquivalenceWitness, verify_witness

    if d.dim != 2:
        raise PreconditionViolated("basis normalization is specific to dim 2")
    if d.order < 2:
        raise ValueError("order must be at least 2 to see the limit bracket")
    nov = check_novikov_deformation(d)
    if not nov.passed:
        raise PreconditionViolated(
            "input is not a Novikov deformation", nov.counterexample
        )
    op = d.series_op()
    sring = d.series_ring()
    s1, s2 = (x - y for x, y in zip(op.col(0, 1), op.col(1, 0)))  # the commutator
    for coeff, where in (
        (s1.coeffs[0], "e1-component of the commutator at h^0"),
        (s1.coeffs[1], "e1-component of the commutator at h^1"),
        (s2.coeffs[0], "e2-component of the commutator at h^0"),
    ):
        if coeff != 0:
            raise PreconditionViolated(f"nonzero {where}", coeff)
    if s2.coeffs[1] != 1:
        raise PreconditionViolated(
            "e2-component of the commutator at h^1 is not 1", s2.coeffs[1]
        )

    mu = s1.shift_down(1)  # == 0 (mod h)
    nu = s2.shift_down(1)  # == 1 (mod h)
    nu_inv = series_invert(nu)
    e1_new = [nu_inv, sring.zero()]
    e2_new = [nu_inv * mu, sring.one()]
    tmat = [[e1_new[0], e2_new[0]], [e1_new[1], e2_new[1]]]
    # the e2-coordinates of e2'.e1' and e1'.e1' in the new basis, which
    # are their e2-coordinates in the old one: T^-1 has second row (0, 1)
    a_h = op.apply(e2_new, e1_new)[1]
    b_h = op.apply(e1_new, e1_new)[1]

    layers = [[[t.coeffs[k] for t in row] for row in tmat] for k in range(1, d.order)]
    witness = EquivalenceWitness.from_layers(d.ring, 2, layers)
    # T intertwines the family with d exactly when T^-1 d(T e_i, T e_j) is
    # the family product for every pair, which is the family shape
    rep = verify_witness(family2d_construct(a_h, b_h, d.ring), d, witness)
    if not rep.passed:
        i, j = rep.counterexample.indices
        raise PreconditionViolated(
            f"normalized products do not take the family shape at (e{i}, e{j})",
            rep.counterexample,
        )
    return NormalizedBasis((tuple(e1_new), tuple(e2_new)), a_h, b_h, witness)


# ---------------------------------------------------------------------------
# Normal forms for the two-parameter family
# ---------------------------------------------------------------------------


class NormalForm(Record):
    """Canonical representative of a family deformation's equivalence class.

    kind       -- "case1" (a=-h, b != 0), "case2" (limit A00, b eliminable),
                  "case3" (limit A00, b essential), "unital" (b0 != 0),
                  "lambda" (a0 != 0)
    m, leading -- valuation and leading coefficient of the canonical b
                  (case1/case3/unital), None otherwise
    """

    __slots__ = ("kind", "m", "leading", "canonical_a", "canonical_b", "witness")

    def as_pair(self):
        return self.canonical_a, self.canonical_b


def normalize_family(a_h: TruncSeries, b_h: TruncSeries, field=None) -> NormalForm:
    """Map (a_h, b_h) to the canonical representative of its equivalence
    class.  The constant terms must match one of the catalog limits:
    a0 = 0 with b0 = 0 (zero product), a0 = 0 with b0 != 0 (unital square),
    or a0 != 0 with b0 = 0 (lambda family)."""
    from .equiv import family2d_equiv

    order, field, (a_h, b_h) = _family_frame((a_h, b_h), field)
    sring = SeriesRing(field, order)
    a0, b0 = a_h.coeffs[0], b_h.coeffs[0]
    if a0 != 0 and b0 != 0:
        raise NotAQuantization(
            "constant terms (a0, b0) both nonzero match no catalog limit"
        )

    h = sring.h()
    m = h_valuation(b_h)
    if a0 != 0:
        kind = "lambda"
    elif b0 != 0:
        kind = "unital"
    elif m == math.inf or m > h_valuation(a_h + h):
        kind = "case2"
    else:
        kind = "case1" if a_h == -h else "case3"
    if kind in ("lambda", "case2"):
        m, leading, cb = None, None, sring.zero()
    else:
        leading = b_h.coeffs[m]
        cb = TruncSeries(order, (field.zero(),) * m + (leading,))

    verdict = family2d_equiv(a_h, b_h, a_h, cb, field)
    if not verdict.is_equivalent:
        raise AssertionError(
            f"internal error: {kind} canonical form is not equivalent to its input "
            f"({verdict.tag} at order {verdict.failure_order})"
        )
    return NormalForm(kind, m, leading, a_h, cb, verdict.witness)


# ---------------------------------------------------------------------------
# Operad dimensions
# ---------------------------------------------------------------------------

_TPOIS_DIMS = (1, 2, 6, 20, 74)


def operad_dims(n: int):
    """(dim of the Novikov operad component, dim of the transposed-Poisson
    operad component) in arity n; the second is tabulated only for n <= 5."""
    if not isinstance(n, int) or n < 1 or n > 5:
        raise OutOfRange(f"arity {n!r} outside the tabulated range 1..5")
    nov = math.comb(2 * n - 2, n - 1)
    return nov, _TPOIS_DIMS[n - 1]
