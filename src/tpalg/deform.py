"""Truncated deformations of commutative associative products.

A deformation stores layer ops mu[0..N-1]; the deformed product is
x *_h y = sum_k mu[k](x, y) h^k, computed exactly in the truncated series
ring.  The degree-0 layer is the undeformed product; the commutator of the
degree-1 layer is the limit bracket.
"""

from __future__ import annotations

from .algebra import (
    IDENTITIES,
    AlgebraPresentation,
    BilinearOp,
    IdentityReport,
    LinearMap,
    _basis_vector,
    check_identity,
    clause_failures,
    commutator,
    default_labels,
    failure_report,
    first_failure,
    is_zero_vector,
    presentation_of,
    vsub,
)
from .errors import (
    NotCommutativeBase,
    NotNovikov,
    NotNovikovPoisson,
    NotTPA,
    NotUnit,
    OrderMismatch,
    Record,
)
from .scalars import QI, QQ, GaussianRational, SeriesRing, TruncSeries


class TruncatedDeformation(Record):
    """A product on A[h]/(h^order) given by its layer ops."""

    __slots__ = ("base", "order", "mu")

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        base, order, mu = self.base, self.order, self.mu
        if order < 1:
            raise ValueError("order must be at least 1")
        if len(mu) != order:
            raise ValueError(f"need exactly {order} layer ops, got {len(mu)}")
        dot = base.op("dot")
        for k, op in enumerate(mu):
            if op.dim != base.dim:
                raise ValueError(f"mu[{k}] has dim {op.dim}, expected {base.dim}")
        if not mu[0].entries_equal(dot):
            raise ValueError("mu[0] must equal the base dot product")

    @property
    def dim(self):
        return self.base.dim

    @property
    def ring(self):
        return self.base.ring

    def series_ring(self):
        return SeriesRing(self.ring, self.order)

    def series_op(self) -> BilinearOp:
        """The deformed product as one op over the truncated series ring."""
        ring = self.series_ring()
        n = self.dim
        c = tuple(
            tuple(
                tuple(
                    TruncSeries(self.order, tuple(self.mu[t].c[i][j][k] for t in range(self.order)))
                    for k in range(n)
                )
                for j in range(n)
            )
            for i in range(n)
        )
        return BilinearOp(ring, c)


def _from_layers(ring, layers, labels=None) -> TruncatedDeformation:
    """The deformation over ``ring`` with layer ops ``layers``, on the base
    whose dot is the first layer; the labels default to e1..en."""
    dot = layers[0]
    labels = labels if labels is not None else default_labels(dot.dim)
    base = AlgebraPresentation(dot.dim, ring, labels, {"dot": dot})
    return TruncatedDeformation(base, len(layers), tuple(layers))


def deformation_from_series(op: BilinearOp, labels=None) -> TruncatedDeformation:
    """Split an op over a series ring back into layer ops."""
    ring = op.ring
    if not isinstance(ring, SeriesRing):
        raise TypeError("expected an op over a SeriesRing")
    base = ring.base
    layers = [op.map_entries(lambda s: base.coerce(s.coeffs[t]), base) for t in range(ring.order)]
    return _from_layers(base, layers, labels)


_NOVIKOV = ("NOV_LEFTSYM", "NOV_RIGHTCOMM")


def check_novikov_deformation(d: TruncatedDeformation) -> IdentityReport:
    """Left-symmetry and right-commutativity of the deformed product, exact
    through h^(order-1).  The counterexample clause names the failing half."""
    return first_failure(presentation_of(circ=d.series_op()), _NOVIKOV, "NOVIKOV")


def _commutativity_report(dot: BilinearOp) -> IdentityReport:
    commutativity = IDENTITIES["COMM_ASSOC"][0]
    hit = next(clause_failures(presentation_of(dot=dot), commutativity), None)
    return failure_report("COMMUTATIVITY", hit)


class ClassicalLimit(Record):
    """The limit (dot, bracket) of a deformation, with its checks."""

    __slots__ = ("algebra", "tpa_report", "lie_report")

    @property
    def passed(self):
        return self.tpa_report.passed and self.lie_report.passed


def classical_limit(d: TruncatedDeformation) -> ClassicalLimit:
    """dot = mu[0], bracket = commutator of mu[1]; reports whether the pair
    is a transposed Poisson algebra (it must be when d is Novikov)."""
    if d.order < 2:
        raise ValueError("classical limit needs order at least 2")
    comm = _commutativity_report(d.mu[0])
    if not comm.passed:
        raise NotCommutativeBase(
            "mu[0] is not commutative, the limit bracket is undefined", comm
        )
    bracket = commutator(d.mu[1])
    algebra = AlgebraPresentation(
        d.dim,
        d.ring,
        d.base.basis_labels,
        {"dot": d.mu[0], "bracket": bracket},
    )
    return ClassicalLimit(
        algebra,
        check_identity(algebra, "TPA"),
        check_identity(algebra, "LIE"),
    )


_NP_PRECONDITIONS = ("COMM_ASSOC",) + _NOVIKOV + ("NP1", "NP2")


def deform_from_np(np: AlgebraPresentation, order: int) -> TruncatedDeformation:
    """First-order deformation x *_h y = x.y + (x o y) h from a
    Novikov-Poisson structure (ops "dot" and "circ")."""
    if order < 2:
        raise ValueError("order must be at least 2 to carry the h-term")
    report = first_failure(np, _NP_PRECONDITIONS)
    if not report.passed:
        raise NotNovikovPoisson(f"input fails {report.identity_name}", report)
    zero = BilinearOp.zero(np.dim, np.ring)
    layers = (np.op("dot"), np.op("circ")) + (zero,) * (order - 2)
    return _from_layers(np.ring, layers, np.basis_labels)


def commutator_deform(nov: BilinearOp, order: int) -> TruncatedDeformation:
    """Deformation x *_h y = (x o y) h of the zero product from a Novikov
    product; quantizes (0, commutator(nov))."""
    if order < 2:
        raise ValueError("order must be at least 2 to carry the h-term")
    report = first_failure(presentation_of(circ=nov), _NOVIKOV)
    if not report.passed:
        raise NotNovikov(f"input fails {report.identity_name}", report)
    zero = BilinearOp.zero(nov.dim, nov.ring)
    return _from_layers(nov.ring, (zero, nov) + (zero,) * (order - 2))


def _family_frame(series, field=None):
    """(order, field, coerced series) for family coefficients: TruncSeries of
    one order, at least 2.  The field defaults to Q(i) when any coefficient
    is Gaussian, else Q."""
    if not all(isinstance(s, TruncSeries) for s in series):
        raise TypeError("family coefficients must be TruncSeries")
    orders = {s.order for s in series}
    if len(orders) != 1:
        raise OrderMismatch(f"family coefficients have mixed orders {sorted(orders)}")
    order = orders.pop()
    if order < 2:
        raise ValueError("family needs order at least 2")
    if field is None:
        gaussian = any(isinstance(c, GaussianRational) for s in series for c in s.coeffs)
        field = QI if gaussian else QQ
    sring = SeriesRing(field, order)
    return order, field, tuple(sring.coerce(s) for s in series)


def family_layer(a, b, ring, shift) -> BilinearOp:
    """The dim-2 product e1 e1 = a e1 + b e2, e1 e2 = (a + shift) e2,
    e2 e1 = a e2, e2 e2 = 0 over ``ring``: the layer at h^k of the family
    below has shift 1 for k = 1 and 0 otherwise."""
    entries = {(0, 0, 0): a, (0, 0, 1): b, (0, 1, 1): a + shift, (1, 0, 1): a}
    return BilinearOp.from_entries(2, ring, entries)


def family2d_construct(a_h: TruncSeries, b_h: TruncSeries, field=None) -> TruncatedDeformation:
    """The two-parameter dim-2 deformation

        e1 *_h e1 = a_h e1 + b_h e2,   e1 *_h e2 = (a_h + h) e2,
        e2 *_h e1 = a_h e2,            e2 *_h e2 = 0.
    """
    _, field, (a_h, b_h) = _family_frame((a_h, b_h), field)
    layers = [
        family_layer(a_k, b_k, field, field.one() if k == 1 else field.zero())
        for k, (a_k, b_k) in enumerate(zip(a_h.coeffs, b_h.coeffs))
    ]
    return _from_layers(field, layers)


def family2d_parameters(d: TruncatedDeformation):
    """(a_h, b_h) if d is exactly a family2d_construct deformation (same
    basis, entry for entry), else None."""
    if d.dim != 2 or d.order < 2:
        return None
    a_h = TruncSeries(d.order, tuple(op.c[0][0][0] for op in d.mu))
    b_h = TruncSeries(d.order, tuple(op.c[0][0][1] for op in d.mu))
    candidate = family2d_construct(a_h, b_h, d.ring)
    if all(x.entries_equal(y) for x, y in zip(d.mu, candidate.mu)):
        return a_h, b_h
    return None


def unital_derivation(tpa: AlgebraPresentation, unit) -> LinearMap:
    """D(x) = [unit, x], a derivation of dot whenever (dot, bracket) is a
    transposed Poisson algebra with two-sided unit ``unit``."""
    dot, bracket = tpa.op("dot"), tpa.op("bracket")
    unit = [tpa.ring.coerce(x) for x in unit]
    n = tpa.dim
    for j in range(n):
        ej = _basis_vector(n, j, tpa.ring)
        left = dot.apply(unit, ej)
        right = dot.apply(ej, unit)
        if not is_zero_vector(vsub(left, ej)) or not is_zero_vector(vsub(right, ej)):
            raise NotUnit(f"vector is not a two-sided unit (fails at basis index {j + 1})")
    report = first_failure(tpa, ("TPA",))
    if not report.passed:
        raise NotTPA("input is not a transposed Poisson algebra", report)
    cols = [bracket.apply(unit, _basis_vector(n, j, tpa.ring)) for j in range(n)]
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return LinearMap(tpa.ring, rows)


def deformed_bracket_series(d: TruncatedDeformation) -> BilinearOp:
    """{x, y}_h = x *_h y - y *_h x over the truncated series ring."""
    return commutator(d.series_op())
