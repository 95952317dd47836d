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
    is_zero_vector,
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

_set = object.__setattr__


class TruncatedDeformation(Record):
    """A product on A[h]/(h^order) given by its layer ops."""

    __slots__ = ("base", "order", "mu")

    def __init__(self, base: AlgebraPresentation, order: int, mu: tuple):
        _set(self, "base", base)
        _set(self, "order", order)
        _set(self, "mu", mu)
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

    def series_presentation(self, label="circ") -> AlgebraPresentation:
        return AlgebraPresentation(
            self.dim,
            self.series_ring(),
            self.base.basis_labels,
            {label: self.series_op()},
        )


def deformation_from_series(op: BilinearOp, labels=None) -> TruncatedDeformation:
    """Split an op over a series ring back into layer ops."""
    ring = op.ring
    if not isinstance(ring, SeriesRing):
        raise TypeError("expected an op over a SeriesRing")
    n, order = op.dim, ring.order
    layers = []
    for t in range(order):
        entries = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    entries[(i, j, k)] = op.c[i][j][k].coeffs[t]
        layers.append(BilinearOp.from_entries(n, ring.base, entries))
    labels = labels if labels is not None else default_labels(n)
    base = AlgebraPresentation(n, ring.base, labels, {"dot": layers[0]})
    return TruncatedDeformation(base, order, tuple(layers))


def check_novikov_deformation(d: TruncatedDeformation) -> IdentityReport:
    """Left-symmetry and right-commutativity of the deformed product, exact
    through h^(order-1).  The counterexample clause names the failing half."""
    pres = d.series_presentation()
    for identity in ("NOV_LEFTSYM", "NOV_RIGHTCOMM"):
        report = check_identity(pres, identity)
        if not report.passed:
            return IdentityReport("NOVIKOV", False, report.counterexample)
    return IdentityReport("NOVIKOV", True, None)


def _commutativity_report(dot: BilinearOp) -> IdentityReport:
    alg = AlgebraPresentation(dot.dim, dot.ring, default_labels(dot.dim), {"dot": dot})
    commutativity = IDENTITIES["COMM_ASSOC"][0]
    return failure_report("COMMUTATIVITY", next(clause_failures(alg, commutativity), None))


class ClassicalLimit(Record):
    """The limit (dot, bracket) of a deformation, with its checks."""

    __slots__ = ("algebra", "tpa_report", "lie_report")

    def __init__(
        self, algebra: AlgebraPresentation, tpa_report: IdentityReport, lie_report: IdentityReport
    ):
        _set(self, "algebra", algebra)
        _set(self, "tpa_report", tpa_report)
        _set(self, "lie_report", lie_report)

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


_NP_PRECONDITIONS = ("COMM_ASSOC", "NOV_LEFTSYM", "NOV_RIGHTCOMM", "NP1", "NP2")


def deform_from_np(np: AlgebraPresentation, order: int) -> TruncatedDeformation:
    """First-order deformation x *_h y = x.y + (x o y) h from a
    Novikov-Poisson structure (ops "dot" and "circ")."""
    if order < 2:
        raise ValueError("order must be at least 2 to carry the h-term")
    for identity in _NP_PRECONDITIONS:
        report = check_identity(np, identity)
        if not report.passed:
            raise NotNovikovPoisson(
                f"input fails {identity}", report
            )
    dot, circ = np.op("dot"), np.op("circ")
    zero = BilinearOp.zero(np.dim, np.ring)
    base = AlgebraPresentation(np.dim, np.ring, np.basis_labels, {"dot": dot})
    return TruncatedDeformation(base, order, (dot, circ) + (zero,) * (order - 2))


def commutator_deform(nov: BilinearOp, order: int) -> TruncatedDeformation:
    """Deformation x *_h y = (x o y) h of the zero product from a Novikov
    product; quantizes (0, commutator(nov))."""
    if order < 2:
        raise ValueError("order must be at least 2 to carry the h-term")
    pres = AlgebraPresentation(nov.dim, nov.ring, default_labels(nov.dim), {"circ": nov})
    for identity in ("NOV_LEFTSYM", "NOV_RIGHTCOMM"):
        report = check_identity(pres, identity)
        if not report.passed:
            raise NotNovikov(f"input fails {identity}", report)
    zero = BilinearOp.zero(nov.dim, nov.ring)
    base = AlgebraPresentation(nov.dim, nov.ring, default_labels(nov.dim), {"dot": zero})
    return TruncatedDeformation(base, order, (zero, nov) + (zero,) * (order - 2))


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


def family2d_construct(a_h: TruncSeries, b_h: TruncSeries, field=None) -> TruncatedDeformation:
    """The two-parameter dim-2 deformation

        e1 *_h e1 = a_h e1 + b_h e2,   e1 *_h e2 = (a_h + h) e2,
        e2 *_h e1 = a_h e2,            e2 *_h e2 = 0.
    """
    order, field, (a_h, b_h) = _family_frame((a_h, b_h), field)
    layers = []
    for k in range(order):
        a_k, b_k = a_h.coeffs[k], b_h.coeffs[k]
        entries = {
            (0, 0, 0): a_k,
            (0, 0, 1): b_k,
            (0, 1, 1): a_k + (field.one() if k == 1 else field.zero()),
            (1, 0, 1): a_k,
        }
        layers.append(BilinearOp.from_entries(2, field, entries))
    base = AlgebraPresentation(2, field, default_labels(2), {"dot": layers[0]})
    return TruncatedDeformation(base, order, tuple(layers))


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
    report = check_identity(tpa, "TPA")
    if not report.passed:
        raise NotTPA("input is not a transposed Poisson algebra", report)
    cols = [bracket.apply(unit, _basis_vector(n, j, tpa.ring)) for j in range(n)]
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return LinearMap(tpa.ring, rows)


def deformed_bracket_series(d: TruncatedDeformation) -> BilinearOp:
    """{x, y}_h = x *_h y - y *_h x over the truncated series ring."""
    return commutator(d.series_op())
