"""Exact scalar arithmetic.

Four layers, each closed under +, -, *:

* ``Fraction`` (stdlib) -- rationals, printed ``p/q`` or ``p``.
* ``GaussianRational`` -- pairs of rationals re + im*i.
* ``ParamPoly`` -- sparse polynomials over a ``PolynomialRing``, which
  names the parameters and the base field (Q or Q(i)) and decides the type
  of every coefficient, zero and one.  A monomial is a sorted tuple of
  ``(index, power)`` pairs, so a product costs the variables its terms
  use; ``.terms`` is the dense view, one exponent slot per parameter.
* ``TruncSeries`` -- truncated power series in ``h`` over any of the above;
  all arithmetic is modulo h^order and mixing orders is an error.  The
  ring of its coefficients is read from the first one.

Ring descriptors (``RationalField``, ``GaussianField``, ``PolynomialRing``,
``SeriesRing``) bundle zero/one/coerce with a shared string parser and
formatter, so every scalar round-trips through its printed form.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import BadScalar, MissingSymbol, NotInvertible, OrderMismatch, Record

INF = math.inf
_set = object.__setattr__


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class GaussianRational(Record):
    __slots__ = ("re", "im")

    # bound by hand, not by Record.__init__: every Q(i) product builds one,
    # and the generic binder costs about three times as much per call
    def __init__(self, re: Fraction, im: Fraction):
        _set(self, "re", re)
        _set(self, "im", im)

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def _lift(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise NotInvertible("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        return format_scalar(self)


GAUSS_I = GaussianRational.of(0, 1)


# ---------------------------------------------------------------------------
# Sparse parameter polynomials
# ---------------------------------------------------------------------------


class _Operators:
    """Operator rules shared by ``ParamPoly`` and ``TruncSeries``, which
    supply ``_lift``, ``+``, ``-x``, ``*``, ``__bool__``, ``_one`` (x^0),
    ``_inverse`` and ``_noun``."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"{self._noun} powers must be nonnegative integers")
        return _power(self._one() if n == 0 else None, self, n)

    def is_zero(self):
        return not self

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"{type(self).__name__}({format_scalar(self)!r})"


class ParamPoly(_Operators):
    """Polynomial over a ``PolynomialRing``: its base field and its ordered
    tuple of parameter names.

    ``sparse`` maps monomials to nonzero coefficients of the base field.  A
    monomial is a tuple of ``(index, power)`` pairs sorted by variable
    index, with ``()`` for the constant monomial, so every operation costs
    the variables a term uses, not every declared name.  ``terms`` is the
    dense view (one exponent slot per variable), built on demand.  Two
    polynomials combine only over equal rings; a number lifts to a
    constant, or scales the coefficients, through the base field's
    ``coerce``.  Build one with ``ParamPoly(ring, sparse)`` or with the
    ring's ``zero``, ``one``, ``var`` and ``coerce``.
    """

    __slots__ = ("ring", "sparse")
    _noun = "polynomial"

    def __init__(self, ring, sparse):
        """From ``{monomial: coefficient}``; zero coefficients are dropped."""
        self.ring = ring
        self.sparse = {m: c for m, c in sparse.items() if c != 0}

    @property
    def variables(self):
        return self.ring.variables

    @property
    def terms(self):
        """The dense view: {exponent tuple: coefficient}."""
        out = {}
        for mono, coeff in self.sparse.items():
            expo = [0] * len(self.variables)
            for i, e in mono:
                expo[i] = e
            out[tuple(expo)] = coeff
        return out

    # -- queries -----------------------------------------------------------

    def is_constant(self):
        return all(not m for m in self.sparse)

    def constant_value(self):
        """The constant term; the base field's zero when there is none."""
        if () in self.sparse:
            return self.sparse[()]
        return self.ring.base.zero()

    def used_variables(self):
        names = self.variables
        return {names[i] for mono in self.sparse for i, _ in mono}

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, ParamPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("parameter polynomials over different rings")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return ParamPoly(self.ring, {(): self.ring.base.coerce(other)})
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self.sparse)
        for mono, coeff in o.sparse.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return ParamPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.ring, {m: -c for m, c in self.sparse.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            # a number scales the coefficients
            other = self.ring.base.coerce(other)
            return ParamPoly(self.ring, {m: c * other for m, c in self.sparse.items()})
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.sparse.items():
            for m2, c2 in o.sparse.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return ParamPoly(self.ring, terms)

    __rmul__ = __mul__

    def _one(self):
        return self.ring.one()

    def _inverse(self):
        return _invert_base(self, self.ring)

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.variables == other.variables and self.sparse == other.sparse
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not self.sparse:
                return other == 0
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.variables, frozenset(self.sparse.items())))

    def __bool__(self):
        return bool(self.sparse)

    def is_affine(self):
        return all(sum(e for _, e in mono) <= 1 for mono in self.sparse)

    def subs(self, mapping):
        """Replace some variables by polynomials of the same ring, or by
        numbers; variables absent from the mapping stay symbolic."""
        names, terms = self.variables, {}
        for mono, coeff in self.sparse.items():
            kept, image = [], None  # image: product of the replaced powers
            for i, e in mono:
                rep = mapping.get(names[i])
                if rep is None:
                    kept.append((i, e))
                else:
                    rep = self._lift(rep) ** e
                    image = rep if image is None else image * rep
            kept = tuple(kept)
            if image is None:
                terms[kept] = terms.get(kept, 0) + coeff
                continue
            for m, c in image.sparse.items():
                m = _mono_mul(kept, m)
                terms[m] = terms.get(m, 0) + coeff * c
        return ParamPoly(self.ring, terms)

    def substitute(self, assignment):
        """Evaluate with every variable bound; raises MissingSymbol when one
        is unbound.  The zero polynomial evaluates to the base field's zero."""
        missing = self.used_variables() - set(assignment)
        if missing:
            raise MissingSymbol(f"no value for parameter(s) {sorted(missing)}")
        names, total = self.variables, None
        for mono, coeff in self.sparse.items():
            term = coeff
            for i, e in mono:
                value = assignment[names[i]]
                for _ in range(e):
                    term = term * value
            total = term if total is None else total + term
        return self.ring.base.zero() if total is None else total


def _mono_mul(m1, m2):
    """Product of two sparse monomials."""
    if not (m1 and m2):
        return m1 or m2
    powers = dict(m1)
    for i, e in m2:
        powers[i] = powers.get(i, 0) + e
    return tuple(sorted(powers.items()))


# ---------------------------------------------------------------------------
# Truncated power series in h
# ---------------------------------------------------------------------------


class TruncSeries(_Operators):
    """Element of R[h]/(h^order): ``coeffs[k]`` multiplies h^k.

    Arithmetic between two series insists on equal orders; there is no
    silent re-truncation.  Numbers and ParamPolys lift to constant series.
    """

    __slots__ = ("order", "coeffs")
    _noun = "series"

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        coeffs = tuple(coeffs)
        if len(coeffs) > order:
            raise ValueError("more coefficients than the truncation order allows")
        if len(coeffs) < order:
            coeffs = coeffs + (_zero_like(coeffs),) * (order - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def h(cls, order, base_one=None):
        """The series h; at order 1 that is the zero class, as h = 0 mod h."""
        one = Fraction(1) if base_one is None else base_one
        return cls(order, (one * 0, one)[:order])

    @classmethod
    def constant(cls, order, value):
        return cls(order, (value,))

    def _lift(self, other):
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise OrderMismatch(
                    f"series orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return TruncSeries.constant(self.order, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TruncSeries(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [_zero_like(self.coeffs)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = o.coeffs[j]
                if b == 0:
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out)

    __rmul__ = __mul__

    def _one(self):
        return TruncSeries.constant(self.order, _ring_of(self.coeffs[0]).one())

    def _inverse(self):
        return series_invert(self)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.order == other.order and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        # a constant series equals its constant term, so it hashes as one
        if all(c == 0 for c in self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def shift_down(self, k):
        """Divide by h^k, discarding the k lowest coefficients (which must
        vanish) and padding the top with zeros."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise NotInvertible(f"series is not divisible by h^{k}")
        return TruncSeries(self.order, self.coeffs[k:] + (_zero_like(self.coeffs),) * k)


# ---------------------------------------------------------------------------
# Free functions on the tower
# ---------------------------------------------------------------------------


def _ring_of(x):
    """The ring of a series coefficient: a polynomial's own ring, else the
    field its type names."""
    if isinstance(x, ParamPoly):
        return x.ring
    return QI if isinstance(x, GaussianRational) else QQ


def _zero_like(coeffs):
    """The zero of the coefficients' ring, read from the first one;
    ``Fraction(0)`` for none."""
    return _ring_of(coeffs[0]).zero() if coeffs else Fraction(0)


def _power(one, base, n):
    """base^n by repeated squaring; exact and commutative rings give the
    same result as n successive multiplications.  ``one`` is the result
    for n = 0 and is not multiplied in otherwise."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def _invert_base(c, ring):
    """1/c in ``ring``: a field, or a polynomial ring, where c must be a
    nonzero constant."""
    if isinstance(ring, PolynomialRing):
        if not c.is_constant():
            raise NotInvertible("cannot divide by a non-constant polynomial")
        return ParamPoly(ring, {(): _invert_base(c.constant_value(), ring.base)})
    c = ring.coerce(c)
    if isinstance(c, GaussianRational):
        return c.inverse()
    if not c:
        raise NotInvertible("division by zero")
    return 1 / c


def series_invert(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse in R[h]/(h^order); requires a unit constant
    term.  Computed by the standard recursion

        t_0 = 1/s_0,   t_k = -(sum_{j=1..k} s_j t_{k-j}) / s_0 .
    """
    if not isinstance(s, TruncSeries):
        raise TypeError("series_invert expects a TruncSeries")
    inv0 = _invert_base(s.coeffs[0], _ring_of(s.coeffs[0]))
    out = [inv0]
    for k in range(1, s.order):
        acc = s.coeffs[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + s.coeffs[j] * out[k - j]
        out.append(-(acc * inv0))
    return TruncSeries(s.order, out)


def h_valuation(s: TruncSeries):
    """Index of the lowest nonzero coefficient, or ``math.inf`` for the
    zero class."""
    for k, c in enumerate(s.coeffs):
        if c != 0:
            return k
    return INF


# ---------------------------------------------------------------------------
# Values packed into integers
# ---------------------------------------------------------------------------


def _sidon(count):
    """The first ``count`` terms of the Mian-Chowla sequence shifted to 0
    (0, 1, 3, 7, 12, 20, ...): each is the least number whose sums with
    itself and the earlier terms are all new, so every sum e_s + e_t with
    s <= t is distinct."""
    terms, sums, e = [], set(), 0
    while len(terms) < count:
        new = {e + x for x in terms} | {2 * e}
        if not new & sums:
            terms.append(e)
            sums |= new
        e += 1
    return terms


def packed_format(ring):
    """The format in which ``Packing`` packs the values of ``ring``: "Q",
    "Qi", "series" (over Q), "affine" (polynomials over Q), or None."""
    if isinstance(ring, (SeriesRing, PolynomialRing)) and isinstance(ring.base, RationalField):
        return "series" if isinstance(ring, SeriesRing) else "affine"
    return {RationalField: "Q", GaussianField: "Qi"}.get(type(ring))


class Packing:
    """Kronecker substitution: a value with integer coefficients c_t packs
    as the integer sum c_t 2^(B e_t), a ring map, so packed products are
    the untruncated products.  The ring of the values picks the format
    (``packed_format``), which fixes the c_t (``integer_form`` lists them),
    the ``modulus`` M of the zero test, and g(d): the digits of a product
    of d values with coefficients at most A are at most g(d) A^d.

    * "Q" and "series" over Q of order N (N = 1 for Q): c_t is the
      coefficient of h^t and e_t = t; x is zero mod h^N exactly when x % M
      is, M = 2^(B N).  At most N^(d-1) products of coefficients meet at
      each h^t: g(d) = N^(d-1).
    * "affine", polynomials over Q in p1..pm, in products of two at most:
      c_0 is the constant term, c_t the coefficient of p_t, and
      e_0 < ... < e_m a Sidon set, so digit e_s + e_t of a product holds
      the coefficient of p_s p_t (p_0 = 1) alone (``monomials``), a sum of
      at most two products: g(d) = 2.  M = 2^(B (2 e_m + 1)) lies above
      every digit, so x % M is 0 exactly when x is.
    * "Qi": a + b i packs as a + b 2^B (i = 2^B).  M = 2^(2B) + 1, so
      2^(2B) is -1 mod M: reducing mod M is the fold i^2 = -1, a ring map
      Z[i] -> Z/M, and a product of d values folds to parts of at most
      (2A)^d: g(d) = 2^d.  Every a + b 2^B with |a|, |b| < 2^(B-1) lies
      strictly inside +-M/2, so x % M is 0 exactly when a and b are.

    ``forms`` come from ``integer_form``.  A kind (count, degrees) of
    ``kinds`` is count products of degrees[f] values of form f each, at
    scale prod L_f^degrees[f]; its ``multipliers`` entry brings it to
    ``scale`` D = prod L_f^(the most degrees[f] of any kind).  B puts the
    sum over kinds of count g(sum(degrees)) multiplier prod top_f^degrees[f]
    strictly inside +-2^(B-1), and so every digit read back."""

    __slots__ = (
        "ring", "format", "bits", "modulus", "scale", "multipliers", "positions", "monomials"
    )

    def __init__(self, ring, forms, kinds):
        self.ring, self.monomials, scale = ring, None, 1
        form = self.format = packed_format(ring)
        for (lcm, _, _), degree in zip(forms, map(max, zip(*(degrees for _, degrees in kinds)))):
            scale *= lcm**degree
        bound, self.scale, self.multipliers = 0, scale, []
        for count, degrees in kinds:
            d, size, kind_scale = sum(degrees), count, 1
            for (lcm, _, top), degree in zip(forms, degrees):
                size, kind_scale = size * top**degree, kind_scale * lcm**degree
            # g(d), N^(d-1) over a series ring
            growth = {"Q": 1, "Qi": 1 << d, "affine": 2}.get(form) or ring.order ** (d - 1)
            self.multipliers.append(scale // kind_scale)
            bound += size * growth * self.multipliers[-1]
        bits = self.bits = bound.bit_length() + 1
        if form == "Qi":
            self.positions = range(2)
            self.modulus = (1 << 2 * bits) + 1
            return
        if form != "affine":
            self.positions = range(ring.order if form == "series" else 1)
            self.modulus = 1 << bits * len(self.positions)
            return
        m = len(ring.variables)
        e = self.positions = _sidon(m + 1)
        powers = [()] + [((t, 1),) for t in range(m)]
        self.monomials = {
            e[s] + e[t]: _mono_mul(powers[s], powers[t])
            for t in range(len(e))
            for s in range(t + 1)
        }
        self.modulus = 1 << bits * (2 * e[-1] + 1)

    def pack(self, ints):
        """The entries whose coefficients c_0, c_1, ... are the successive
        equal runs of ``ints``."""
        e = self.positions
        size = len(ints) // len(e)
        out = ints[len(ints) - size :]
        for t in range(len(e) - 2, -1, -1):
            shift = self.bits * (e[t + 1] - e[t])
            out = [(x << shift) + c for x, c in zip(out, ints[t * size : (t + 1) * size])]
        return out

    def read(self, row, sign=1):
        """The values packed as ``sign`` times the entries of ``row`` (the
        signed digits of each mod M, taken in +-M/2, over ``scale``: a
        Fraction, a TruncSeries, a ParamPoly of degree <= 2 or a
        GaussianRational), or None when every entry is zero mod M."""
        modulus, bits, form, scale = self.modulus, self.bits, self.format, self.scale
        if not any(x % modulus for x in row):
            return None
        values, half = [], 1 << (bits - 1)
        for x in row:
            x = sign * x % modulus
            if 2 * x > modulus:
                x -= modulus
            digits = []
            for _ in range((modulus.bit_length() - 1) // bits):
                digits.append(((x & (2 * half - 1)) ^ half) - half)
                x = (x - digits[-1]) >> bits
            if form == "affine":
                terms = {self.monomials[p]: Fraction(d, scale) for p, d in enumerate(digits) if d}
                values.append(ParamPoly(self.ring, terms))
                continue
            coeffs = [Fraction(d, scale) for d in digits]
            if form == "Qi":
                values.append(GaussianRational(*coeffs))
            elif form == "series":
                values.append(TruncSeries(self.ring.order, coeffs))
            else:
                values.append(coeffs[0])
        return values


def integer_form(ring, values, degree):
    """(L, ints, top): ``values``, all of ``ring``, as the coefficients of
    their ``Packing`` format run by run (c_0 of every value, then c_1, ...)
    times the lcm L of their denominators, and the largest |int|; None
    unless the ring has a format for products of ``degree`` values and
    every value fits it with Fraction coefficients."""
    form = packed_format(ring)
    if form is None:
        return None
    if form == "Qi":
        if not {*map(type, values)} <= {GaussianRational}:
            return None
        values = [x.re for x in values] + [x.im for x in values]
    elif form == "series":
        if not {*map(type, values)} <= {TruncSeries} or {x.order for x in values} - {ring.order}:
            return None
        values = [c for layer in zip(*[x.coeffs for x in values]) for c in layer]
    elif form == "affine":
        if degree > 2 or not {*map(type, values)} <= {ParamPoly} or not all(
            (x.ring is ring or x.ring == ring) and x.is_affine() for x in values
        ):
            return None
        # only the nonzero coefficients, and where each one sits in the runs
        # c_0, c_1, ..., c_m of len(values) entries each; a zero packs as 0
        size = len(values)
        where = [
            (mono[0][0] + 1 if mono else 0) * size + m
            for m, x in enumerate(values)
            for mono in x.sparse
        ]
        values = [c for x in values for c in x.sparse.values()]
    if not {*map(type, values)} <= {Fraction}:
        return None
    # one call per value for both parts; the lcm of distinct denominators
    ratios = [x.as_integer_ratio() for x in values]
    lcm = math.lcm(*{d for _, d in ratios})
    ints = [n * (lcm // d) for n, d in ratios]
    top = max(map(abs, ints), default=0)
    if form == "affine":
        ints, nonzero = [0] * (len(ring.variables) + 1) * size, ints
        for m, c in zip(where, nonzero):
            ints[m] = c
    return lcm, ints, top


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _format_gaussian(z: GaussianRational) -> str:
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        imag = "i"
    elif z.im == -1:
        imag = "-i"
    else:
        imag = f"{z.im}i"
    if z.re == 0:
        return imag
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{imag}"


def _poly_term_key(item):
    """Total degree, then reverse lex on the dense exponents; on monomials
    of equal degree the sparse pairs order the same way."""
    mono, _ = item
    return (-sum(e for _, e in mono), tuple((i, -e) for i, e in mono))


def _join_signed(terms):
    """The sum of signed terms: a term not starting with "-" joins with "+";
    no terms give "0"."""
    if not terms:
        return "0"
    return terms[0] + "".join(t if t.startswith("-") else "+" + t for t in terms[1:])


def _format_poly(p: ParamPoly) -> str:
    names, terms = p.variables, []
    for mono, coeff in sorted(p.sparse.items(), key=_poly_term_key):
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono]
        if isinstance(coeff, GaussianRational) and coeff.re != 0 and coeff.im != 0:
            coeff_str = f"({_format_gaussian(coeff)})"
        else:
            coeff_str = format_scalar(coeff)
        if factors and coeff_str in ("1", "-1"):  # a unit coefficient shows as its sign
            terms.append(coeff_str[:-1] + "*".join(factors))
        else:
            terms.append("*".join([coeff_str] + factors))
    return _join_signed(terms)


def _series_coeff_str(c, k):
    """Render one series term coeff*h^k; non-numeric coefficients are
    parenthesized so the h factor cannot be misread as part of a name.  A
    constant polynomial prints as its constant value, and a Gaussian
    rational with zero imaginary part as its real part."""
    if isinstance(c, ParamPoly) and c.is_constant():
        c = c.constant_value()
    if isinstance(c, GaussianRational) and not c.im:
        c = c.re
    if k == 0:
        if isinstance(c, (ParamPoly, GaussianRational)):
            return f"({format_scalar(c)})"
        return format_scalar(c)
    hpow = "h" if k == 1 else f"h^{k}"
    if isinstance(c, (int, Fraction)):
        if c == 1:
            return hpow
        if c == -1:
            return f"-{hpow}"
        return f"{c}{hpow}"
    return f"({format_scalar(c)}){hpow}"


def _format_series(s: TruncSeries) -> str:
    terms = [_series_coeff_str(c, k) for k, c in enumerate(s.coeffs) if c != 0]
    return f"{_join_signed(terms)}@order={s.order}"


def format_scalar(x) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, GaussianRational):
        return _format_gaussian(x)
    if isinstance(x, ParamPoly):
        return _format_poly(x)
    if isinstance(x, TruncSeries):
        return _format_series(x)
    raise TypeError(f"not a scalar: {x!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()@=]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise BadScalar(f"unexpected character {text[pos]!r} in {_quoted(text)}")
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


# Limits on scalar strings from outside the program: a larger exponent
# literal, nested exponents whose product is larger, or deeper parentheses
# are refused before the power is taken, so the exponents along any chain
# of nested powers multiply to at most MAX_EXPONENT, and parsing cannot
# exhaust the stack.  The work is still not bounded: a power of a sum of
# parameters expands term by term, and (a+b+c+d)^200 has about 1.4 million.
MAX_EXPONENT = 1000
MAX_NESTING = 100
MAX_QUOTED = 60  # characters of outside input quoted in a BadScalar message


def _quoted(value):
    text = repr(value)
    return text if len(text) <= MAX_QUOTED else text[:MAX_QUOTED] + "..."


class _Parser:
    """Recursive-descent parser for the scalar grammar.

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*')? factor)*        # juxtaposition multiplies
    factor  := INT ['/' INT] | NAME ['^' INT] | '(' expr ')' ['^' INT]
    """

    def __init__(self, tokens, env, text):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.text = text
        self.depth = 0
        # the largest product of nested exponents read so far inside the
        # innermost open parentheses
        self.powers = 1

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, why):
        raise BadScalar(f"{why} in scalar {_quoted(self.text)}")

    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"trailing input at token {_quoted(self.peek()[1])}")
        return value

    def expr(self):
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        elif self.peek() == ("op", "+"):
            self.take()
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                value = value * self.factor()
            elif kind in ("int", "name") or (kind == "op" and tok == "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        kind, tok = self.take()
        if kind == "int":
            num = Fraction(tok)
            if self.peek() == ("op", "/"):
                self.take()
                k2, t2 = self.take()
                if k2 != "int":
                    self.fail("expected an integer denominator")
                if t2 == 0:
                    self.fail("zero denominator")
                num = num / t2
            return self.env["__const__"](num)
        if kind == "name":
            if tok not in self.env:
                self.fail(f"unknown symbol {_quoted(tok)}")
            return self._maybe_power(self.env[tok], 1)
        if kind == "op" and tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING}")
            outer, self.powers = self.powers, 1
            value = self.expr()
            if self.take() != ("op", ")"):
                self.fail("expected ')'")
            self.depth -= 1
            inside, self.powers = self.powers, outer
            return self._maybe_power(value, inside)
        self.fail(f"unexpected token {_quoted(tok)}")

    def _maybe_power(self, value, inside):
        """``value``, raised to the power that follows if one does; ``inside``
        is the largest product of nested exponents within ``value``."""
        if self.peek() == ("op", "^"):
            self.take()
            kind, tok = self.take()
            if kind != "int":
                self.fail("expected an integer exponent")
            if tok > MAX_EXPONENT:
                self.fail(f"exponent {_quoted(tok)} is above {MAX_EXPONENT}")
            inside *= tok
            if inside > MAX_EXPONENT:
                self.fail(f"nested exponent product {inside} is above {MAX_EXPONENT}")
            value = _power(self.env["__const__"](Fraction(1)), value, tok)
        self.powers = max(self.powers, inside)
        return value


def _split_order_suffix(text):
    """Split trailing '@order=N' off a series string, if present."""
    marker = text.rfind("@order=")
    if marker < 0:
        return text, None
    tail = text[marker + len("@order=") :].strip()
    if not tail.isdigit():
        raise BadScalar(f"malformed order suffix in {_quoted(text)}")
    return text[:marker], int(tail)


def parse_in_env(text, env):
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise BadScalar("empty scalar string")
    return _Parser(tokens, env, text).parse()


# ---------------------------------------------------------------------------
# Ring descriptors
# ---------------------------------------------------------------------------

_RESERVED_NAMES = {"h", "i"}


class _Ring(Record):
    """Parsing and printing shared by the ring descriptors; each one
    supplies ``coerce`` and the parser environment ``_env``."""

    __slots__ = ()

    def parse(self, text):
        return self.coerce(parse_in_env(text, self._env()))

    def format(self, x):
        return format_scalar(x)


class RationalField(_Ring):
    __slots__ = ("tag",)
    _defaults = {"tag": "Q"}

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise BadScalar("booleans are not scalars")
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, GaussianRational) and x.im == 0:
            return x.re
        if isinstance(x, ParamPoly) and x.is_constant():
            return self.coerce(x.constant_value())
        raise BadScalar(f"not a rational scalar: {x!r}")

    def _env(self):
        return {"__const__": lambda q: q}


class GaussianField(_Ring):
    __slots__ = ("tag",)
    _defaults = {"tag": "Qi"}

    def zero(self):
        return GaussianRational.of(0)

    def one(self):
        return GaussianRational.of(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise BadScalar("booleans are not scalars")
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x), Fraction(0))
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, ParamPoly) and x.is_constant():
            return self.coerce(x.constant_value())
        raise BadScalar(f"not a Gaussian rational: {x!r}")

    def _env(self):
        return {"__const__": lambda q: GaussianRational(q, Fraction(0)), "i": GAUSS_I}


class PolynomialRing(_Ring):
    __slots__ = ("base", "variables")

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        variables = self.variables
        bad = set(variables) & _RESERVED_NAMES
        if bad:
            raise BadScalar(f"parameter names {sorted(bad)} are reserved")
        if len(set(variables)) != len(variables):
            raise BadScalar("duplicate parameter names")

    @property
    def tag(self):
        return self.base.tag

    def zero(self):
        return ParamPoly(self, {})

    def one(self):
        return ParamPoly(self, {(): self.base.one()})

    def var(self, name):
        """The parameter ``name``, with the base field's one as coefficient."""
        if name not in self.variables:
            raise MissingSymbol(f"unknown parameter {name!r}")
        return ParamPoly(self, {((self.variables.index(name), 1),): self.base.one()})

    def coerce(self, x):
        """x in this ring: a number, or a polynomial whose parameters are
        among this ring's (or that is constant), with its coefficients
        moved into the base field."""
        if isinstance(x, ParamPoly):
            if x.ring is self or x.ring == self:
                return x
            if not (x.is_constant() or set(x.variables) <= set(self.variables)):
                raise BadScalar("polynomial over a different parameter tuple")
            # remap variable indices into this ring's variable tuple
            index = {v: t for t, v in enumerate(self.variables)}
            slots = [index.get(v) for v in x.variables]
            terms = {
                tuple(sorted((slots[i], e) for i, e in mono)): self.base.coerce(coeff)
                for mono, coeff in x.sparse.items()
            }
            return ParamPoly(self, terms)
        if isinstance(x, (int, Fraction, GaussianRational)):
            return ParamPoly(self, {(): self.base.coerce(x)})
        raise BadScalar(f"not a polynomial scalar: {x!r}")

    def _env(self):
        env = {"__const__": self.coerce}
        if isinstance(self.base, GaussianField):
            env["i"] = self.coerce(GAUSS_I)
        for name in self.variables:
            env[name] = self.var(name)
        return env


class SeriesRing(_Ring):
    __slots__ = ("base", "order")

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        if self.order < 1:
            raise ValueError("truncation order must be at least 1")

    @property
    def tag(self):
        return self.base.tag

    def zero(self):
        return TruncSeries.constant(self.order, self.base.zero())

    def one(self):
        return TruncSeries.constant(self.order, self.base.one())

    def h(self):
        return TruncSeries.h(self.order, self.base.one())

    def coerce(self, x):
        if isinstance(x, TruncSeries):
            if x.order != self.order:
                raise OrderMismatch(
                    f"series order {x.order} does not match ring order {self.order}"
                )
            return TruncSeries(self.order, tuple(self.base.coerce(c) for c in x.coeffs))
        return TruncSeries.constant(self.order, self.base.coerce(x))

    def _env(self):
        """The base ring's names and numbers, which arithmetic lifts, and h."""
        env = self.base._env()
        env["h"] = self.h()
        return env

    def parse(self, text):
        body, order = _split_order_suffix(text)
        if order is not None and order != self.order:
            raise OrderMismatch(
                f"series literal declares order {order}, ring has order {self.order}"
            )
        return self.coerce(parse_in_env(body, self._env()))

    def format(self, x):
        return format_scalar(self.coerce(x))


QQ = RationalField()
QI = GaussianField()


def join_fields(f1, f2):
    """The field of values from two fields: Q(i) when either one is."""
    return f2 if f1 == QQ else f1


def field_by_tag(tag):
    if tag == "Q":
        return QQ
    if tag == "Qi":
        return QI
    raise BadScalar(f"unknown field tag {tag!r} (expected 'Q' or 'Qi')")


def parse_series(text, base=QQ, order=None):
    """Parse a standalone series string; the truncation order comes from the
    '@order=N' suffix unless supplied explicitly."""
    declared = _split_order_suffix(text)[1]
    if order is None:
        order = declared
    if order is None:
        raise BadScalar(f"series literal needs an '@order=N' suffix: {_quoted(text)}")
    return SeriesRing(base, order).parse(text)
