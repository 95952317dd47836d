"""Exact scalar arithmetic.

Four layers, each closed under +, -, *:

* ``Fraction`` (stdlib) -- rationals, printed ``p/q`` or ``p``.
* ``GaussianRational`` -- pairs of rationals re + im*i.
* ``ParamPoly`` -- sparse polynomials in a fixed tuple of named parameters
  with rational or Gaussian coefficients.  A monomial is a sorted tuple of
  ``(index, power)`` pairs, so a product costs the variables its terms
  use; ``.terms`` is the dense view, one exponent slot per parameter.
* ``TruncSeries`` -- truncated power series in ``h`` over any of the above;
  all arithmetic is modulo h^order and mixing orders is an error.

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


class ParamPoly:
    """Polynomial in a fixed ordered tuple of parameter names.

    ``sparse`` maps monomials to nonzero coefficients.  A monomial is a
    tuple of ``(index, power)`` pairs sorted by variable index, with ``()``
    for the constant monomial, so every operation costs the variables a
    term uses, not every declared name.  ``terms`` is the dense view (one
    exponent slot per variable), built on demand; the constructor takes
    dense terms.  Two polynomials combine only when their variable tuples
    agree; plain numbers are lifted to constants.
    """

    __slots__ = ("variables", "sparse")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.sparse = {}
        for expo, coeff in terms.items():
            if len(expo) != len(self.variables):
                raise ValueError("exponent tuple has wrong length")
            if coeff != 0:
                self.sparse[tuple((i, e) for i, e in enumerate(expo) if e)] = coeff

    @classmethod
    def from_sparse(cls, variables, sparse):
        """From ``{monomial: coefficient}``; zero coefficients are dropped."""
        poly = cls.__new__(cls)
        poly.variables = tuple(variables)
        poly.sparse = {m: c for m, c in sparse.items() if c != 0}
        return poly

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value):
        return cls.from_sparse(variables, {(): value})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise MissingSymbol(f"unknown parameter {name!r}")
        return cls.from_sparse(variables, {((variables.index(name), 1),): Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.sparse

    def is_constant(self):
        return all(not m for m in self.sparse)

    def constant_value(self):
        """The constant term; with none, a zero of the coefficients' type
        (Gaussian if any coefficient is, ``Fraction`` for the zero polynomial)."""
        if () in self.sparse:
            return self.sparse[()]
        return sum((c * 0 for c in self.sparse.values()), Fraction(0))

    def used_variables(self):
        return {self.variables[i] for mono in self.sparse for i, _ in mono}

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, ParamPoly):
            if other.variables != self.variables:
                raise ValueError("parameter polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction)):
            # to the coefficients' type, as ``constant_value`` reads it
            return ParamPoly.constant(self.variables, self.constant_value() * 0 + other)
        if isinstance(other, GaussianRational):
            return ParamPoly.constant(self.variables, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self.sparse)
        for mono, coeff in o.sparse.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return ParamPoly.from_sparse(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly.from_sparse(self.variables, {m: -c for m, c in self.sparse.items()})

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            # a number scales the coefficients
            return ParamPoly.from_sparse(
                self.variables, {m: c * other for m, c in self.sparse.items()}
            )
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.sparse.items():
            for m2, c2 in o.sparse.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return ParamPoly.from_sparse(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return _power(_one_like(self) if n == 0 else None, self, n)

    def __truediv__(self, other):
        if isinstance(other, ParamPoly):
            if not other.is_constant():
                raise NotInvertible("cannot divide by a non-constant polynomial")
            other = other.constant_value()
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * _invert_base(other)
        return NotImplemented

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
        return not self.is_zero()

    def is_affine(self):
        return all(sum(e for _, e in mono) <= 1 for mono in self.sparse)

    def affine_parts(self):
        """(constant, {name: coefficient}) for an affine polynomial."""
        if not self.is_affine():
            raise ValueError("polynomial is not affine")
        linear = {self.variables[mono[0][0]]: c for mono, c in self.sparse.items() if mono}
        return self.constant_value(), linear

    def subs(self, mapping):
        """Replace some variables by polynomials (same variable tuple);
        variables absent from the mapping stay symbolic."""
        terms = {}
        for mono, coeff in self.sparse.items():
            kept, image = [], None  # image: product of the replaced powers
            for i, e in mono:
                rep = mapping.get(self.variables[i])
                if rep is None:
                    kept.append((i, e))
                else:
                    rep = rep**e
                    image = rep if image is None else image * rep
            kept = tuple(kept)
            if image is None:
                terms[kept] = terms.get(kept, 0) + coeff
                continue
            for m, c in image.sparse.items():
                m = _mono_mul(kept, m)
                terms[m] = terms.get(m, 0) + coeff * c
        return ParamPoly.from_sparse(self.variables, terms)

    def substitute(self, assignment):
        """Evaluate with every variable bound; see ``substitute_params``."""
        missing = self.used_variables() - set(assignment)
        if missing:
            raise MissingSymbol(f"no value for parameter(s) {sorted(missing)}")
        total = None
        for mono, coeff in self.sparse.items():
            term = coeff
            for i, e in mono:
                value = assignment[self.variables[i]]
                for _ in range(e):
                    term = term * value
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"ParamPoly({format_scalar(self)!r})"


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


class TruncSeries:
    """Element of R[h]/(h^order): ``coeffs[k]`` multiplies h^k.

    Arithmetic between two series insists on equal orders; there is no
    silent re-truncation.  Numbers and ParamPolys lift to constant series.
    """

    __slots__ = ("order", "coeffs")

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

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers must be nonnegative integers")
        return _power(_one_like(self) if k == 0 else None, self, k)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * series_invert(o)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.order == other.order and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def is_zero(self):
        return not self

    def shift_down(self, k):
        """Divide by h^k, discarding the k lowest coefficients (which must
        vanish) and padding the top with zeros."""
        if any(c != 0 for c in self.coeffs[:k]):
            raise NotInvertible(f"series is not divisible by h^{k}")
        return TruncSeries(self.order, self.coeffs[k:] + (_zero_like(self.coeffs),) * k)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"TruncSeries({format_scalar(self)!r})"


# ---------------------------------------------------------------------------
# Free functions on the tower
# ---------------------------------------------------------------------------


def _zero_like(coeffs):
    """The zero of the coefficients' ring; ``Fraction(0)`` for none."""
    if not coeffs or type(coeffs[0]) is Fraction:
        return Fraction(0)
    return coeffs[0] * 0


def _one_like(x):
    """The one of the ring x lives in, coefficients of the same type."""
    if isinstance(x, TruncSeries):
        lead = next((c for c in x.coeffs if c != 0), x.coeffs[0])
        return TruncSeries.constant(x.order, _one_like(lead))
    if isinstance(x, ParamPoly):
        return ParamPoly.constant(x.variables, _one_like(x.constant_value()))
    return x * 0 + 1


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


def _invert_base(c):
    if isinstance(c, int):
        c = Fraction(c)
    if isinstance(c, Fraction):
        if not c:
            raise NotInvertible("division by zero")
        return Fraction(1) / c
    if isinstance(c, GaussianRational):
        return c.inverse()
    if isinstance(c, ParamPoly):
        if not c.is_constant() or c.constant_value() == 0:
            raise NotInvertible("constant term is not an invertible constant")
        return ParamPoly.constant(c.variables, _invert_base(c.constant_value()))
    raise NotInvertible(f"cannot invert {c!r}")


def series_invert(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse in R[h]/(h^order); requires a unit constant
    term.  Computed by the standard recursion

        t_0 = 1/s_0,   t_k = -(sum_{j=1..k} s_j t_{k-j}) / s_0 .
    """
    if not isinstance(s, TruncSeries):
        raise TypeError("series_invert expects a TruncSeries")
    inv0 = _invert_base(s.coeffs[0])
    out = [inv0]
    for k in range(1, s.order):
        acc = None
        for j in range(1, k + 1):
            piece = s.coeffs[j] * out[k - j]
            acc = piece if acc is None else acc + piece
        out.append(-(acc * inv0) if acc is not None else inv0 * 0)
    return TruncSeries(s.order, out)


def h_valuation(s: TruncSeries):
    """Index of the lowest nonzero coefficient, or ``math.inf`` for the
    zero class."""
    for k, c in enumerate(s.coeffs):
        if c != 0:
            return k
    return INF


# ---------------------------------------------------------------------------
# Series and affine polynomials over Q packed into integers
# ---------------------------------------------------------------------------


def scaled_integers(values):
    """(L, values times L, their largest |value|) for L the lcm of the
    denominators; None unless every value is a Fraction."""
    if not {*map(type, values)} <= {Fraction}:
        return None
    dens = [x.denominator for x in values]
    lcm = math.lcm(*dens)
    ints = [x.numerator * (lcm // d) for x, d in zip(values, dens)]
    return lcm, ints, max(map(abs, ints), default=0)


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


class Packing:
    """Kronecker substitution: a value with integer coefficients c_t packs
    as the integer sum c_t 2^(B e_t), a ring map, so packed products are
    the untruncated products.  Three formats:

    * Q (order 1, ``series`` false) and series over Q, where c_t is the
      coefficient of h^t and e_t = t: x is zero mod h^order exactly when
      x & mask, its low ``order`` digits, is 0;
    * affine polynomials over Q in ``variables`` p1..pm, where c_0 is the
      constant term, c_t the coefficient of p_t, and e_0 < ... < e_m a
      Sidon set: a product of two packed values holds the coefficient of
      p_s p_t (p_0 = 1) in digit e_s + e_t and in no other digit, so it
      is read off ``monomials``.  Nothing is truncated, and the mask keeps
      every bit: x is zero exactly when x is 0.

    B puts every digit of a value read back, at most ``bound`` in size,
    strictly inside +-2^(B-1), and ``read`` takes the signed digits over
    ``scale``: a TruncSeries, a Fraction, or a ParamPoly of degree <= 2."""

    __slots__ = ("order", "bits", "mask", "scale", "series", "variables", "positions", "monomials")

    def __init__(self, order, bound, scale, series, variables=None):
        self.order, self.scale, self.series, self.variables = order, scale, series, variables
        self.bits = bound.bit_length() + 1
        if variables is None:
            self.positions, self.monomials = range(order), None
            self.mask = (1 << self.bits * order) - 1
            return
        e = self.positions = _sidon(len(variables) + 1)
        powers = [()] + [((t, 1),) for t in range(len(variables))]
        self.monomials = {
            e[s] + e[t]: _mono_mul(powers[s], powers[t])
            for t in range(len(e))
            for s in range(t + 1)
        }
        self.mask = -1

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

    def read(self, x):
        """The scalar packed as x: its signed digits over ``scale``, the
        low ``order`` ones, or for a polynomial all of them (a nonzero top
        digit at 2^(B p) makes |x| > 2^(B p - 1))."""
        digits, half = [], 1 << (self.bits - 1)
        count = self.order if self.monomials is None else abs(x).bit_length() // self.bits + 1
        for _ in range(count):
            digits.append(((x & (2 * half - 1)) ^ half) - half)
            x = (x - digits[-1]) >> self.bits
        if self.monomials is not None:
            return ParamPoly.from_sparse(
                self.variables,
                {self.monomials[p]: Fraction(d, self.scale) for p, d in enumerate(digits) if d},
            )
        coeffs = tuple(Fraction(d, self.scale) for d in digits)
        return TruncSeries(self.order, coeffs) if self.series else coeffs[0]


def substitute_params(x, assignment):
    """Bind every parameter appearing in ``x`` (a scalar of any layer)
    to a concrete scalar; raises MissingSymbol when one is unbound."""
    if isinstance(x, TruncSeries):
        return TruncSeries(x.order, tuple(substitute_params(c, assignment) for c in x.coeffs))
    if isinstance(x, ParamPoly):
        return x.substitute(assignment)
    return x


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _format_fraction(q: Fraction) -> str:
    return str(q)


def _format_gaussian(z: GaussianRational) -> str:
    if z.im == 0:
        return _format_fraction(z.re)
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


def _format_poly(p: ParamPoly) -> str:
    if not p.sparse:
        return "0"
    pieces = []
    for mono, coeff in sorted(p.sparse.items(), key=_poly_term_key):
        factors = [p.variables[i] if e == 1 else f"{p.variables[i]}^{e}" for i, e in mono]
        if isinstance(coeff, GaussianRational) and coeff.re != 0 and coeff.im != 0:
            coeff_str = f"({_format_gaussian(coeff)})"
            sign = "+"
        else:
            coeff_str = format_scalar(coeff)
            sign = "+"
            if coeff_str.startswith("-"):
                sign = "-"
                coeff_str = coeff_str[1:]
        if factors:
            body = "*".join(factors) if coeff_str == "1" else "*".join([coeff_str] + factors)
        else:
            body = coeff_str
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += sign + body
    return out


def _series_coeff_str(c, k):
    """Render one series term coeff*h^k; non-numeric coefficients are
    parenthesized so the h factor cannot be misread as part of a name.
    A Gaussian rational with zero imaginary part prints as its real part."""
    if isinstance(c, GaussianRational) and not c.im:
        c = c.re
    if k == 0:
        if isinstance(c, (ParamPoly, GaussianRational)) and _needs_parens(c):
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


def _needs_parens(c):
    if isinstance(c, GaussianRational):
        return bool(c.im)
    if isinstance(c, ParamPoly):
        return not c.is_constant() or _needs_parens(c.constant_value())
    return False


def _format_series(s: TruncSeries) -> str:
    pieces = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        pieces.append(_series_coeff_str(c, k))
    if not pieces:
        body = "0"
    else:
        body = pieces[0]
        for piece in pieces[1:]:
            body += piece if piece.startswith("-") else "+" + piece
    return f"{body}@order={s.order}"


def format_scalar(x) -> str:
    if isinstance(x, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return _format_fraction(x)
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
# literal or deeper parentheses are refused before any work is done, so a
# scalar string can neither hang the arithmetic nor exhaust the stack.
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
            value = self.env[tok]
            return self._maybe_power(value)
        if kind == "op" and tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING}")
            value = self.expr()
            if self.take() != ("op", ")"):
                self.fail("expected ')'")
            self.depth -= 1
            return self._maybe_power(value)
        self.fail(f"unexpected token {_quoted(tok)}")

    def _maybe_power(self, value):
        if self.peek() == ("op", "^"):
            self.take()
            kind, tok = self.take()
            if kind != "int":
                self.fail("expected an integer exponent")
            if tok > MAX_EXPONENT:
                self.fail(f"exponent {_quoted(tok)} is above {MAX_EXPONENT}")
            return _power(self.env["__const__"](Fraction(1)), value, tok)
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
        return ParamPoly.from_sparse(self.variables, {})

    def one(self):
        return ParamPoly.constant(self.variables, self.base.one())

    def var(self, name):
        """The parameter ``name``, with the base field's one as coefficient."""
        return ParamPoly.var(self.variables, name) * self.base.one()

    def coerce(self, x):
        if isinstance(x, ParamPoly):
            if x.variables == self.variables:
                return x
            if x.is_constant():
                return ParamPoly.constant(self.variables, x.constant_value())
            if set(x.variables) <= set(self.variables):
                # remap variable indices into the larger variable tuple
                slots = [self.variables.index(v) for v in x.variables]
                terms = {
                    tuple(sorted((slots[i], e) for i, e in mono)): coeff
                    for mono, coeff in x.sparse.items()
                }
                return ParamPoly.from_sparse(self.variables, terms)
            raise BadScalar("polynomial over a different parameter tuple")
        if isinstance(x, (int, Fraction, GaussianRational)):
            return ParamPoly.constant(self.variables, self.base.coerce(x))
        raise BadScalar(f"not a polynomial scalar: {x!r}")

    def _env(self):
        env = {"__const__": lambda q: ParamPoly.constant(self.variables, self.base.coerce(q))}
        if isinstance(self.base, GaussianField):
            env["i"] = ParamPoly.constant(self.variables, GAUSS_I)
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
        env = dict(self.base._env())
        base_env_const = env["__const__"]
        env["__const__"] = lambda q: TruncSeries.constant(self.order, base_env_const(q))
        for name, value in list(env.items()):
            if name != "__const__" and not isinstance(value, TruncSeries):
                env[name] = TruncSeries.constant(self.order, value)
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
