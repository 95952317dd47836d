"""Scalar tower: Gaussian rationals, parameter polynomials, truncated
series, parsing and formatting.

Frozen values (series inverses, formatting strings) were derived by hand
and cross-checked against sympy where a sympy equivalent exists.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_poly
from tpalg.errors import (
    BadScalar,
    MissingSymbol,
    NotInvertible,
    OrderMismatch,
)
from tpalg.scalars import (
    GAUSS_I,
    MAX_EXPONENT,
    MAX_NESTING,
    QI,
    QQ,
    GaussianRational,
    PolynomialRing,
    SeriesRing,
    TruncSeries,
    _power,
    format_scalar,
    h_valuation,
    integer_form,
    parse_series,
    series_invert,
    substitute_params,
)

F = Fraction

small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


def test_gaussian_product_frozen():
    # (1+2i)(3-i) = 5+5i
    assert GaussianRational.of(1, 2) * GaussianRational.of(3, -1) == GaussianRational.of(5, 5)


def test_gaussian_inverse_frozen():
    z = GaussianRational.of(3, 4)
    assert z.inverse() == GaussianRational.of(F(3, 25), F(-4, 25))
    assert z * z.inverse() == GaussianRational.of(1)


def test_gaussian_i_squared():
    assert GAUSS_I * GAUSS_I == GaussianRational.of(-1)


def test_gaussian_equals_fraction_when_real():
    assert GaussianRational.of(F(2, 3)) == F(2, 3)
    assert hash(GaussianRational.of(F(2, 3))) == hash(F(2, 3))
    assert GaussianRational.of(F(2, 3), 1) != F(2, 3)


gaussians = st.builds(GaussianRational.of, small_rationals, small_rationals)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(gaussians)
def test_gaussian_inverse_roundtrip(z):
    if z == GaussianRational.of(0):
        with pytest.raises(NotInvertible):
            z.inverse()
    else:
        assert z * z.inverse() == GaussianRational.of(1)


@given(gaussians, gaussians)
def test_gaussian_matches_sympy(x, y):
    def to_sympy(g):
        return sympy.Rational(g.re) + sympy.I * sympy.Rational(g.im)

    # expand puts a Gaussian rational in the canonical form p + q*I, so
    # equal expansions mean equal numbers; simplify's first call costs more
    # than the deadline
    got = to_sympy(x * y)
    assert sympy.expand(got) == sympy.expand(to_sympy(x) * to_sympy(y))


# ---------------------------------------------------------------------------
# Parameter polynomials
# ---------------------------------------------------------------------------

AB = PolynomialRing(QQ, ("a", "b"))


def test_poly_format_graded_lex():
    a, b = AB.var("a"), AB.var("b")
    p = a * b * b * 3 - F(1, 2)
    assert format_scalar(p) == "3*a*b^2-1/2"


def test_poly_format_monomials():
    a, b = AB.var("a"), AB.var("b")
    assert format_scalar(a) == "a"
    assert format_scalar(-b) == "-b"
    assert format_scalar(AB.zero()) == "0"
    assert format_scalar(a * a - b * a) == "a^2-a*b"


def test_poly_substitute():
    a, b = AB.var("a"), AB.var("b")
    p = a * a + 2 * b - 1
    assert p.substitute({"a": F(3), "b": F(1, 2)}) == F(9)
    with pytest.raises(MissingSymbol):
        p.substitute({"a": F(3)})


def test_poly_partial_subs():
    a, b = AB.var("a"), AB.var("b")
    p = a * b + b
    q = p.subs({"b": a + 1})
    assert q == a * (a + 1) + (a + 1)


def test_affine_parts():
    a, b = AB.var("a"), AB.var("b")
    p = 2 * a - 3 * b + F(1, 2)
    assert p.is_affine()
    const, linear = p.affine_parts()
    assert const == F(1, 2)
    assert linear == {"a": F(2), "b": F(-3)}
    assert not (a * b).is_affine()


def test_gaussian_poly_without_constant_term_has_gaussian_zero():
    p = PolynomialRing(QI, ("a", "b")).var("a") * QI.parse("2+i")
    const, linear = p.affine_parts()
    assert isinstance(const, GaussianRational) and const == 0
    assert linear == {"a": GaussianRational.of(2, 1)}
    assert isinstance(p.constant_value(), GaussianRational)
    assert type(AB.zero().constant_value()) is F


def test_gaussian_poly_parameters_hold_gaussian_coefficients():
    ring = PolynomialRing(QI, ("a", "b"))
    a = ring.var("a")
    for p in (
        ring.parse("a"),
        a,
        ring.parse("2a"),
        ring.parse("a*b"),
        a**0,
        (a * ring.var("b")) ** 0,
        a + 1,
        1 - a,
        a * ring.var("b") + F(1, 2),
        (SeriesRing(ring, 2).h() ** 0).coeffs[0],
        ring.zero() + 1,
        ring.zero() ** 0,
        (a - a) + 1,
        (SeriesRing(ring, 3).zero() ** 0).coeffs[0],
    ):
        assert all(type(c) is GaussianRational for c in p.sparse.values()), p
        assert p.sparse
    assert type(ring.zero().substitute({})) is GaussianRational
    assert ring.parse("a") == ring.var("a") == PolynomialRing(QQ, ("a", "b")).var("a")
    assert all(type(c) is F for c in AB.parse("a").sparse.values())


def test_polys_combine_only_over_equal_rings():
    qa, ia = AB.var("a"), PolynomialRing(QI, ("a", "b")).var("a")
    for other in (ia, ia * 0):
        with pytest.raises(ValueError):
            qa + other
        with pytest.raises(ValueError):
            qa * other
    with pytest.raises(BadScalar):
        qa * GAUSS_I
    with pytest.raises(BadScalar):
        qa + GAUSS_I
    # an equal ring built apart combines
    assert qa + PolynomialRing(QQ, ("a", "b")).var("b") == AB.parse("a+b")


def test_poly_division_by_constant_only():
    a = AB.var("a")
    assert (2 * a) / 2 == a
    with pytest.raises((BadScalar, TypeError, ZeroDivisionError, NotInvertible)):
        (2 * a) / a


def _poly_strategy():
    def build(coeffs):
        terms = {}
        for (ea, eb), c in coeffs:
            if c:
                terms[(ea, eb)] = terms.get((ea, eb), F(0)) + c
        return dense_poly(AB, terms)

    expo = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.builds(build, st.lists(st.tuples(expo, small_rationals), max_size=5))


@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=60)
def test_poly_mul_matches_sympy(p, q):
    sa, sb = sympy.symbols("a b")

    def to_sympy(poly):
        acc = sympy.Integer(0)
        for (ea, eb), c in poly.terms.items():
            acc += sympy.Rational(c) * sa**ea * sb**eb
        return acc

    assert sympy.expand(to_sympy(p * q) - to_sympy(p) * to_sympy(q)) == 0


# ---------------------------------------------------------------------------
# Sparse monomials against the dense reference
# ---------------------------------------------------------------------------


class DenseParamPoly:
    """Reference: the dense ``ParamPoly``, one exponent slot per declared
    parameter, kept verbatim apart from its name and printer."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        clean = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != len(self.variables):
                raise ValueError("exponent tuple has wrong length")
            if coeff == 0:
                continue
            clean[expo] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        zero = (0,) * len(variables)
        return cls(variables, {zero: value})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise MissingSymbol(f"unknown parameter {name!r}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {expo: Fraction(1)})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        zero = (0,) * len(self.variables)
        return all(e == zero for e in self.terms)

    def constant_value(self):
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, Fraction(0))

    def used_variables(self):
        used = set()
        for expo in self.terms:
            for name, e in zip(self.variables, expo):
                if e:
                    used.add(name)
        return used

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, DenseParamPoly):
            if other.variables != self.variables:
                raise ValueError("parameter polynomials over different variables")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return DenseParamPoly.constant(self.variables, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in o.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return DenseParamPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return DenseParamPoly(self.variables, {e: -c for e, c in self.terms.items()})

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
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return DenseParamPoly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return _power(DenseParamPoly.constant(self.variables, Fraction(1)), self, n)

    def __truediv__(self, other):
        if isinstance(other, DenseParamPoly):
            if not other.is_constant():
                raise NotInvertible("cannot divide by a non-constant polynomial")
            other = other.constant_value()
        if isinstance(other, (int, Fraction, GaussianRational)):
            inverse = other.inverse() if isinstance(other, GaussianRational) else 1 / Fraction(other)
            return self * inverse
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, DenseParamPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not self.terms:
                return other == 0
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.variables, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __bool__(self):
        return not self.is_zero()

    def is_affine(self):
        return all(sum(expo) <= 1 for expo in self.terms)

    def affine_parts(self):
        """(constant, {name: coefficient}) for an affine polynomial."""
        if not self.is_affine():
            raise ValueError("polynomial is not affine")
        const = Fraction(0)
        linear = {}
        for expo, coeff in self.terms.items():
            deg = sum(expo)
            if deg == 0:
                const = coeff
            else:
                name = self.variables[expo.index(1)]
                linear[name] = coeff
        return const, linear

    def subs(self, mapping):
        """Replace some variables by polynomials (same variable tuple);
        variables absent from the mapping stay symbolic."""
        out = DenseParamPoly(self.variables, {})
        for expo, coeff in self.terms.items():
            term = DenseParamPoly.constant(self.variables, coeff)
            for name, e in zip(self.variables, expo):
                if e == 0:
                    continue
                rep = mapping.get(name)
                base = rep if rep is not None else DenseParamPoly.var(self.variables, name)
                term = term * base**e
            out = out + term
        return out

    def substitute(self, assignment):
        """Evaluate with every variable bound; see ``substitute_params``."""
        missing = self.used_variables() - set(assignment)
        if missing:
            raise MissingSymbol(f"no value for parameter(s) {sorted(missing)}")
        total = None
        for expo, coeff in self.terms.items():
            term = coeff
            for name, e in zip(self.variables, expo):
                for _ in range(e):
                    term = term * assignment[name]
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def __str__(self):
        return _format_dense_poly(self)


def _dense_term_key(item):
    expo, _ = item
    return (-sum(expo), tuple(-e for e in expo))


def _format_dense_poly(p):
    """The dense printer: terms by total degree, then reverse lex."""
    if not p.terms:
        return "0"
    pieces = []
    for expo, coeff in sorted(p.terms.items(), key=_dense_term_key):
        factors = []
        for name, e in zip(p.variables, expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if isinstance(coeff, GaussianRational) and coeff.re != 0 and coeff.im != 0:
            coeff_str = f"({format_scalar(coeff)})"
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


small_gaussians = st.builds(GaussianRational, small_rationals, small_rationals)


@st.composite
def _sparse_cases(draw):
    """Dense term dicts over a ring of up to 130 names, each polynomial in
    1-8 symbols set far apart, with rational or Gaussian coefficients; the
    ring is over Q(i) when the coefficients or the number are Gaussian."""
    size = draw(st.integers(1, 130))
    names = tuple(f"s{i}" for i in range(size))
    coeffs = draw(st.sampled_from([small_rationals, small_gaussians]))
    # a number the polynomials meet in the ring: an int, a Fraction or a Gaussian
    number = draw(st.one_of(st.integers(-3, 3), small_rationals, small_gaussians))
    gaussian = coeffs is small_gaussians or isinstance(number, GaussianRational)

    def poly():
        slots = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8, unique=True))
        terms = {}
        exponents = st.lists(st.integers(0, 2), min_size=len(slots), max_size=len(slots))
        for powers, c in draw(st.lists(st.tuples(exponents, coeffs), max_size=4)):
            expo = [0] * size
            for slot, e in zip(slots, powers):
                expo[slot] = e
            terms[tuple(expo)] = c
        return terms

    return PolynomialRing(QI if gaussian else QQ, names), poly(), poly(), poly(), number


def _same(sparse, dense):
    assert str(sparse) == str(dense)
    assert sparse.terms == dense.terms
    assert sparse.used_variables() == dense.used_variables()
    assert sparse.is_zero() == dense.is_zero()
    assert sparse.is_constant() == dense.is_constant()
    assert sparse.constant_value() == dense.constant_value()
    assert sparse.is_affine() == dense.is_affine()
    if dense.is_affine():
        assert sparse.affine_parts() == dense.affine_parts()
    values = {name: F(i % 7 - 3, i % 3 + 1) for i, name in enumerate(dense.variables)}
    assert sparse.substitute(values) == dense.substitute(values)


@given(_sparse_cases(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_sparse_poly_matches_dense_reference(case, k):
    ring, tp, tq, tr, c = case
    names = ring.variables
    p, q, r = (dense_poly(ring, t) for t in (tp, tq, tr))
    dp, dq, dr = (DenseParamPoly(names, t) for t in (tp, tq, tr))
    pairs = [
        (p, dp),
        (p + q, dp + dq),
        (p - q, dp - dq),
        (-p, -dp),
        (p * q, dp * dq),
        (p * c, dp * c),
        (c * p, c * dp),
        (p + c, dp + c),
        (c - p, c - dp),
        (p**k, dp**k),
    ]
    if c:
        pairs.append((p / c, dp / c))
        pairs.append((p / ring.coerce(c), dp / DenseParamPoly.constant(names, c)))
    # partial substitution: two of p's symbols go to polynomial images
    used = sorted(dp.used_variables())
    pairs.append((
        p.subs(dict(zip(used[::2], (q, r + c)))),
        dp.subs(dict(zip(used[::2], (dq, dr + c)))),
    ))
    for sparse, dense in pairs:
        assert sparse.ring == ring
        _same(sparse, dense)
    for name in used[:2]:
        _same(ring.var(name), DenseParamPoly.var(names, name))
    _same(ring.coerce(c), DenseParamPoly.constant(names, c))
    # coerced into Q(i): the same polynomial, its coefficients Gaussian
    iring = PolynomialRing(QI, names)
    assert ring.coerce(p) is p and iring.coerce(p).ring == iring
    assert all(type(x) is GaussianRational for x in iring.coerce(p).sparse.values())
    _same(iring.coerce(p), dp)


@given(_sparse_cases())
@settings(max_examples=60, deadline=None)
def test_equal_polys_hash_equal(case):
    ring, tp, tq, _, c = case
    p, q = dense_poly(ring, tp), dense_poly(ring, tq)
    rebuilt = (p + q) - q
    assert rebuilt == p and hash(rebuilt) == hash(p)
    # the same terms inserted in another order
    backwards = dense_poly(ring, dict(reversed(list(tp.items()))))
    assert backwards == p and hash(backwards) == hash(p)
    assert p + q == q + p and hash(p + q) == hash(q + p)
    assert (p * q) * 2 == p * (q * 2) and hash((p * q) * 2) == hash(p * (q * 2))
    const = ring.coerce(c)
    assert const == c and hash(const) == hash(c)
    half = PolynomialRing(QI, ring.variables).coerce(F(1, 2))
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    assert ring.zero() == 0 and hash(ring.zero()) == hash(F(0))


def test_sparse_print_order_pinned():
    # recorded with the dense printer on a 125-name ring, the size of the
    # equivalence solver's ring at dim 5, order 6
    names = tuple(f"s{k}_{t}" for k in range(1, 6) for t in range(25))
    ring = PolynomialRing(QQ, names)
    v = ring.var
    p = v("s1_4") ** 2 + 2 * v("s2_4") - v("s2_8")
    assert str(p) == "s1_4^2+2*s2_4-s2_8"
    q = (
        p + v("s5_24") * v("s1_0") - F(1, 3) * v("s3_7") ** 3 + v("s2_8") * v("s2_4") * v("s1_4")
        + 7 - v("s1_0") ** 2 * v("s3_7") + F(5, 2) * v("s4_1") * v("s2_4")
    )
    assert str(q) == (
        "-s1_0^2*s3_7+s1_4*s2_4*s2_8-1/3*s3_7^3+s1_0*s5_24+s1_4^2"
        "+5/2*s2_4*s4_1+2*s2_4-s2_8+7"
    )
    iring = PolynomialRing(QI, names)
    s1_1, s5_0 = iring.var("s1_1"), iring.var("s5_0")
    w = iring.coerce(q) * (1 + GAUSS_I) - GAUSS_I * s5_0**2 + s1_1 * s5_0
    assert str(w) == (
        "(-1-i)*s1_0^2*s3_7+(1+i)*s1_4*s2_4*s2_8+(-1/3-1/3i)*s3_7^3+(1+i)*s1_0*s5_24"
        "+s1_1*s5_0+(1+i)*s1_4^2+(5/2+5/2i)*s2_4*s4_1-i*s5_0^2+(2+2i)*s2_4+(-1-i)*s2_8+(7+7i)"
    )
    assert repr(q.subs({"s2_4": v("s1_4") - 1})) == (
        "ParamPoly('-s1_0^2*s3_7+s1_4^2*s2_8-1/3*s3_7^3+s1_0*s5_24+s1_4^2-s1_4*s2_8"
        "+5/2*s1_4*s4_1+2*s1_4-s2_8-5/2*s4_1+5')"
    )


# ---------------------------------------------------------------------------
# Truncated series
# ---------------------------------------------------------------------------


def test_series_invert_frozen():
    # 1/(2+h) = 1/2 - h/4 + h^2/8 + O(h^3)
    s = TruncSeries(3, (F(2), F(1)))
    inv = series_invert(s)
    assert inv == TruncSeries(3, (F(1, 2), F(-1, 4), F(1, 8)))
    assert s * inv == TruncSeries.constant(3, F(1))


def test_series_invert_matches_sympy():
    h = sympy.symbols("h")
    order = 6
    coeffs = [F(3), F(-1), F(0), F(2), F(1, 2), F(-5)]
    s = TruncSeries(order, tuple(coeffs))
    inv = series_invert(s)
    expr = sum(sympy.Rational(c) * h**k for k, c in enumerate(coeffs))
    expected = sympy.series(1 / expr, h, 0, order).removeO()
    got = sum(sympy.Rational(c) * h**k for k, c in enumerate(inv.coeffs))
    assert sympy.expand(got - expected) == 0


def test_gaussian_series_hold_gaussian_coefficients():
    ring = SeriesRing(QI, 4)
    h = ring.h()
    z = GaussianRational.of(F(-3, 2), -1)
    for s in (
        ring.zero(),
        ring.one(),
        h,
        TruncSeries.constant(4, z),
        TruncSeries.h(4, QI.one()),
        h * h,
        h**1,
        (1 + h) ** 3,
        (1 + h) * TruncSeries.constant(4, z),
        series_invert(ring.one() + h),
        series_invert(TruncSeries.constant(4, z)),
        (h * h).shift_down(1),
        SeriesRing(QI, 1).h(),
        TruncSeries.h(1, QI.one()),
        h**0,
        (1 + h) ** 0,
        ring.zero() ** 0,
        SeriesRing(QI, 3).h() ** 0,
    ):
        assert all(isinstance(c, GaussianRational) for c in s.coeffs), repr(s.coeffs)
    assert TruncSeries(3, ()).coeffs == (F(0), F(0), F(0))


def test_series_order_mismatch():
    with pytest.raises(OrderMismatch):
        TruncSeries(3, (F(1),)) + TruncSeries(4, (F(1),))


@pytest.mark.parametrize("value", [0, 5, F(-2, 3)], ids=["zero", "five", "minus-two-thirds"])
def test_equal_constants_hash_equal(value):
    # one value as every scalar type: all are equal, so all hash alike and
    # a set of them keeps one
    forms = [
        value,
        F(value),
        GaussianRational.of(value),
        PolynomialRing(QQ, ("a",)).coerce(value),
        PolynomialRing(QI, ("a",)).coerce(value),
        SeriesRing(QQ, 3).coerce(value),
        SeriesRing(QI, 3).coerce(value),
        TruncSeries.constant(3, PolynomialRing(QQ, ("a",)).coerce(value)),
    ]
    for x in forms:
        for y in forms:
            assert x == y and hash(x) == hash(y), (x, y)
    assert len(set(forms)) == 1
    s = TruncSeries.constant(3, F(value))
    assert F(value) in {s} and s in {F(value)}


def test_scalar_refusals():
    with pytest.raises(TypeError, match="^not a scalar: <object"):
        format_scalar(object())
    with pytest.raises(ValueError, match="^more coefficients than the truncation order allows$"):
        TruncSeries(2, (1, 2, 3))
    with pytest.raises(TypeError, match="^series_invert expects a TruncSeries$"):
        series_invert(F(1))
    ring = PolynomialRing(QQ, ("a",))
    with pytest.raises(BadScalar, match="^polynomial over a different parameter tuple$"):
        ring.coerce(PolynomialRing(QQ, ("b",)).var("b"))
    with pytest.raises(BadScalar, match="^not a polynomial scalar: 'x'$"):
        ring.coerce("x")
    with pytest.raises(OrderMismatch, match="^series order 2 does not match ring order 3$"):
        SeriesRing(QQ, 3).coerce(SeriesRing(QQ, 2).one())


def test_series_shift():
    s = TruncSeries(4, (F(0), F(0), F(3), F(5)))
    assert s.shift_down(2) == TruncSeries(4, (F(3), F(5), F(0), F(0)))
    with pytest.raises(NotInvertible):
        s.shift_down(3)


def test_h_valuation():
    assert h_valuation(parse_series("h^2+h^3", order=5)) == 2
    assert h_valuation(parse_series("0", order=5)) == float("inf")
    assert h_valuation(parse_series("2", order=5)) == 0


def _series_strategy(order=4):
    coeff = st.lists(small_rationals, min_size=order, max_size=order)
    return st.builds(lambda cs: TruncSeries(order, tuple(cs)), coeff)


@given(_series_strategy(), _series_strategy(), _series_strategy())
@settings(max_examples=60)
def test_series_ring_axioms(s, t, u):
    assert (s + t) * u == s * u + t * u
    assert s * t == t * s
    assert (s * t) * u == s * (t * u)


@given(_series_strategy())
@settings(max_examples=60)
def test_series_invert_roundtrip(s):
    if s.coeffs[0] == 0:
        with pytest.raises(NotInvertible):
            series_invert(s)
    else:
        assert s * series_invert(s) == TruncSeries.constant(s.order, F(1))


def _repeated_product(one, x, k):
    out = one
    for _ in range(k):
        out = out * x
    return out


@given(_series_strategy(), _poly_strategy(), st.integers(0, 9))
@settings(max_examples=60)
def test_powers_match_repeated_products(s, p, k):
    assert s**k == _repeated_product(TruncSeries.constant(s.order, F(1)), s, k)
    assert p**k == _repeated_product(p.ring.one(), p, k)


def test_huge_series_power_is_cheap():
    # h^k vanishes mod h^2 for k >= 2; squaring gets there in 27 products
    assert (TruncSeries.h(2) ** 99999999).is_zero()
    assert (1 + TruncSeries.h(3)) ** 99999999 == TruncSeries(3, (F(1), F(99999999), F(99999999 * 99999998, 2)))


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------


def test_parser_limits():
    deep = "(" * MAX_NESTING + "h" + ")" * MAX_NESTING
    assert parse_series(deep, order=3) == TruncSeries.h(3)
    with pytest.raises(BadScalar, match="nest"):
        parse_series("(" + deep + ")", order=3)
    assert parse_series(f"h^{MAX_EXPONENT}", order=2).is_zero()
    with pytest.raises(BadScalar, match="exponent"):
        parse_series(f"h^{MAX_EXPONENT + 1}", order=2)
    with pytest.raises(BadScalar, match="exponent"):
        QQ.parse(f"(2)^{MAX_EXPONENT + 1}")
    # nested exponents are refused by their product, before any power
    series = SeriesRing(QQ, 3)
    for ring, text in [
        (series, "((h)^40)^40"),
        (QQ, "(((2)^1000)^1000)^1000"),
        (QQ, "((2)^1000)^2"),
        (series, "((h^2 (h^40)^1)^5)^6"),
    ]:
        with pytest.raises(BadScalar, match=f"nested exponent product .* is above {MAX_EXPONENT}"):
            ring.parse(text)
    assert series.parse("(h^10)^100").is_zero()
    assert series.parse("(1+h)^2") == TruncSeries(3, (F(1), F(2), F(1)))
    assert QI.parse("(1+i)^3") == GaussianRational.of(-2, 2)
    assert QQ.parse("(2)^1000") == F(2**1000)
    assert QQ.parse("((2)^10)^100") == F(2**1000)


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("1+2h-h^3", (F(1), F(2), F(0), F(-1), F(0))),
        ("h", (F(0), F(1), F(0), F(0), F(0))),
        ("-3/4", (F(-3, 4), F(0), F(0), F(0), F(0))),
        ("2h(1+h)", (F(0), F(2), F(2), F(0), F(0))),
        ("(1+h)^2", (F(1), F(2), F(1), F(0), F(0))),
    ],
)
def test_parse_series_cases(text, coeffs):
    assert parse_series(text, order=5) == TruncSeries(5, coeffs)


def test_parse_series_order_suffix():
    s = parse_series("1+2h-h^3@order=5")
    assert s.order == 5
    assert parse_series("h@order=1") == TruncSeries(1, ())  # h = 0 mod h
    with pytest.raises(OrderMismatch):
        parse_series("h@order=3", order=4)


def test_series_format_roundtrip_examples():
    for text in ("1+2h-h^3@order=5", "0@order=3", "1/2-1/4h+1/8h^2@order=3", "h@order=1"):
        s = parse_series(text)
        assert parse_series(format_scalar(s)) == s


def test_gaussian_series_format():
    ring = SeriesRing(QI, 3)
    s = ring.parse("(1+2i)h^2")
    assert format_scalar(s) == "(1+2i)h^2@order=3"
    assert ring.parse(format_scalar(s)) == s
    s = ring.parse("(1+i)+2h")
    assert format_scalar(s) == "(1+i)+2h@order=3"
    assert ring.parse(format_scalar(s)) == s


@pytest.mark.parametrize("text", ["1+h", "h", "-h+1/2h^2", "2-3h^2"])
def test_real_gaussian_series_print_as_rational(text):
    q = parse_series(text, QQ, 3)
    qi = parse_series(text, QI, 3)
    assert format_scalar(qi) == format_scalar(q)


@pytest.mark.parametrize("text", ["1+h+i*h^2", "(1+i)h", "-h+1/2h^2"])
def test_gaussian_series_roundtrip(text):
    s = parse_series(text, QI, 3)
    assert parse_series(format_scalar(s), QI) == s


def test_parse_gaussian_powers():
    assert QI.parse("i^2") == -1
    assert QI.parse("(1+i)^3") == GaussianRational.of(-2, 2)
    assert QI.parse("(1+i)^0") == 1


def test_format_gaussian_scalars():
    assert format_scalar(GAUSS_I) == "i"
    assert format_scalar(GaussianRational.of(0, 2)) == "2i"
    assert format_scalar(GaussianRational.of(F(1, 2), F(-3, 4))) == "1/2-3/4i"


@pytest.mark.parametrize(
    "bad",
    ["", "1+", "x", "2**3", "1/0", "h@order=x"],
)
def test_parse_errors(bad):
    with pytest.raises(BadScalar):
        parse_series(bad, order=4)


def test_parse_empty_body_with_suffix():
    with pytest.raises(BadScalar):
        parse_series("@order=3")


def test_reserved_parameter_names():
    with pytest.raises(BadScalar):
        PolynomialRing(QQ, ("h",))
    with pytest.raises(BadScalar):
        PolynomialRing(QQ, ("i",))
    with pytest.raises(BadScalar):
        PolynomialRing(QQ, ("a", "a"))


@given(_series_strategy(5))
@settings(max_examples=60)
def test_series_format_parse_roundtrip(s):
    assert parse_series(format_scalar(s)) == s


# ---------------------------------------------------------------------------
# Substitution across the tower
# ---------------------------------------------------------------------------


def test_substitute_params_series():
    ring = PolynomialRing(QQ, ("t",))
    t = ring.var("t")
    s = TruncSeries(3, (t, t * t, ring.one()))
    out = substitute_params(s, {"t": F(2)})
    assert out == TruncSeries(3, (F(2), F(4), F(1)))
    with pytest.raises(MissingSymbol):
        substitute_params(s, {})


def test_polynomial_ring_coerce_subset_variables():
    small = PolynomialRing(QQ, ("a",))
    big = PolynomialRing(QQ, ("lam", "a", "b"))
    p = small.var("a") * 2 + 1
    q = big.coerce(p)
    assert q.variables == ("lam", "a", "b")
    assert q == big.var("a") * 2 + 1


# ---------------------------------------------------------------------------
# Branches no other test reaches: each value, exception type and message
# ---------------------------------------------------------------------------

_Z = GaussianRational.of(1, 1)
_R = PolynomialRing(QQ, ("a", "b"))
_A = _R.var("a")
_S = parse_series("1+h@order=3")
_FOREIGN = object()


@pytest.mark.parametrize(
    "compute, message",
    [
        (lambda: _Z - _FOREIGN, "for -: 'GaussianRational' and 'object'"),
        (lambda: _FOREIGN - _Z, "for -: 'object' and 'GaussianRational'"),
        (lambda: _Z / _FOREIGN, "for /: 'GaussianRational' and 'object'"),
        (lambda: _FOREIGN / _Z, "for /: 'object' and 'GaussianRational'"),
        (lambda: _A + _FOREIGN, "for +: 'ParamPoly' and 'object'"),
        (lambda: _A * _FOREIGN, "for *: 'ParamPoly' and 'object'"),
        (lambda: _A - _FOREIGN, "for -: 'ParamPoly' and 'object'"),
        (lambda: _FOREIGN - _A, "for -: 'object' and 'ParamPoly'"),
        (lambda: _A / _FOREIGN, "for /: 'ParamPoly' and 'object'"),
        (lambda: _S + _FOREIGN, "for +: 'TruncSeries' and 'object'"),
        (lambda: _S * _FOREIGN, "for *: 'TruncSeries' and 'object'"),
    ],
    ids=[
        "gauss-sub", "gauss-rsub", "gauss-div", "gauss-rdiv", "poly-add", "poly-mul",
        "poly-sub", "poly-rsub", "poly-div", "series-add", "series-mul",
    ],
)
def test_foreign_operands_are_refused(compute, message):
    with pytest.raises(TypeError) as info:
        compute()
    assert str(info.value) == f"unsupported operand type(s) {message}"


def test_series_compares_unequal_to_a_foreign_object():
    assert _S.__eq__(_FOREIGN) is NotImplemented
    assert (_S == _FOREIGN) is False


@pytest.mark.parametrize(
    "compute, expected",
    [
        (lambda: 2 / _Z, "GaussianRational(re=Fraction(1, 1), im=Fraction(-1, 1))"),
        (lambda: str(_Z), "'1+i'"),
        (lambda: parse_series("1+h@order=4") / parse_series("1-h@order=4"),
         "TruncSeries('1+2h+2h^2+2h^3@order=4')"),
        (lambda: integer_form(SeriesRing(QQ, 3), [F(1)], 1), "None"),
        (lambda: substitute_params(F(3), {}), "Fraction(3, 1)"),
        (lambda: QQ.parse("+3"), "Fraction(3, 1)"),
        (lambda: QQ.parse("+2-5"), "Fraction(-3, 1)"),
        (lambda: QQ.coerce(GaussianRational.of(2, 0)), "Fraction(2, 1)"),
        (lambda: QQ.coerce(_R.coerce(F(1, 2))), "Fraction(1, 2)"),
        (lambda: QI.coerce(_R.coerce(3)), "GaussianRational(re=Fraction(3, 1), im=Fraction(0, 1))"),
        (lambda: QI.coerce(PolynomialRing(QI, ("a",)).coerce(GAUSS_I)),
         "GaussianRational(re=Fraction(0, 1), im=Fraction(1, 1))"),
        (lambda: SeriesRing(QI, 3).tag, "'Qi'"),
    ],
    ids=[
        "int-over-gauss", "gauss-str", "series-over-series", "integer-form-not-series",
        "substitute-number", "leading-plus", "leading-plus-sum", "q-coerce-real-gauss",
        "q-coerce-constant-poly", "qi-coerce-constant-poly", "qi-coerce-gaussian-poly",
        "series-ring-tag",
    ],
)
def test_branch_values(compute, expected):
    assert repr(compute()) == expected


@pytest.mark.parametrize(
    "base, text, printed",
    [
        (QQ, "a+1+h", "(a+1)+(1)h@order=3"),
        (QI, "(1+i)+a h", "((1+i))+(a)h@order=3"),
    ],
    ids=["Q", "Qi"],
)
def test_polynomial_constant_term_of_a_series_round_trips(base, text, printed):
    ring = SeriesRing(PolynomialRing(base, ("a",)), 3)
    value = ring.parse(text)
    assert format_scalar(value) == printed
    assert ring.parse(printed) == value


@pytest.mark.parametrize(
    "compute, error, message",
    [
        (lambda: 2 / GaussianRational.of(0), NotInvertible, "division by zero in Q(i)"),
        (lambda: _A ** -1, ValueError, "polynomial powers must be nonnegative integers"),
        (lambda: _A ** 1.5, ValueError, "polynomial powers must be nonnegative integers"),
        (lambda: _S ** -1, ValueError, "series powers must be nonnegative integers"),
        (lambda: (_A * _R.var("b")).affine_parts(), ValueError, "polynomial is not affine"),
        (lambda: TruncSeries(0, ()), ValueError, "truncation order must be at least 1"),
        (lambda: SeriesRing(QQ, 0), ValueError, "truncation order must be at least 1"),
        (lambda: format_scalar(True), TypeError, "booleans are not scalars"),
        (lambda: QQ.coerce(True), BadScalar, "booleans are not scalars"),
        (lambda: QI.coerce(True), BadScalar, "booleans are not scalars"),
        (lambda: QI.coerce("x"), BadScalar, "not a Gaussian rational: 'x'"),
        (lambda: _R.var("z"), MissingSymbol, "unknown parameter 'z'"),
        (lambda: parse_series("h"), BadScalar, "series literal needs an '@order=N' suffix: 'h'"),
    ],
    ids=[
        "int-over-gauss-zero", "poly-negative-power", "poly-fractional-power",
        "series-negative-power", "non-affine-parts", "series-order-0", "series-ring-order-0",
        "format-bool", "q-coerce-bool", "qi-coerce-bool", "qi-coerce-str", "unknown-var",
        "series-without-order",
    ],
)
def test_branch_refusals(compute, error, message):
    with pytest.raises(error) as info:
        compute()
    assert type(info.value) is error
    assert str(info.value) == message
