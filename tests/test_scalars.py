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
    ParamPoly,
    PolynomialRing,
    SeriesRing,
    TruncSeries,
    format_scalar,
    h_valuation,
    parse_series,
    series_divide_exact,
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


def test_poly_division_by_constant_only():
    a = AB.var("a")
    assert (2 * a) / 2 == a
    with pytest.raises((BadScalar, TypeError, ZeroDivisionError, NotInvertible)):
        (2 * a) / a


def _poly_strategy():
    names = ("a", "b")

    def build(coeffs):
        terms = {}
        for (ea, eb), c in coeffs:
            if c:
                terms[(ea, eb)] = terms.get((ea, eb), F(0)) + c
        return ParamPoly(names, {e: c for e, c in terms.items() if c})

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


def test_series_order_mismatch():
    with pytest.raises(OrderMismatch):
        TruncSeries(3, (F(1),)) + TruncSeries(4, (F(1),))


def test_series_shift():
    s = TruncSeries(4, (F(0), F(0), F(3), F(5)))
    assert s.shift_down(2) == TruncSeries(4, (F(3), F(5), F(0), F(0)))
    assert s.shift_down(2).shift_up(2) == s
    with pytest.raises(NotInvertible):
        s.shift_down(3)


def test_series_divide_exact():
    order = 5
    b = parse_series("3h^2+5h^3", order=order)
    target = parse_series("3h^2", order=order)
    eps = series_divide_exact(target, b)
    # eps = 1/(1 + 5/3 h), the proof's witness series
    assert eps == parse_series("1-5/3h+25/9h^2-125/27h^3+625/81h^4", order=order)


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
    assert p**k == _repeated_product(ParamPoly.constant(p.variables, F(1)), p, k)


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
    with pytest.raises(OrderMismatch):
        parse_series("h@order=3", order=4)


def test_series_format_roundtrip_examples():
    for text in ("1+2h-h^3@order=5", "0@order=3", "1/2-1/4h+1/8h^2@order=3"):
        s = parse_series(text)
        assert parse_series(format_scalar(s)) == s


def test_gaussian_series_format():
    ring = SeriesRing(QI, 3)
    s = ring.parse("(1+2i)h^2")
    assert format_scalar(s) == "(1+2i)h^2@order=3"
    assert ring.parse(format_scalar(s)) == s


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
    ring = SeriesRing(PolynomialRing(QQ, ("t",)), 3)
    t = ParamPoly.var(("t",), "t")
    s = TruncSeries(3, (t, t * t, ParamPoly.constant(("t",), F(1))))
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
