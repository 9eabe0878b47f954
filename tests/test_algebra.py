import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import oracles
from chordlab.algebra import (
    MVPoly, NotHomogeneousError, NotSymmetricError, ParseError,
    TruncatedSeries, esym_assemble, esym_expand, gamma_expand, parse_poly, poly_sum,
    rising_factorial, stirling1_unsigned, stirling2,
)
from oracles import gamma_assemble

X, Y, Z = MVPoly.var("x"), MVPoly.var("y"), MVPoly.var("z")


def poly(text):
    return parse_poly(text)


class TestArithmetic:
    def test_add(self):
        assert X + Y == poly("x + y")

    def test_cancellation_gives_empty_term_set(self):
        p = X - X
        assert p.is_zero
        assert p.terms == {}

    def test_m2_assembly(self):
        st2 = (MVPoly.var("s") * MVPoly.var("t")) ** 2
        tail = 2 * MVPoly.var("t") * X * Y
        assert st2 + tail == poly("s^2*t^2 + 2*t*x*y")

    def test_mul(self):
        assert (X + Y) * (X + Y) == poly("x^2 + 2*x*y + y^2")

    def test_pow_zero(self):
        assert (X + Y) ** 0 == MVPoly.const(1)

    def test_m3_tail(self):
        lhs = 4 * MVPoly.var("t") * X * Y * (X + Y)
        assert lhs == poly("4*t*x^2*y + 4*t*x*y^2")

    def test_partial(self):
        assert (X ** 2 * Y).partial("x") == 2 * X * Y
        assert (X + Y).partial("z").is_zero
        xi2 = poly("x^2 + 2*y")
        assert xi2.partial("x") == 2 * X

    def test_subst(self):
        assert (X + Y).subst({"x": 2 * MVPoly.var("a"), "y": 2 * MVPoly.var("b")}) \
            == poly("2*a + 2*b")
        assert (X * Y).subst({"x": X + Y, "y": X - Y}) == poly("x^2 - y^2")

    def test_subst_is_simultaneous(self):
        p = X * Y
        assert p.subst({"x": Y, "y": X}) == p

    def test_eval(self):
        assert (X + Y).evaluate({"x": 1, "y": 1}) == 2
        m2 = poly("s^2*t^2 + 2*t*x*y")
        assert m2.evaluate({"x": 1, "y": 1, "s": 1, "t": 1}) == 3

    def test_eval_rising_value(self):
        # q(q+1)(q+2) at q=2 is 24
        assert rising_factorial(1, 3).evaluate({"q": 2}) == 24

    def test_argument_errors_are_value_errors(self):
        for cls in (ParseError, NotSymmetricError, NotHomogeneousError):
            assert issubclass(cls, ValueError)

    def test_eval_unbound(self):
        with pytest.raises(ValueError, match="^variable 'x' is not bound$") as info:
            (X + Y).evaluate({"y": 1})
        assert type(info.value) is ValueError


class TestRendering:
    def test_graded_lex_descending(self):
        m3 = poly("4*t*x*y^2 + s^3*t^3 + 4*t*x^2*y + 6*s*t^2*x*y")
        assert m3.render() == "s^3*t^3 + 6*s*t^2*x*y + 4*t*x^2*y + 4*t*x*y^2"

    def test_fractions_and_units(self):
        assert (Fraction(1, 2) * X + Y).render() == "1/2*x + y"
        assert (-X).render() == "-x"
        assert MVPoly.zero().render() == "0"
        assert MVPoly.const(Fraction(-3, 4)).render() == "-3/4"

    def test_parse_round_trip(self):
        for text in ("0", "x", "2*x^3*y + 1/2", "a^2*b + a*b^2", "-x + y",
                     "x - y", "x^2 - 3/2*y - 1"):
            assert parse_poly(parse_poly(text).render()) == parse_poly(text)
        assert parse_poly("x + -2*y") == parse_poly("x - 2*y")
        assert parse_poly("x - -y") == parse_poly("x + y")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly("x +")
        with pytest.raises(ParseError):
            parse_poly("x ^ y")
        with pytest.raises(ParseError):
            parse_poly("(x + y")
        with pytest.raises(ParseError):
            parse_poly("x + --y")

    @pytest.mark.parametrize("text,message", [
        # `str.isdigit` accepts superscripts, which `int` cannot read
        ("a^\u00b2", "1:3: expected integer exponent, got '\u00b2'"),
        ("\u00b2", "1:1: unexpected token '\u00b2'"),
        ("1/\u00b2", "1:3: expected positive integer denominator, got '\u00b2'"),
        ("x^y", "1:3: expected integer exponent, got 'y'"),
        ("1/0", "1:3: expected positive integer denominator, got '0'"),
        ("\u03b1*x", "1:1: unexpected token '\u03b1'"),
    ])
    def test_tokens_outside_the_format(self, text, message):
        with pytest.raises(ParseError, match=f"{re.escape(message)}$"):
            parse_poly(text)

    def test_deep_nesting(self):
        # the parser recurses per level: 150 fit the default stack, 5,000 do
        # not, and fail at a token the parser had reached
        assert parse_poly("(" * 150 + "x" + ")" * 150) == parse_poly("x")
        text = "(" * 5000 + "x" + ")" * 5000
        with pytest.raises(ParseError, match="parentheses nested too deeply$") as info:
            parse_poly(text)
        assert text[info.value.column - 1] == "("

    def test_unicode_decimal_digits_are_numbers(self):
        assert parse_poly("\u0663*x^\u0662") == parse_poly("3*x^2")


class TestGammaExpand:
    def test_linear(self):
        assert gamma_expand(X + Y, "x", "y") == [(0, MVPoly.const(1))]

    def test_nca4_at_z0(self):
        p = poly("x^3 + 11*x^2*y + 11*x*y^2 + y^3")
        expansion = gamma_expand(p, "x", "y")
        assert expansion == [(0, MVPoly.const(1)), (1, MVPoly.const(8))]

    def test_a2(self):
        # gamma_0 = 1 matches the single no-double-descent permutation of [2]
        assert gamma_expand(X + Y, "x", "y") == [(0, MVPoly.const(1))]

    def test_round_trip(self):
        p = poly("x^3 + 11*x^2*y + 11*x*y^2 + y^3")
        back = gamma_assemble(gamma_expand(p, "x", "y"), "x", "y", 3)
        assert back == p

    def test_coefficients_in_other_variables(self):
        t = MVPoly.var("t")
        p = t * (X + Y) ** 2 + 3 * X * Y
        expansion = gamma_expand(p, "x", "y")
        assert expansion == [(0, t), (1, MVPoly.const(3))]

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            gamma_expand(X, "x", "y")
        with pytest.raises(NotSymmetricError):
            gamma_expand(X ** 2 + X * Y, "x", "y")

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            gamma_expand(X + X * Y, "x", "y")


class TestEsymExpand:
    def test_newton(self):
        p = X ** 2 + Y ** 2 + Z ** 2
        assert esym_expand(p, ("x", "y", "z")) == [
            ((0, 1, 0), Fraction(-2)), ((2, 0, 0), Fraction(1))]

    def test_e3(self):
        assert esym_expand(X * Y * Z, ("x", "y", "z")) == [((0, 0, 1), Fraction(1))]

    def test_nca3(self):
        p = poly("x^2 + 4*x*y + y^2 + 4*x*z + 4*y*z + z^2")
        assert esym_expand(p, ("x", "y", "z")) == [
            ((0, 1, 0), Fraction(2)), ((2, 0, 0), Fraction(1))]

    def test_round_trip(self):
        p = poly("x^2 + 4*x*y + y^2 + 4*x*z + 4*y*z + z^2")
        assert esym_assemble(esym_expand(p, ("x", "y", "z")), ("x", "y", "z")) == p

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            esym_expand(X + 2 * Y + Z, ("x", "y", "z"))
        with pytest.raises(NotSymmetricError):
            esym_expand(MVPoly.var("t") * X, ("x", "y", "z"))


class TestSeries:
    def test_exp(self):
        s = TruncatedSeries.linear(1, 3).exp()
        assert list(s.coeffs) == [1, 1, Fraction(1, 2), Fraction(1, 6)]

    def test_log_inverts_exp(self):
        s = TruncatedSeries.linear(1, 6).exp()
        assert s.log() == TruncatedSeries.linear(1, 6)

    def test_callan_sqrt(self):
        # sqrt(e^z / (2 - e^z)): counts 1, 1, 2, 7, 35 frozen from the
        # even-to-odd-free matching enumeration for n <= 4
        order = 4
        ez = TruncatedSeries.exponential(1, order)
        denom = TruncatedSeries.one(order).scale(2) - ez
        series = (ez * denom.inverse()).pow(Fraction(1, 2))
        expected = TruncatedSeries.from_egf_values([1, 1, 2, 7, 35])
        assert series == expected

    def test_bad_constant_terms(self):
        for call, message in [
            (TruncatedSeries.one(3).exp, "exp needs constant term 0"),
            (TruncatedSeries.linear(1, 3).log, "log needs constant term 1"),
            (lambda: TruncatedSeries.linear(1, 3).pow(2), "pow needs constant term 1"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$") as info:
                call()
            assert type(info.value) is ValueError


class TestTriangles:
    def test_rising_step2(self):
        assert rising_factorial(2, 3) == poly("q^3 + 6*q^2 + 8*q")

    def test_stirling1_row3(self):
        assert [stirling1_unsigned(3, k) for k in (1, 2, 3)] == [2, 3, 1]

    def test_stirling2_small(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7

    def test_weighted_stirling_row_equals_rising(self):
        for n in range(1, 13):
            lhs = MVPoly.zero()
            for k in range(1, n + 1):
                lhs = lhs + 2 ** (n - k) * stirling1_unsigned(n, k) * MVPoly.var("q") ** k
            assert lhs == rising_factorial(2, n)


# -- property tests ---------------------------------------------------------

coeffs = hst.fractions(min_value=-4, max_value=4, max_denominator=3)
monos = hst.dictionaries(hst.sampled_from("xyz"), hst.integers(1, 3),
                         max_size=3).map(lambda d: tuple(sorted(d.items())))
polys = hst.dictionaries(monos, coeffs, max_size=4).map(MVPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polys, polys)
def test_mul_degree(a, b):
    def degree(p):
        return max(sum(e for _, e in mono) for mono in p.terms)

    if not a.is_zero and not b.is_zero:
        assert degree(a * b) == degree(a) + degree(b)


simple_bindings = hst.fixed_dictionaries({
    "x": hst.sampled_from([MVPoly.var("u"), MVPoly.var("u") + 1, 2 * MVPoly.var("v")]),
    "y": hst.sampled_from([MVPoly.var("v"), MVPoly.var("u") * MVPoly.var("v")]),
})


@given(polys, simple_bindings)
@settings(max_examples=50)
def test_subst_composes(p, f):
    g = {"u": MVPoly.var("w") + 1, "v": 2 * MVPoly.var("w")}
    composed = {v: b.subst(g) for v, b in f.items()}
    assert p.subst(f).subst(g) == p.subst(composed)


@given(hst.lists(hst.tuples(hst.integers(0, 2), coeffs), min_size=1, max_size=3))
def test_gamma_round_trip_random(pairs):
    d = 6
    coeff_list = [(j, MVPoly.const(c)) for j, c in dict(pairs).items() if c]
    p = gamma_assemble(coeff_list, "x", "y", d)
    if p.is_zero:
        return
    assert sorted(gamma_expand(p, "x", "y")) == sorted(coeff_list)


def _outcome(expand, p):
    """What `expand(p, "x", "y")` returns, or the type and text it raises."""
    try:
        return expand(p, "x", "y")
    except ValueError as exc:
        return type(exc), str(exc)


z_polys = hst.dictionaries(hst.integers(0, 2), coeffs, max_size=2).map(
    lambda d: MVPoly.from_exponents({(e,): c for e, c in d.items()}, ("z",)))


@given(hst.integers(0, 6), hst.lists(z_polys, max_size=4),
       hst.dictionaries(hst.tuples(hst.integers(0, 6), hst.integers(0, 2)), coeffs,
                        max_size=2),
       polys)
def test_gamma_expand_matches_peeling(d, gammas, skew, noise):
    """Symmetric homogeneous inputs with coefficients in z, the same made
    asymmetric by homogeneous terms, and made inhomogeneous."""
    symmetric = gamma_assemble(list(enumerate(gammas[:d // 2 + 1])), "x", "y", d)
    asymmetric = symmetric + MVPoly.from_exponents(
        {(min(a, d), d - min(a, d), k): c for (a, k), c in skew.items()}, ("x", "y", "z"))
    for p in (symmetric, asymmetric, symmetric + noise):
        assert _outcome(gamma_expand, p) == _outcome(oracles.gamma_expand, p)


def _assert_well_formed(p):
    """Nonzero Fraction coefficients on monomials sorted by variable, each
    variable once with a positive int exponent."""
    assert type(p) is MVPoly
    for mono, c in p.terms.items():
        assert type(c) is Fraction and c != 0, p.terms
        assert type(mono) is tuple, p.terms
        names = [v for v, _ in mono]
        assert names == sorted(set(names)), p.terms
        assert all(type(e) is int and e > 0 for _, e in mono), p.terms


scalars = hst.one_of(hst.integers(-2, 2), coeffs)


@given(polys, polys, scalars, hst.integers(0, 3), hst.sampled_from("xyzw"),
       simple_bindings,
       hst.dictionaries(hst.tuples(*[hst.integers(0, 2)] * 3), scalars, max_size=6))
@settings(max_examples=50)
def test_results_are_well_formed(a, b, c, k, v, binding, counts):
    results = [a + b, a - b, a * b, a + c, c + a, a - c, c - a, a * c, c * a, -a,
               a ** k, *(a.partial(u) for u in "xyzw"), a.subst(binding), a.subst({v: c}),
               a.subst({"x": MVPoly.var("y"), "y": -MVPoly.var("x")}),
               MVPoly.from_exponents(counts, ("z", "x", "y")),
               *a.coefficients_in((v,)).values(), *a.coefficients_in(("y", "x")).values(),
               poly_sum([a, b, -a, MVPoly.const(c)])]
    for p in results:
        _assert_well_formed(p)
    assert poly_sum([a, b, -a, MVPoly.const(c)]) == b + c
    assert poly_sum([]).is_zero


@given(hst.lists(hst.integers(1, 5), min_size=1, max_size=6))
def test_series_exp_log_round_trip(values):
    order = len(values)
    s = TruncatedSeries([1] + [Fraction(v, 3) for v in values])
    assert s.log().exp() == s
