"""Differential tests against sympy: MVPoly arithmetic, the text round-trip,
grammar derivatives and truncated-series exp/log/pow, over hypothesis
inputs.  sympy is an optional test dependency; without it these skip."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

sympy = pytest.importorskip("sympy")

from chordlab import grammar as gr  # noqa: E402
from chordlab.algebra import MVPoly, TruncatedSeries, parse_poly  # noqa: E402

NAMES = "abcd"
SYMBOLS = sympy.symbols(" ".join(NAMES))
Z = sympy.Symbol("z")

fractions = hs.builds(Fraction, hs.integers(-5, 5), hs.integers(1, 4))
monomials = hs.dictionaries(hs.sampled_from(NAMES), hs.integers(1, 3),
                            max_size=3).map(lambda d: tuple(sorted(d.items())))
polys = hs.dictionaries(monomials, fractions, max_size=4).map(MVPoly)


def to_sympy(p: MVPoly):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in mono))
                       for mono, c in p.terms.items()))


def from_sympy(expr) -> MVPoly:
    poly = sympy.Poly(sympy.expand(expr), *SYMBOLS, domain="QQ")
    return MVPoly({tuple((v, e) for v, e in zip(NAMES, exps) if e):
                   Fraction(int(c.numerator), int(c.denominator))
                   for exps, c in poly.terms()})


@settings(max_examples=100, deadline=None)
@given(polys, polys, hs.integers(0, 3))
def test_arithmetic(p, q, k):
    sp, sq = to_sympy(p), to_sympy(q)
    assert p + q == from_sympy(sp + sq)
    assert p - q == from_sympy(sp - sq)
    assert p * q == from_sympy(sp * sq)
    assert p ** k == from_sympy(sp ** k)


@settings(max_examples=100, deadline=None)
@given(polys)
def test_render_round_trip(p):
    text = p.render()
    assert parse_poly(text) == p
    parsed = sympy.sympify(text.replace("^", "**"),
                           locals={v: s for v, s in zip(NAMES, SYMBOLS)})
    assert sympy.expand(parsed - to_sympy(p)) == 0


grammars = hs.dictionaries(hs.sampled_from(NAMES), polys,
                           max_size=len(NAMES))


@settings(max_examples=100, deadline=None)
@given(grammars, polys, hs.integers(0, 3))
def test_grammar_derivative(g, seed, n):
    expr = to_sympy(seed)
    for _ in range(n):
        expr = sympy.expand(sum((to_sympy(rule) * sympy.diff(expr, sympy.Symbol(v))
                                 for v, rule in g.items()), sympy.Integer(0)))
    assert gr.d_iter(g, seed, n) == from_sympy(expr)


def _series_coeffs(expr, order):
    """Coefficients of z^0..z^order of sympy's expansion of expr at z = 0."""
    poly = sympy.series(expr, Z, 0, order + 1).removeO()
    return [Fraction(int(c.p), int(c.q))
            for c in (sympy.Rational(poly.coeff(Z, m)) for m in range(order + 1))]


def _series_expr(s: TruncatedSeries):
    return sum((sympy.Rational(c.numerator, c.denominator) * Z ** m
                for m, c in enumerate(s.coeffs)), sympy.Integer(0))


series_tails = hs.integers(1, 5).flatmap(
    lambda order: hs.lists(fractions, min_size=order, max_size=order))


@settings(max_examples=20, deadline=None)
@given(series_tails, fractions)
def test_series_exp_log_pow(tail, r):
    order = len(tail)
    s = TruncatedSeries([0] + tail)
    assert list(s.exp().coeffs) == _series_coeffs(sympy.exp(_series_expr(s)), order)
    one_plus = TruncatedSeries([1] + tail)
    expr = _series_expr(one_plus)
    assert list(one_plus.log().coeffs) == _series_coeffs(sympy.log(expr), order)
    power = sympy.Rational(r.numerator, r.denominator)
    assert list(one_plus.pow(r).coeffs) == _series_coeffs(expr ** power, order)
