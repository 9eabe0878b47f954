import re

import pytest
from hypothesis import given, strategies as hst

from chordlab import grammar as gr
from chordlab.algebra import MVPoly, ParseError, parse_poly
from chordlab.grammar import d_apply, d_iter, parse_grammar


def test_chen_first_derivative():
    g = parse_grammar("a -> a*b\nb -> b")
    assert d_apply(g, MVPoly.var("a")) == parse_poly("a*b")
    assert d_apply(g, MVPoly.var("b")) == parse_poly("b")


def test_constant_derives_to_zero():
    g = parse_grammar("a -> a*b\nb -> b")
    assert d_apply(g, MVPoly.const(5)).is_zero
    assert d_apply(g, parse_poly("q^2 + 3")).is_zero  # q has no rule


def test_neighbor_grammar_first_step():
    g = gr.neighbor_grammar()
    seed = parse_poly("I*y2*E")
    got = d_apply(g, seed)
    want = seed * parse_poly("x1*y1 + x2*y1 + x3*y2")
    assert got == want
    # and that equals I*E*C_2
    from chordlab.words import c_poly
    assert got == parse_poly("I*E") * c_poly(2)


def test_chen_second_derivative_is_stirling_row():
    g = parse_grammar("a -> a*b\nb -> b")
    assert d_iter(g, MVPoly.var("a"), 2) == parse_poly("a*b + a*b^2")


def test_lemma_chen_second_derivative():
    g = gr.stirling_word_grammar()
    assert d_iter(g, MVPoly.var("x"), 2) == parse_poly(
        "x^2*y^2*z + x^2*y*z^2 + x*y^2*z^2")


def test_uvw_and_w_grammars_agree_with_listing():
    h = gr.esym_uvw_grammar()
    assert d_iter(h, MVPoly.var("w"), 3) == parse_poly("v^3*w + 8*u*v*w^2 + 6*w^3")
    g2 = gr.esym_w_grammar()
    assert d_iter(g2, MVPoly.var("a"), 3) == parse_poly(
        "a*w1^3 + 8*a*w1*w2 + 6*a*w3")


def test_d_iter_zero_is_identity():
    g = gr.dumont_grammar()
    p = parse_poly("a^2 + b")
    assert d_iter(g, p, 0) == p


class TestParseGrammar:
    def test_stirling(self):
        g = parse_grammar("a -> a*b\nb -> b")
        assert g.keys() == {"a", "b"}
        assert g["a"] == parse_poly("a*b")

    def test_lemma_chen(self):
        g = parse_grammar("x -> x*y*z\ny -> x*y*z\nz -> x*y*z")
        assert all(g[v] == parse_poly("x*y*z") for v in "xyz")

    def test_zero_rule(self):
        g = parse_grammar("q -> 0")
        assert g["q"].is_zero

    def test_comments_and_blanks(self):
        g = parse_grammar("# Dumont\n\na -> a*b  # rule\nb -> a*b\n")
        assert g.keys() == {"a", "b"}

    def test_duplicate(self):
        with pytest.raises(ParseError, match="^2:1: duplicate rule for 'a'$"):
            parse_grammar("a -> b\na -> b")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_grammar("a -> b\nb -> *")
        assert info.value.line == 2

    def test_missing_arrow(self):
        with pytest.raises(ParseError, match="^1:1: expected 'var -> polynomial'$"):
            parse_grammar("a b")

    @pytest.mark.parametrize("text,message", [
        ("a -> a+*b", "1:8: unexpected token '*'"),
        ("  a   ->   a+*b", "1:14: unexpected token '*'"),
        ("a -> b -> c", "1:9: unexpected token '>'"),
        ("  2x -> a", "1:3: bad rule variable '2x'"),
        ("a -> b\n\tb ->\t(a", "2:9: expected ')', got None"),
        ("a -> a*b\n  a -> b", "2:3: duplicate rule for 'a'"),
    ])
    def test_columns_count_from_the_line_start(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as info:
            parse_grammar(text)
        assert f"{info.value.line}:{info.value.column}:" == message.split()[0]

    def test_nesting_error_column_counts_from_the_line_start(self):
        head = "a" + " " * 3000 + "-> "
        line = head + "(" * 5000 + "x" + ")" * 5000
        with pytest.raises(ParseError, match="parentheses nested too deeply$") as info:
            parse_grammar(line)
        assert info.value.column > len(head) and line[info.value.column - 1] == "("


def test_explicit_zero_rule_matches_unruled_variable():
    with_rule = parse_grammar("I -> I*p*q\np -> x*y\nx -> x*y\ny -> x*y\nq -> 0")
    without = parse_grammar("I -> I*p*q\np -> x*y\nx -> x*y\ny -> x*y")
    seed = MVPoly.var("I")
    for n in range(5):
        assert d_iter(with_rule, seed, n) == d_iter(without, seed, n)


coeffs = hst.integers(-3, 3)
monos = hst.dictionaries(hst.sampled_from("abxy"), hst.integers(1, 2),
                         max_size=3).map(lambda d: tuple(sorted(d.items())))
polys = hst.dictionaries(monos, coeffs, max_size=3).map(MVPoly)
grammars = hst.sampled_from([
    parse_grammar("a -> a*b\nb -> b"), gr.dumont_grammar(), gr.quadruple_statistic_grammar()])


@given(grammars, polys, polys)
def test_leibniz(g, p, q):
    assert d_apply(g, p * q) == d_apply(g, p) * q + p * d_apply(g, q)


@given(grammars, polys, polys)
def test_linearity(g, p, q):
    assert d_apply(g, p + q) == d_apply(g, p) + d_apply(g, q)
