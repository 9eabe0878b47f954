"""Context-free (Chen) grammars and the formal derivative D_G.

A grammar is a finite set of substitution rules ``variable -> polynomial``.
The derivative of a monomial is computed directly,

    D(prod v_i^e_i) = sum_i e_i v_i^(e_i-1) rule(v_i) prod_{j!=i} v_j^e_j,

which keeps everything in canonical MVPoly form.  Variables without a rule
are constants for D_G, i.e. the same as an explicit rule ``v -> 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .algebra import MVPoly, Mono, ParseError, _mono_mul, parse_poly


class GrammarError(Exception):
    pass


class DuplicateRuleError(GrammarError):
    def __init__(self, variable: str, line: int):
        super().__init__(f"line {line}: duplicate rule for {variable!r}")
        self.variable = variable
        self.line = line


@dataclass(frozen=True)
class Grammar:
    rules: Mapping[str, MVPoly]

    def rule(self, v: str) -> MVPoly:
        return self.rules.get(v, MVPoly.zero())


def d_apply(g: Grammar, p: MVPoly) -> MVPoly:
    """One application of the formal derivative D_G."""
    out: dict[Mono, Fraction] = {}
    for mono, c in p.terms.items():
        for idx, (name, e) in enumerate(mono):
            rule = g.rules.get(name)
            if rule is None or rule.is_zero:
                continue
            if e == 1:
                base = mono[:idx] + mono[idx + 1:]
            else:
                base = mono[:idx] + ((name, e - 1),) + mono[idx + 1:]
            scale = c * e
            for rmono, rc in rule.terms.items():
                merged = _mono_mul(base, rmono)
                s = out.get(merged, Fraction(0)) + scale * rc
                if s:
                    out[merged] = s
                elif merged in out:
                    del out[merged]
    return MVPoly(out)


def d_iter(g: Grammar, p: MVPoly, n: int) -> MVPoly:
    """The n-fold derivative D_G^n(p); n = 0 returns p unchanged."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        p = d_apply(g, p)
    return p


def parse_grammar(text: str) -> Grammar:
    """Parse a rule file: one ``var -> polynomial`` per line, `#` comments."""
    rules: dict[str, MVPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "->" not in line:
            raise ParseError("expected 'var -> polynomial'", lineno, 1)
        lhs, rhs = line.split("->", 1)
        var = lhs.strip()
        if not var or not var.isidentifier():
            raise ParseError(f"bad rule variable {lhs.strip()!r}", lineno, 1)
        if var in rules:
            raise DuplicateRuleError(var, lineno)
        rules[var] = parse_poly(rhs.strip(), line=lineno)
    return Grammar(rules=rules)


# Grammars that come up repeatedly in the verification suite.

def dumont_grammar() -> Grammar:
    """{a -> ab, b -> ab}; iterates to the Eulerian polynomials."""
    return parse_grammar("a -> a*b\nb -> a*b")


def quadruple_statistic_grammar() -> Grammar:
    """Generates x^exc y^drop p^fix q^cyc over permutations from seed I."""
    return parse_grammar(
        "I -> I*p*q\np -> x*y\nx -> x*y\ny -> x*y\nq -> 0")


def matching_statistic_grammar() -> Grammar:
    """Generates a^elblock b^olblock s^fixb t^trace over matchings from seed J."""
    return parse_grammar(
        "J -> J*s*t\ns -> 2*a*b\na -> 2*a*b\nb -> 2*a*b\nt -> 0")


def neighbor_grammar() -> Grammar:
    """Five-variable grammar generating the neighbor polynomials from I*y2*E."""
    return parse_grammar(
        "I -> I*x1*y1\n"
        "x1 -> x1*x2*y1\n"
        "x2 -> x1*x2*y1\n"
        "x3 -> x1*x3*y1\n"
        "y1 -> x3*y1*y2\n"
        "y2 -> x2*y1*y2\n"
        "E -> E*x3*y2")


def stirling_word_grammar() -> Grammar:
    """{x -> xyz, y -> xyz, z -> xyz}; iterates to Q_n(x, y, z) from seed x."""
    return parse_grammar("x -> x*y*z\ny -> x*y*z\nz -> x*y*z")


def esym_w_grammar() -> Grammar:
    """{a -> a*w1, w1 -> 2*w2, w2 -> w1*w2 + 3*w3, w3 -> 2*w1*w3}."""
    return parse_grammar(
        "a -> a*w1\nw1 -> 2*w2\nw2 -> w1*w2 + 3*w3\nw3 -> 2*w1*w3")


def esym_uvw_grammar() -> Grammar:
    """{u -> 3w, v -> 2uw, w -> vw}; D^(n-1)(w) gives Q_n in the e-basis."""
    return parse_grammar("u -> 3*w\nv -> 2*u*w\nw -> v*w")
