"""Context-free (Chen) grammars and the formal derivative D_G.

A grammar is a finite set of substitution rules ``variable -> polynomial``,
held as the dict ``{variable: MVPoly}``.
The derivative of a monomial is computed directly,

    D(prod v_i^e_i) = sum_i e_i v_i^(e_i-1) rule(v_i) prod_{j!=i} v_j^e_j,

on dense exponent vectors with integer numerators (see `d_iter`).
Variables without a rule are constants for D_G, i.e. the same as an
explicit rule ``v -> 0``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .algebra import NAME, MVPoly, Mono, ParseError, _collect, _mono_degree, parse_poly


def d_apply(g: Mapping[str, MVPoly], p: MVPoly) -> MVPoly:
    """One application of the formal derivative D_G."""
    return d_iter(g, p, 1)


def d_iter(g: Mapping[str, MVPoly], p: MVPoly, n: int) -> MVPoly:
    """The n-fold derivative D_G^n(p); n = 0 returns p unchanged.

    Converts once on entry and once on exit.  In between, a monomial is its
    dense exponent vector packed into one int: a bit field per variable, in
    one sorted order of the seed's variables and every variable of the
    rules, each field wide enough for the largest total degree n steps can
    reach.  A coefficient is an int: the seed is scaled by den_p, the lcm of
    its coefficient denominators, and every rule by den_r, the lcm of
    theirs.  A rule v -> sum rc*m becomes (delta, rc*den_r) pairs, where
    delta is m's packed exponents minus v's unit, so a step is one int
    addition per new term.  The result is exact: its coefficients are the
    numerators over den_p * den_r**n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    names = sorted(set(p.variables()).union(
        g, *(rule.variables() for rule in g.values())))
    # a step replaces one unit of v by a rule monomial, so the total degree
    # rises by at most the largest rule degree minus one
    growth = max((_mono_degree(m) - 1 for rule in g.values() for m in rule.terms),
                 default=0)
    top = max(map(_mono_degree, p.terms), default=0) + n * max(growth, 0)
    width = max(top.bit_length(), 1)
    mask = (1 << width) - 1
    shift = {v: width * i for i, v in enumerate(names)}

    def pack(mono: Mono) -> int:
        return sum(e << shift[v] for v, e in mono)

    def unpack(key: int) -> Mono:
        return tuple((v, e) for v, e in ((v, key >> s & mask) for v, s in shift.items())
                     if e)

    den_p = math.lcm(*(c.denominator for c in p.terms.values()))
    den_r = math.lcm(*(c.denominator for rule in g.values()
                       for c in rule.terms.values()))
    active = [(shift[v], [(pack(m) - (1 << shift[v]), int(rc * den_r))
                          for m, rc in rule.terms.items()])
              for v, rule in g.items() if not rule.is_zero]
    cur = {pack(mono): int(c * den_p) for mono, c in p.terms.items()}
    for _ in range(n):
        out: dict[int, int] = {}
        get = out.get
        for key, c in cur.items():
            for s, pairs in active:
                e = key >> s & mask
                if e:
                    ce = c * e
                    for delta, rc in pairs:
                        new = key + delta
                        out[new] = get(new, 0) + ce * rc
        cur = {key: c for key, c in out.items() if c}
    den = den_p * den_r ** n
    return _collect((unpack(key), Fraction(c, den)) for key, c in cur.items())


def parse_grammar(text: str) -> dict[str, MVPoly]:
    """Parse a rule file: one ``var -> polynomial`` per line, `#` comments.
    An error's column counts from the start of its line."""
    rules: dict[str, MVPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "->" not in line:
            raise ParseError("expected 'var -> polynomial'", lineno, 1)
        lhs, rhs = line.split("->", 1)
        var = lhs.strip()
        col = len(lhs) - len(lhs.lstrip()) + 1
        if not NAME.fullmatch(var):
            raise ParseError(f"bad rule variable {var!r}", lineno, col)
        if var in rules:
            raise ParseError(f"duplicate rule for {var!r}", lineno, col)
        # the right-hand side in place, its head blanked, keeps the line's columns
        rules[var] = parse_poly(" " * (len(lhs) + 2) + rhs, line=lineno)
    return rules


# Grammars that come up repeatedly in the verification suite.

def dumont_grammar() -> dict[str, MVPoly]:
    """{a -> ab, b -> ab}; iterates to the Eulerian polynomials."""
    return parse_grammar("a -> a*b\nb -> a*b")


def quadruple_statistic_grammar() -> dict[str, MVPoly]:
    """Generates x^exc y^drop p^fix q^cyc over permutations from seed I."""
    return parse_grammar(
        "I -> I*p*q\np -> x*y\nx -> x*y\ny -> x*y\nq -> 0")


def matching_statistic_grammar() -> dict[str, MVPoly]:
    """Generates a^elblock b^olblock s^fixb t^trace over matchings from seed J."""
    return parse_grammar(
        "J -> J*s*t\ns -> 2*a*b\na -> 2*a*b\nb -> 2*a*b\nt -> 0")


def neighbor_grammar() -> dict[str, MVPoly]:
    """Five-variable grammar generating the neighbor polynomials from I*y2*E."""
    return parse_grammar(
        "I -> I*x1*y1\n"
        "x1 -> x1*x2*y1\n"
        "x2 -> x1*x2*y1\n"
        "x3 -> x1*x3*y1\n"
        "y1 -> x3*y1*y2\n"
        "y2 -> x2*y1*y2\n"
        "E -> E*x3*y2")


def stirling_word_grammar() -> dict[str, MVPoly]:
    """{x -> xyz, y -> xyz, z -> xyz}; iterates to Q_n(x, y, z) from seed x."""
    return parse_grammar("x -> x*y*z\ny -> x*y*z\nz -> x*y*z")


def esym_w_grammar() -> dict[str, MVPoly]:
    """{a -> a*w1, w1 -> 2*w2, w2 -> w1*w2 + 3*w3, w3 -> 2*w1*w3}."""
    return parse_grammar(
        "a -> a*w1\nw1 -> 2*w2\nw2 -> w1*w2 + 3*w3\nw3 -> 2*w1*w3")


def esym_uvw_grammar() -> dict[str, MVPoly]:
    """{u -> 3w, v -> 2uw, w -> vw}; D^(n-1)(w) gives Q_n in the e-basis."""
    return parse_grammar("u -> 3*w\nv -> 2*u*w\nw -> v*w")
