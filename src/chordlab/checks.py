"""The identity-verification suite.

Every named check computes both sides of one identity by independent code
paths (enumeration against formula, recurrence, grammar iteration or
truncated series) and reports one `(n, witness)` row per n; a row fails
exactly when it carries a witness: a polynomial difference plus, where it
makes sense, the first enumerated object whose statistics land in that
difference.  Results are deterministic and independent of the parallelism
degree.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import grammar as gr
from . import matchings as mt
from . import perms as pm
from . import stirling as st
from . import words as wd
from .algebra import (MVPoly, NotHomogeneousError, NotSymmetricError,
                      TruncatedSeries, esym_assemble, esym_expand, esym_polys,
                      gamma_expand, parse_poly, poly_sum, project,
                      rising_factorial, stirling1_unsigned)
from .census import census, sharded


class UnknownCheckIdError(Exception):
    pass


class CheckResult(NamedTuple):
    id: str
    status: str               # pass | fail | skip
    max_n: int
    per_n: list               # [{"n": int, "status": str}, ...]
    witness: str | None
    ms: int


class Check(NamedTuple):
    id: str
    description: str
    default_max_n: int
    run: Callable  # (max_n, egf_order) -> [(n, witness | None)]
    reads: Callable  # (max_n, egf_order) -> census keys a passing run reads, in order

    def bound(self, max_n: int | None) -> int:  # the largest n a run at max_n checks
        return self.default_max_n if max_n is None else max_n


_REGISTRY: dict[str, Check] = {}


def _check(id: str, description: str, default_max_n: int, reads=lambda max_n, egf_order: []):
    """Register `run(max_n, egf_order)` as returning its `(n, witness |
    None)` rows directly; for checks whose rows are not n = 1..max_n."""
    def install(run):
        _REGISTRY[id] = Check(id, description, default_max_n, run, reads)
        return run
    return install


def _per_n(id: str, description: str, default_max_n: int, reads=lambda n: []):
    """Register `witness(n)` as the check that holds at n = 1..max_n exactly
    when it returns None; otherwise it returns the witness text.  `reads(n)`
    lists the census keys it reads at n."""
    def every_read(max_n, egf_order):
        return list(dict.fromkeys(key for n in range(1, max_n + 1) for key in reads(n)))

    def install(witness):
        _check(id, description, default_max_n, every_read)(
            lambda max_n, egf_order: [(n, witness(n)) for n in range(1, max_n + 1)])
        return witness
    return install


def _at_n(*names: str) -> Callable:
    """Reads of the censuses `names` at n, in that order."""
    return lambda n: [(name, n) for name in names]


def _upto(name: str, n: int) -> list:
    return [(name, k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# Helpers shared by several checks
# ---------------------------------------------------------------------------


def _diff_witness(n: int, lhs: MVPoly, rhs: MVPoly, label: str = "") -> str:
    prefix = f"n={n}: " + (f"{label}: " if label else "")
    return f"{prefix}lhs - rhs = {(lhs - rhs).render()}"


def _first_diff(n: int, sides: Iterable) -> str | None:
    """The witness of the first unequal (label, lhs, rhs) triple, else None.

    `sides` is consumed lazily: a later pair is computed only when the
    earlier ones hold.
    """
    return next((_diff_witness(n, lhs, rhs, label)
                 for label, lhs, rhs in sides if lhs != rhs), None)


def _identity(id: str, description: str, default_max_n: int, reads=lambda n: []):
    """Register `sides` as the check that lhs == rhs for every (label, lhs,
    rhs) triple `sides(n)` yields, for n = 1..max_n; n fails at the first
    unequal pair, witnessed by its difference."""
    def install(sides):
        _per_n(id, description, default_max_n, reads)(lambda n: _first_diff(n, sides(n)))
        return sides
    return install


def _egf_rows(order: int, cases) -> list:
    """Rows k = 0..order comparing the z^k coefficients of each (tag,
    enumerated, series) case; z^k fails if any case differs there, and its
    witness comes from the first such case."""
    witnesses: dict[int, str] = {}
    for tag, lhs, rhs in cases:
        for k in range(order + 1):
            if lhs.coeffs[k] != rhs.coeffs[k]:
                witnesses.setdefault(
                    k, f"z^{k}{tag}: enumerated {lhs.coeffs[k]}, series {rhs.coeffs[k]}")
    return [(k, witnesses.get(k)) for k in range(order + 1)]


def _swapped(p: MVPoly) -> MVPoly:
    return p.subst({"x": MVPoly.var("y"), "y": MVPoly.var("x")})


def _first_word_in_diff(n: int, diff: MVPoly, key_of, names) -> str:
    """"; first word in diff: ..." naming the first word (stream order) whose
    exponent vector over `names` is one of `diff`'s, or "" when there is none.

    Censuses keep no objects, so a failing check rescans the words for this.
    """
    support = diff.coefficients_in(names)
    return next((f"; first word in diff: {wd.word_text(w)}"
                 for w in wd.enumerate_words(n) if key_of(w) in support), "")


def _perm_quadruple_poly(n: int) -> MVPoly:
    return MVPoly.from_exponents(
        project(census("perm", n), lambda s: (s.exc, s.drop, s.fix, s.cyc)),
        ("x", "y", "p", "q"))


def _exponent_transform(p: MVPoly, names, targets, image) -> MVPoly:
    """Map each term of `p`, a polynomial in `names` alone, by an
    exponent-vector transform; terms with one image add up.  `image(exps)`
    returns the exponents over `targets`, which must be nonnegative."""
    def checked(vec):
        mapped = image(vec)
        for v, e in zip(targets, mapped):
            if e < 0:
                raise NotSymmetricError(
                    f"transform produced negative exponent {v}^{e} from {vec}")
        return mapped

    terms = {vec: c.constant_term() for vec, c in p.coefficients_in(names).items()}
    return MVPoly.from_exponents(project(terms, checked), targets)


# ---------------------------------------------------------------------------
# Golden values quoted from the source listings
# ---------------------------------------------------------------------------

_GOLDEN_M = {
    1: "s*t",
    2: "s^2*t^2 + 2*t*x*y",
    3: "s^3*t^3 + 6*s*t^2*x*y + 4*t*x^2*y + 4*t*x*y^2",
}
_GOLDEN_C = {
    1: "y2",
    2: "(x1 + x2)*y1*y2 + x3*y2^2",
}
_GOLDEN_NCA = {
    1: "1",
    2: "x + y + z",
    3: "x^2 + 4*x*y + y^2 + 4*x*z + 4*y*z + z^2",
    4: "x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 11*x^2*z + 36*x*y*z + 11*y^2*z"
       " + 11*x*z^2 + 11*y*z^2 + z^3",
}
_GOLDEN_DB = {1: "x", 2: "4*x + x^2", 3: "8*x + 20*x^2 + x^3"}
_GOLDEN_DG2 = {
    1: "w1",
    2: "w1^2 + 2*w2",
    3: "w1^3 + 8*w1*w2 + 6*w3",
    4: "w1^4 + 22*w1^2*w2 + 16*w2^2 + 42*w1*w3",
    5: "w1^5 + 52*w1^3*w2 + 136*w1*w2^2 + 192*w1^2*w3 + 180*w2*w3",
    6: "w1^6 + 114*w1^4*w2 + 720*w1^2*w2^2 + 272*w2^3 + 732*w1^3*w3"
       " + 2304*w1*w2*w3 + 540*w3^2",
}
_GOLDEN_XI = {1: "x", 2: "x^2 + 2*y"}
_GOLDEN_GAMMA = {1: "z", 2: "y*z", 3: "y^2*z + 2*x*z^2"}


@_check("GOLDEN", "printed polynomial listings reproduce exactly", 0,
        lambda max_n, egf_order: [(name, n) for name, top in (
            ("block", 3), ("neighbor", 4), ("signed", 3), ("stirling", 1))
            for n in range(1, top + 1)])
def _run_golden(max_n, egf_order):
    def listed(name, family, listing):
        return [(f"{name}_{n}", family(n), parse_poly(text)) for n, text in listing.items()]

    g2 = gr.esym_w_grammar()
    a = MVPoly.var("a")
    cases = (listed("M", mt.m_poly, _GOLDEN_M) + listed("C", wd.c_poly, _GOLDEN_C)
             + listed("NCA", wd.nca_poly, _GOLDEN_NCA)
             + listed("dB", pm.type_b_derangement_poly, _GOLDEN_DB))
    for n, text in _GOLDEN_DG2.items():
        cases.append((f"DG2^{n}(a)", gr.d_iter(g2, a, n), a * parse_poly(text)))
        cases.append((f"xi_{n}(w)", MVPoly.from_exponents(st.xi_table(n), ("w1", "w2", "w3")),
                      parse_poly(text)))
    cases += (listed("xi", st.xi_poly, _GOLDEN_XI) + listed("gamma", st.gamma_poly, _GOLDEN_GAMMA)
              + [("Q_1", st.q_poly(1), parse_poly("x*y*z"))])
    return [(row, None if lhs == rhs else f"{label}: got {lhs.render()}, want {rhs.render()}")
            for row, (label, lhs, rhs) in enumerate(cases, start=1)]


# ---------------------------------------------------------------------------
# Permutation-side checks
# ---------------------------------------------------------------------------


@_identity("A-EQUIDIST", "excedances are equidistributed with ascents and descents", 8,
           _at_n("perm"))
def _a_equidist(n):
    # The joint (exc, drop) polynomial differs from the (asc, des) one (fixed
    # points shift the degree), so the checkable content is the univariate
    # equidistribution, homogenized to degree n-1 on the excedance side.
    perms = census("perm", n)
    yield ("", MVPoly.from_exponents(project(perms, lambda s: (s.exc, n - 1 - s.exc)),
                                     ("x", "y")),
           MVPoly.from_exponents(project(perms, lambda s: (s.asc, s.des)), ("x", "y")))


@_identity("A-RISING", "cycle polynomial equals the rising factorial", 8, _at_n("perm"))
def _a_rising(n):
    yield "", pm.eulerian_xpq(n).subst({"x": 1, "p": 1}), rising_factorial(1, n)


@_check("A-EGF", "(p,q)-Eulerian EGF at sampled rational points", 8,
        lambda max_n, egf_order: _upto("perm", egf_order))
def _run_a_egf(max_n, egf_order):
    order = egf_order
    x, p = Fraction(1, 2), Fraction(1, 3)
    polys = [pm.eulerian_xpq(n) for n in range(order + 1)]
    numer = TruncatedSeries.exponential(p, order)
    denom = (TruncatedSeries.exponential(x, order)
             - TruncatedSeries.exponential(1, order).scale(x)).scale(1 / (1 - x))
    return _egf_rows(order, [
        (f" at q={q}",
         TruncatedSeries.from_egf_values(
             [poly.evaluate({"x": x, "p": p, "q": q}) for poly in polys]),
         (numer * denom.inverse()).pow(q))
        for q in (Fraction(2), Fraction(3), Fraction(1, 2))])


@_identity("A-NEG", "q = -1 specializations collapse as stated", 8, _at_n("perm"))
def _a_neg(n):
    x = MVPoly.var("x")
    a = pm.eulerian_xpq(n)
    yield "p=1", a.subst({"p": 1, "q": -1}), -((x - MVPoly.const(1)) ** (n - 1))
    yield "p=0", a.subst({"p": 0, "q": -1}), -poly_sum(x ** k for k in range(1, n))


# ---------------------------------------------------------------------------
# Matching polynomial checks
# ---------------------------------------------------------------------------


@_identity("M-MAIN", "matching quadruple statistic matches the permutation quadruple", 7,
           _at_n("block", "perm"))
def _m_main(n):
    m = mt.m_poly(n)
    yield "quadruple", m, _perm_quadruple_poly(n).subst({
        "x": 2 * MVPoly.var("x"), "y": 2 * MVPoly.var("y"),
        "p": 2 * MVPoly.var("s"), "q": Fraction(1, 2) * MVPoly.var("t")})
    a = pm.eulerian_xpq(n) * 2 ** n
    yield "elblock form", m.subst({"y": 1, "s": MVPoly.var("p"),
                                   "t": 2 * MVPoly.var("q")}), a
    yield "olblock form", m.subst({"x": 1, "y": MVPoly.var("x"),
                                   "s": MVPoly.var("p"), "t": 2 * MVPoly.var("q")}), a


@_identity("M-SYM", "M_n is symmetric in x and y", 7, _at_n("block"))
def _m_sym(n):
    yield "", mt.m_poly(n), _swapped(mt.m_poly(n))


@_check("M-EGF", "matching polynomial EGF at sampled rational points", 8,
        lambda max_n, egf_order: _upto("block", egf_order))
def _run_m_egf(max_n, egf_order):
    order = egf_order
    x, y, s = Fraction(1, 2), Fraction(1), Fraction(1, 3)
    polys = [mt.m_poly(n) for n in range(order + 1)]
    numer = TruncatedSeries.exponential(2 * s, order)
    denom = (TruncatedSeries.exponential(2 * x, order).scale(y)
             - TruncatedSeries.exponential(2 * y, order).scale(x)).scale(1 / (y - x))
    return _egf_rows(order, [
        (f" at t={t}",
         TruncatedSeries.from_egf_values(
             [poly.evaluate({"x": x, "y": y, "s": s, "t": t}) for poly in polys]),
         (numer * denom.inverse()).pow(Fraction(t, 2)))
        for t in (Fraction(1), Fraction(1, 2))])


def _stirling1_row(n: int) -> MVPoly:
    """sum over k of 2^(n-k) c(n, k) q^k."""
    return MVPoly.from_exponents(
        {(k,): 2 ** (n - k) * stirling1_unsigned(n, k) for k in range(1, n + 1)}, ("q",))


@_identity("TRACE-RISING", "trace distribution is the step-2 rising factorial", 7,
           _at_n("block"))
def _trace_rising(n):
    yield "enumeration vs product", mt.trace_distribution(n), rising_factorial(2, n)
    yield "product vs Stirling sum", rising_factorial(2, n), _stirling1_row(n)


@_identity("STIRLING1-ID",
           "2^(n-k) weighted Stirling-1 row equals the step-2 rising factorial", 12)
def _stirling1_id(n):
    yield "", _stirling1_row(n), rising_factorial(2, n)


def _m_marginal(n: int) -> MVPoly:
    """sum over matchings of x^elblock p^fixb q^trace."""
    return mt.m_poly(n).subst({"y": 1, "s": MVPoly.var("p"), "t": MVPoly.var("q")})


@_identity("CONV", "2^n A_n(x,p,q) is the binomial convolution of matching marginals", 6,
           lambda n: [("perm", n), *_upto("block", n)])
def _conv(n):
    yield "", pm.eulerian_xpq(n) * 2 ** n, poly_sum(
        math.comb(n, k) * _m_marginal(k) * _m_marginal(n - k) for k in range(n + 1))


@_identity("COR2", "trace-weight -2 specializations collapse as stated", 6, _at_n("block"))
def _cor2(n):
    x = MVPoly.var("x")
    m = mt.m_poly(n)
    yield ("all matchings", m.subst({"y": 1, "s": 1, "t": -2}),
           -(2 ** n) * (x - MVPoly.const(1)) ** (n - 1))
    yield ("fixb=0", m.subst({"y": 1, "s": 0, "t": -2}),
           -(2 ** n) * poly_sum(x ** k for k in range(1, n)))


@_per_n("M-GAMMA", "s-stratified gamma expansion of M_n exists with the stated positivity", 6,
        _at_n("block"))
def _m_gamma(n):
    m = mt.m_poly(n)
    pieces = []
    for (i,), slice_poly in sorted(m.coefficients_in(("s",)).items()):
        try:
            coeffs = gamma_expand(slice_poly, "x", "y")
        except (NotSymmetricError, NotHomogeneousError) as exc:
            return f"n={n}: s^{i} slice: {exc}"
        for j, g in coeffs:
            # g = 2^n gamma_{n,i,j}(t/2); recover gamma and check it
            gamma_t = g.subst({"t": 2 * MVPoly.var("t")}) * Fraction(1, 2 ** n)
            if any(c < 0 or c.denominator != 1 for c in gamma_t.terms.values()):
                return (f"n={n}: gamma[{i},{j}](t) = {gamma_t.render()} "
                        "is not a nonnegative integer polynomial")
            pieces.append(MVPoly.var("s") ** i * g
                          * (MVPoly.var("x") * MVPoly.var("y")) ** j
                          * (MVPoly.var("x") + MVPoly.var("y")) ** (n - i - 2 * j))
    return _first_diff(n, [("reassembly", poly_sum(pieces), m)])


@_per_n("DER-COUNT", "derangement counts on both sides of the correspondence", 7,
        _at_n("block", "perm"))
def _der_count(n):
    matching_side = mt.m_poly(n).evaluate({"x": 1, "y": 1, "s": 0, "t": 2})
    rhs = 2 ** n * pm.derangement_count(n)
    if matching_side != rhs:
        return f"n={n}: fixb-free weight {matching_side} != {rhs}"
    derangements = sum(c for s, c in census("perm", n).items() if s.fix == 0)
    if derangements != pm.derangement_count(n):
        return f"n={n}: {derangements} derangements, formula {pm.derangement_count(n)}"
    return None


@_per_n("DNK", "derangement cycle polynomial identities (cda-free expansion)", 6,
        _at_n("perm", "block"))
def _dnk(n):
    x = MVPoly.var("x")
    d = pm.derangement_poly(n)
    table = pm.dnk_table(n)
    bad_keys = [k for k in table if not 1 <= k <= n // 2]
    if bad_keys:
        return f"n={n}: cda-free excedances {sorted(bad_keys)} fall outside 1..{n // 2}"

    def expansion(weigh):
        return poly_sum(weigh(qpoly) * x ** k * (MVPoly.const(1) + x) ** (n - 2 * k)
                        for k, qpoly in table.items())

    rhs = expansion(lambda qpoly: qpoly)
    if d != rhs:
        return _diff_witness(n, d, rhs, "Shin-Zeng expansion")
    matching_side = mt.m_poly(n).subst({"y": 1, "s": 0, "t": MVPoly.var("q")})
    return _first_diff(n, [
        ("matching vs 2^n d_n(x,q/2)", matching_side,
         d.subst({"q": Fraction(1, 2) * MVPoly.var("q")}) * 2 ** n),
        ("matching vs weighted expansion", matching_side, expansion(
            lambda qpoly: qpoly.subst({"q": Fraction(1, 2) * MVPoly.var("q")}) * 2 ** n))])


_B_NOTE = ("note: this check arbitrates the |sigma|-cycle convention for "
           "cyc over B_n; a failure may indicate a definitional mismatch "
           "rather than a code bug")


@_per_n("B-MAIN", "type-B Eulerian polynomial equals both stated forms", 5,
        _at_n("signed", "perm", "block"))
def _b_main(n):
    b = pm.b_poly(n)
    half = Fraction(1, 2) * (MVPoly.var("p") + MVPoly.var("x"))
    wit = _first_diff(n, [
        ("vs 2^n A_n(x,(p+x)/2,q)", b, pm.eulerian_xpq(n).subst({"p": half}) * 2 ** n),
        ("vs matching form", b,
         mt.m_poly(n).subst({"y": 1, "s": half, "t": 2 * MVPoly.var("q")}))])
    return None if wit is None else f"{wit}; {_B_NOTE}"


@_identity("B-DUAL", "dual convolution for B_n(x,1,q) and the reciprocal transform", 5,
           lambda n: [("signed", n), *_upto("block", n)])
def _b_dual(n):
    def m_both(k):  # x^(elblock+fixb) q^trace
        return mt.m_poly(k).subst({"y": 1, "s": MVPoly.var("x"), "t": MVPoly.var("q")})

    def m_tilde(k):  # x^elblock q^trace
        return mt.m_poly(k).subst({"y": 1, "s": 1, "t": MVPoly.var("q")})

    yield ("convolution", pm.b_poly(n).subst({"p": 1}),
           poly_sum(math.comb(n, k) * m_both(k) * m_tilde(n - k) for k in range(n + 1)))
    yield "x^n M~(1/x,q)", m_both(n), _exponent_transform(
        m_tilde(n), ("x", "q"), ("x", "q"), lambda vec: (n - vec[0], vec[1]))


@_identity("COLORED", "r-colored Eulerian polynomials specialize to types A and B", 6,
           _at_n("perm", "signed"))
def _colored(n):
    yield "r=1", pm.colored_eulerian(n, 1), pm.eulerian_xy(n).subst({"y": 1})
    yield "r=2", pm.colored_eulerian(n, 2), pm.b_poly(n).subst({"p": 1, "q": 1})


@_check("CALLAN-EGF", "even-to-odd-free matchings have EGF sqrt(e^z/(2-e^z))", 8,
        lambda max_n, egf_order: _upto("block", egf_order))
def _run_callan(max_n, egf_order):
    order = egf_order
    lhs = TruncatedSeries.from_egf_values(
        [mt.count_even_to_odd_free(n) for n in range(order + 1)])
    ez = TruncatedSeries.exponential(1, order)
    denom = TruncatedSeries.one(order).scale(2) - ez
    return _egf_rows(order, [("", lhs, (ez * denom.inverse()).pow(Fraction(1, 2)))])


# ---------------------------------------------------------------------------
# Matching permutation checks
# ---------------------------------------------------------------------------


def _bij_fault(m: mt.Matching, w: wd.Word, ps: mt.PairStats,
               classes: wd.NeighborClassification, ws: wd.WordStats) -> str | None:
    """The `bij` census kernel, given m's word w, PairStats and the word's
    neighbor classes and WordStats: None when w is valid, maps back to m and
    carries m's neighbor classes and ne/cr/al, else a witness naming m, so
    MP-BIJ's first in key order is the first in stream order."""
    n = len(m)
    try:
        wd.validate_word(w)
    except ValueError as exc:
        return f"n={n}: {mt.arcs_text(m)}: invalid word ({exc})"
    if wd.to_matching(w) != m:
        return f"n={n}: round-trip failed on {mt.arcs_text(m)}"
    transferred = tuple(classes)
    matching = (ps.lne, ps.lcr, ps.nal, ps.rrp, ps.lrp)
    if transferred != matching:
        return (f"n={n}: neighbor stats differ on {mt.arcs_text(m)}: "
                f"word {transferred}, matching {matching}")
    if (ws.inv, ws.coinv, ws.rank) != (ps.ne, ps.cr, ps.al):
        return (f"n={n}: inv/coinv/rank differ on {mt.arcs_text(m)}: "
                f"word {(ws.inv, ws.coinv, ws.rank)}, matching {(ps.ne, ps.cr, ps.al)}")
    return None


@_per_n("MP-BIJ", "matching/word bijection round-trips and transfers statistics", 6, _at_n("bij"))
def _mp_bij(n):
    return next(filter(None, census("bij", n)), None)


_I_KEY = operator.attrgetter("inv", "coinv", "rank")


@_per_n("I-STATS", "I_n(x,y,q) equals the inv/coinv/rank word polynomial", 6,
        _at_n("pair", "word"))
def _i_stats(n):
    lhs = mt.i_poly(n)
    rhs = MVPoly.from_exponents(project(census("word", n), _I_KEY), ("x", "y", "q"))
    if lhs == rhs:
        return None
    return _diff_witness(n, lhs, rhs) + _first_word_in_diff(
        n, lhs - rhs, lambda w: _I_KEY(wd.word_stats(w)), ("x", "y", "q"))


@_identity("KZ-SYM", "crossing/nesting symmetry with alignments (Kasraoui-Zeng)", 6,
           _at_n("pair"))
def _kz_sym(n):
    yield "", mt.i_poly(n), _swapped(mt.i_poly(n))


@_identity("KLAZAR-SYM", "joint crossing/nesting distribution is symmetric (Klazar)", 6,
           _at_n("pair"))
def _klazar(n):
    p = MVPoly.from_exponents(project(census("pair", n), lambda ps: (ps.cr, ps.ne)),
                              ("x", "y"))
    yield "", p, _swapped(p)


@_identity("C-GRAMMAR", "five-variable grammar generates the neighbor polynomials", 6,
           lambda n: [("neighbor", n + 1)])
def _c_grammar(n):
    I, E = MVPoly.var("I"), MVPoly.var("E")
    yield ("", gr.d_iter(gr.neighbor_grammar(), I * MVPoly.var("y2") * E, n),
           I * E * wd.c_poly(n + 1))


@_per_n("C-EPOS", "xi expansion of C_(n+1) and e-positivity of the NCA polynomials", 6,
        lambda n: [("neighbor", n), ("neighbor", n + 1)])
def _c_epos(n):
    nca = wd.nca_poly(n)
    ncr = wd.ncr_poly(n)
    if nca != ncr:
        return _diff_witness(n, nca, ncr, "NCA vs NCR")
    if n >= 2:
        try:
            got = dict(esym_expand(nca, ("x", "y", "z")))
        except NotSymmetricError as exc:
            return f"n={n}: NCA not e-expandable: {exc}"
        expected = {k: Fraction(v) for k, v in st.xi_table(n - 1).items()}
        if got != expected:
            return f"n={n}: e-coefficients {got} != xi table {expected}"
    x1, x2, x3 = MVPoly.var("x1"), MVPoly.var("x2"), MVPoly.var("x3")
    y1, y2 = MVPoly.var("y1"), MVPoly.var("y2")
    w1 = x1 * y1 + x2 * y1 + x3 * y2
    w2 = x1 * x2 * y1 ** 2 + x1 * x3 * y1 * y2 + x2 * x3 * y1 * y2
    w3 = x1 * x2 * x3 * y1 ** 2 * y2
    return _first_diff(n, [("C_(n+1) expansion", wd.c_poly(n + 1),
                            y2 * st.xi_poly(n).subst({"x": w1, "y": w2, "z": w3}))])


# ---------------------------------------------------------------------------
# Tree and table checks
# ---------------------------------------------------------------------------


def _same_table(n: int, left: str, lhs: dict, right: str, rhs: dict) -> str | None:
    """Witness for n comparing two coefficient tables, printed whole."""
    return None if lhs == rhs else f"n={n}: {left} {lhs} != {right} {rhs}"


@_per_n("XI-TREE", "xi table equals the 0-1-2-3 increasing plane tree census", 7,
        lambda n: [("tree", n + 1, 3)])
def _xi_tree(n):
    return _same_table(n, "table", st.xi_table(n),
                       "census", st.degree_census(n + 1, 3))


@_per_n("GAMMA-TREE", "gamma table equals the leaf/degree census", 7,
        lambda n: [("tree", n, 3)])
def _gamma_tree(n):
    return _same_table(n, "table", st.gamma_table(n),
                       "census", st.gamma_keyed_census(n))


@_per_n("XI-GAMMA", "index bijection between the xi and gamma tables", 7)
def _xi_gamma(n):
    return _same_table(n, "remapped xi",
                       {(j, i, n + 1 - i - j - k): c
                        for (i, j, k), c in st.xi_table(n).items()},
                       "gamma", st.gamma_table(n + 1))


# ---------------------------------------------------------------------------
# Stirling permutation checks
# ---------------------------------------------------------------------------


@_identity("Q-DUMONT", "Dumont's recurrence for Q_n(x,y,z)", 6,
           lambda n: [("stirling", n), ("stirling", n + 1)])
def _q_dumont(n):
    q = st.q_poly(n)
    xyz = MVPoly.var("x") * MVPoly.var("y") * MVPoly.var("z")
    yield "", st.q_poly(n + 1), xyz * (q.partial("x") + q.partial("y") + q.partial("z"))


@_identity("Q-SYM", "Q_n(x,y,z) is symmetric in all three variables", 6, _at_n("stirling"))
def _q_sym(n):
    q = st.q_poly(n)
    for perm in itertools.permutations(("x", "y", "z")):
        yield (f"permutation {perm}", q,
               q.subst({v: MVPoly.var(w) for v, w in zip(("x", "y", "z"), perm)}))


@_identity("Q-GRAMMAR", "the xyz grammar iterates to Q_n(x,y,z)", 7, _at_n("stirling"))
def _q_grammar(n):
    yield ("", gr.d_iter(gr.stirling_word_grammar(), MVPoly.var("x"), n),
           st.q_poly(n))


@_identity("Q-CHEN22", "Q_n in the elementary symmetric basis, table and grammar sides", 6,
           _at_n("stirling"))
def _q_chen22(n):
    q = st.q_poly(n)
    yield "gamma table", q, esym_assemble(
        [(k, Fraction(v)) for k, v in sorted(st.gamma_table(n).items())],
        ("x", "y", "z"))
    e1, e2, e3 = esym_polys(("x", "y", "z"))
    yield "grammar H", q, gr.d_iter(gr.esym_uvw_grammar(), MVPoly.var("w"),
                                    n - 1).subst({"u": e1, "v": e2, "w": e3})


@_per_n("C-Q-TRANSFORM", "neighbor polynomials are monomial transforms of Q_n", 6,
        _at_n("stirling", "neighbor"))
def _cq_transform(n):
    q = st.q_poly(n)
    images = [
        (("x1", "x2", "x3", "y1", "y2"),
         lambda v: (n - v[0], n - v[1], n - v[2], 2 * n - v[0] - v[1], n + 1 - v[2])),
        (("x", "y", "z"), lambda v: (n - v[0], n - v[1], n - v[2])),
        (("x1", "x2", "y2"), lambda v: (n - v[0], n - v[1], n + 1 - v[2])),
        (("y1", "y2"), lambda v: (2 * n - v[0] - v[1], n + 1 - v[2])),
    ]
    try:
        full, nca, lnelcrlrp, rrplrp = [
            _exponent_transform(q, ("x", "y", "z"), targets, image)
            for targets, image in images]
    except NotSymmetricError as exc:
        return f"n={n}: {exc}"
    return _first_diff(n, [
        ("C_n", wd.c_poly(n), full),
        ("NCA", wd.nca_poly(n), nca),
        ("lne/lcr/lrp", wd.c_poly(n).subst({"x3": 1, "y1": 1}), lnelcrlrp),
        ("rrp/lrp", wd.c_poly(n).subst({"x1": 1, "x2": 1, "x3": 1}), rrplrp),
    ])


@_identity("Q-LNE", "left-nesting distribution follows the second-order Eulerian triangle", 7,
           _at_n("pair", "stirling"))
def _q_lne(n):
    yield "", MVPoly.from_exponents(
        project(census("pair", n), lambda ps: (n - ps.lne,)), ("x",)), st.q_univariate(n)


@_identity("Q-LRP", "LR-pair distribution follows the second-order Eulerian triangle", 7,
           _at_n("pair", "stirling"))
def _q_lrp(n):
    yield "", MVPoly.from_exponents(
        project(census("pair", n), lambda ps: (n + 1 - ps.lrp,)), ("x",)), st.q_univariate(n)


@_identity("NCA-RECU", "first-order recurrence for the NCA polynomials", 6,
           lambda n: [("neighbor", n), ("neighbor", n + 1)])
def _nca_recu(n):
    p = wd.nca_poly(n)
    if n in _GOLDEN_NCA:
        yield "golden", p, parse_poly(_GOLDEN_NCA[n])
    x, y, z = MVPoly.var("x"), MVPoly.var("y"), MVPoly.var("z")
    yield "recurrence", wd.nca_poly(n + 1), n * (x + y + z) * p - (
        x ** 2 * p.partial("x") + y ** 2 * p.partial("y") + z ** 2 * p.partial("z"))


# selectors over the neighbor census key (lne, lcr, nal, rrp, lrp)
_SIX_CASES = [
    ("nal=0: x^lne y^lcr", lambda c: (c[0], c[1]) if not c[2] else None),
    ("lcr=0: x^lne y^nal", lambda c: (c[0], c[2]) if not c[1] else None),
    ("lne=0: x^lcr y^nal", lambda c: (c[1], c[2]) if not c[0] else None),
    ("lne=0: x^lcr y^(lrp-1)", lambda c: (c[1], c[4] - 1) if not c[0] else None),
    ("lcr=0: x^lne y^(lrp-1)", lambda c: (c[0], c[4] - 1) if not c[1] else None),
    ("lrp=1: x^lne y^lcr", lambda c: (c[0], c[1]) if c[4] == 1 else None),
]


@_per_n("SIX-EULERIAN", "all six restricted neighbor sums give A_n(x,y)", 6,
        _at_n("perm", "neighbor"))
def _six_eulerian(n):
    names = ("x", "y")
    target = pm.eulerian_xy(n)
    for label, selector in _SIX_CASES:
        poly = MVPoly.from_exponents(project(census("neighbor", n), selector), names)
        if poly != target:
            return _diff_witness(n, poly, target, label) + _first_word_in_diff(
                n, poly - target, lambda w: selector(wd.neighbor_classify(w)), names)
    return None


# ---------------------------------------------------------------------------
# Counting checks
# ---------------------------------------------------------------------------


@_per_n("COUNT-CATALAN", "noncrossing matchings are counted by Catalan numbers", 7,
        _at_n("pair"))
def _catalan(n):
    count = sum(c for ps, c in census("pair", n).items() if ps.cr == 0)
    catalan = math.comb(2 * n, n) // (n + 1)
    return None if count == catalan else f"n={n}: {count} != C_n = {catalan}"


@_per_n("COUNT-NARAYANA", "both Narayana refinements hold", 7, _at_n("pair"))
def _narayana(n):
    # In a noncrossing matching an opener followed by a closer is an
    # adjacent block (i, i+1), so lrp counts its adjacent blocks.
    pairs = census("pair", n)
    expected = {k: math.comb(n, k - 1) * math.comb(n, k) // n for k in range(1, n + 1)}
    noncrossing = project(pairs, lambda ps: None if ps.cr else ps.lrp)
    if noncrossing != expected:
        return f"n={n}: adjacent-block profile {noncrossing} != {expected}"
    nonnesting = project(pairs, lambda ps: None if ps.ne else ps.lrp)
    if nonnesting != expected:
        return f"n={n}: LR-pair profile {nonnesting} != {expected}"
    return None


@_per_n("COUNT-LNE-FACT", "matchings without left-nestings are counted by n!", 7,
        _at_n("pair"))
def _lne_fact(n):
    count = sum(c for ps, c in census("pair", n).items() if ps.lne == 0)
    return None if count == math.factorial(n) else f"n={n}: {count} != n! = {math.factorial(n)}"


@_per_n("FOATA-GAMMA", "gamma coefficients of A_n(x,y) count both stated objects", 7,
        lambda n: [("perm", n), ("tree", n, 2)])
def _foata(n):
    gamma = {j: int(p.constant_term()) for j, p in gamma_expand(pm.eulerian_xy(n), "x", "y")}
    alpha = project(census("perm", n), lambda s: None if s.dd else s.des)
    if gamma != alpha:
        return f"n={n}: gamma {gamma} != no-double-descent counts {alpha}"
    trees = project(census("tree", n, 2), lambda h: h[2])
    if gamma != trees:
        return f"n={n}: gamma {gamma} != 0-1-2 tree census {trees}"
    return None


# ---------------------------------------------------------------------------
# Grammar-vs-enumeration checks
# ---------------------------------------------------------------------------


@_identity("G-EXC", "quadruple-statistic grammar matches enumeration over S_n", 7,
           _at_n("perm"))
def _g_exc(n):
    I = MVPoly.var("I")
    yield ("", gr.d_iter(gr.quadruple_statistic_grammar(), I, n),
           I * _perm_quadruple_poly(n))


@_identity("G-MATCH", "matching-statistic grammar matches enumeration over M_n", 7,
           _at_n("block"))
def _g_match(n):
    J = MVPoly.var("J")
    yield ("", gr.d_iter(gr.matching_statistic_grammar(), J, n),
           J * mt.m_poly(n).subst({"x": MVPoly.var("a"), "y": MVPoly.var("b")}))


@_identity("G-CHANGE", "change of variables carries the S_n grammar to the matching grammar", 6)
def _g_change(n):
    binding = {"I": MVPoly.var("J"), "p": 2 * MVPoly.var("s"),
               "q": Fraction(1, 2) * MVPoly.var("t"),
               "x": 2 * MVPoly.var("a"), "y": 2 * MVPoly.var("b")}
    yield ("", gr.d_iter(gr.quadruple_statistic_grammar(), MVPoly.var("I"),
                         n).subst(binding),
           gr.d_iter(gr.matching_statistic_grammar(), MVPoly.var("J"), n))


@_identity("G-DUMONT", "Dumont's grammar iterates to a b^n A_n(a/b)", 8, _at_n("perm"))
def _g_dumont(n):
    g = gr.dumont_grammar()
    a, b = MVPoly.var("a"), MVPoly.var("b")
    da = gr.d_iter(g, a, n)
    yield "D^n(a) vs D^n(b)", da, gr.d_iter(g, b, n)
    # a b^n A_n(a/b): the x^k term of A_n becomes a^(k+1) b^(n-k)
    eulerian = pm.eulerian_xy(n).subst({"y": 1}).coefficients_in(("x",))
    yield "vs a b^n A_n(a/b)", da, MVPoly.from_exponents(
        {(k + 1, n - k): c.constant_term() for (k,), c in eulerian.items()}, ("a", "b"))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

DEFAULT_EGF_ORDER = 8


def check_ids() -> list[str]:
    """Every check id, in the order the checks are defined above."""
    return list(_REGISTRY)


def _run_single(check_id: str, max_n: int | None, egf_order: int) -> CheckResult:
    check = _REGISTRY[check_id]
    effective = check.bound(max_n)
    started = time.monotonic()
    try:
        rows, crash = check.run(effective, egf_order), None
    except Exception as exc:  # a crashing side counts as a failure, not an abort
        rows, crash = [], f"exception: {exc!r}"
    ms = int(round((time.monotonic() - started) * 1000))
    if not rows:
        return CheckResult(id=check_id, status="skip" if crash is None else "fail",
                           max_n=effective, per_n=[], witness=crash, ms=ms)
    per_n = [{"n": n, "status": "pass" if wit is None else "fail"} for n, wit in rows]
    witness = next((wit for _, wit in rows if wit is not None), None)
    return CheckResult(id=check_id, status="pass" if witness is None else "fail",
                       max_n=rows[-1][0], per_n=per_n, witness=witness, ms=ms)


def run_checks(selection="all", max_n: int | None = None,
               egf_order: int | None = None, jobs: int = 1) -> list[CheckResult]:
    """Run the named checks (or all of them) and return ordered results.

    `selection` is "all", None, one check id, or an iterable of ids; an id
    named twice runs once.  The checks run in this process, in order;
    `jobs` only cuts each large census they declare they read into up to
    that many shards, no more than the CPUs, each walked by its own forked
    child from the start of the run (`census.sharded`).  A shard that fails
    (a refused fork, a child that raised, was killed or exited nonzero) is
    walked serially, so results do not depend on `jobs`.  Failing checks
    never abort the run.
    """
    order = DEFAULT_EGF_ORDER if egf_order is None else egf_order
    reads = _reads(selection, max_n, order)
    with sharded(jobs, [key for keys in reads.values() for key in keys]):
        return [_run_single(check_id, max_n, order) for check_id in reads]


def _reads(selection, max_n: int | None, egf_order: int) -> dict[str, list]:
    """The census keys each selected check declares it reads at these
    bounds, by check id in run order."""
    if selection == "all" or selection is None:
        ids = list(_REGISTRY)
    else:
        ids = list(dict.fromkeys([selection] if isinstance(selection, str) else selection))
        for check_id in ids:
            if check_id not in _REGISTRY:
                raise UnknownCheckIdError(f"unknown check id: {check_id}")
    return {check.id: check.reads(check.bound(max_n), egf_order)
            for check in map(_REGISTRY.get, ids)}


def report_json(results: Iterable[CheckResult]) -> str:
    return json.dumps({"results": [r._asdict() for r in results]}, indent=2)


def report_table(results: Iterable[CheckResult]) -> str:
    results = list(results)
    lines = []
    width = max((len(r.id) for r in results), default=10)
    for r in results:
        mark = {"pass": "pass", "fail": "FAIL", "skip": "skip"}[r.status]
        line = f"{r.id:<{width}}  {mark}  max_n={r.max_n:<3d} {r.ms:>7d} ms"
        if r.status == "fail" and r.witness:
            line += f"  [{r.witness}]"
        lines.append(line)
    passed = sum(1 for r in results if r.status == "pass")
    skipped = sum(1 for r in results if r.status == "skip")
    summary = f"{passed}/{len(results) - skipped} checks passed"
    lines.append(summary + (f", {skipped} skipped" if skipped else ""))
    return "\n".join(lines)
