"""Matchings on [2n]: enumeration, block classes, pairwise statistics and
trace indices.

A matching is a tuple of (opener, closer) arcs in standard form: opener <
closer inside each arc, arcs sorted by closer, every vertex of [2n] used
exactly once.  Plain tuples keep the enumeration of the larger M_n cheap.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .algebra import MVPoly, project, start_digits
from .census import census

Arc = tuple  # (opener, closer)
Matching = tuple  # tuple[Arc, ...] in standard form


def enumerate_matchings(n: int, start_rank: int = 0) -> Iterator[Matching]:
    """All (2n-1)!! matchings, each in standard form, in a fixed order.

    The order pairs the smallest unmatched vertex with each larger unmatched
    vertex in turn; `start_rank` resumes the stream at that position, which
    is what makes prefix-sharded parallel aggregation possible.

    One frame walks the choices with an explicit stack, and the last two
    depths are written out: four free vertices a<b<c<e have the three
    matchings {ab,ce}, {ac,be}, {ae,bc}, in that order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = start_digits(start_rank, [2 * (n - d) - 1 for d in range(n)])
    if digits is None:
        return
    if n < 2:
        yield ((1, 2),) if n else ()
        return
    # Each arc sits in the slot of its closer, so the filled slots read left
    # to right are already the standard form: no per-matching sort.
    slots: list = [None] * (2 * n + 1)
    free = [()] * (n - 2)  # free[d]: the vertices still unmatched at depth d
    t = [1 + x for x in digits]  # t[d]: free[d][0]'s partner is free[d][t[d]]
    f, d = tuple(range(1, 2 * n + 1)), 0
    while True:
        for d in range(d, n - 2):
            free[d], k = f, t[d]
            slots[f[k]] = (f[0], f[k])
            f = f[1:k] + f[k + 1:]
        # The last two depths, from leaf t[n - 2] - 1 on: past the first
        # only where a resumed stream starts.
        a, b, c, e = f
        if t[n - 2] < 2:
            slots[b], slots[e] = (a, b), (c, e)
            yield tuple(filter(None, slots))
            slots[b] = None
        if t[n - 2] < 3:
            slots[c], slots[e] = (a, c), (b, e)
            yield tuple(filter(None, slots))
        slots[c], slots[e] = (b, c), (a, e)
        yield tuple(filter(None, slots))
        slots[c] = slots[e] = None
        # Ascend to the deepest depth with a partner left; deeper ones restart.
        t[n - 2] = 1
        d = n - 3
        while d >= 0 and t[d] == 2 * (n - d) - 1:
            slots[free[d][-1]] = None
            t[d] = 1
            d -= 1
        if d < 0:
            return
        f = free[d]
        slots[f[t[d]]] = None
        t[d] += 1


# ---------------------------------------------------------------------------
# Block classification
# ---------------------------------------------------------------------------

class BlockStats(NamedTuple):
    # cli._matching_stats reads these fields by position; keep their order.
    fixb: int
    elblock: int
    olblock: int
    esblock: int
    osblock: int
    even_to_odd: int


def block_stats(m: Matching) -> BlockStats:
    """Fixed blocks, the even/odd larger and smaller block classes of the
    other blocks, and blocks from an even opener to an odd closer."""
    fixb = el = es = eto = 0
    for a, b in m:
        if a & 1:
            if b == a + 1:
                fixb += 1
            elif not b & 1:
                el += 1
        else:
            es += 1
            if b & 1:
                eto += 1
            else:
                el += 1
    rest = len(m) - fixb
    return tuple.__new__(BlockStats, (fixb, el, rest - el, es, rest - es, eto))


# ---------------------------------------------------------------------------
# Pairwise and positional statistics
# ---------------------------------------------------------------------------

class PairStats(NamedTuple):
    # cli._matching_stats appends these fields as row columns; keep their order.
    cr: int
    ne: int
    al: int
    lne: int
    lcr: int
    nal: int
    lrp: int
    rrp: int


def pairwise_stats(m: Matching) -> PairStats:
    """Crossing/nesting/alignment counts, their adjacency-restricted variants
    and the LR/RR consecutive-position counts.

    One left-to-right sweep over the partner array.  Closing an arc pairs it
    with every arc still open: those opened before it nest around it, those
    opened after it cross it; every other pair is aligned.  The restricted
    variants and lrp/rrp depend only on two adjacent positions.
    """
    n = len(m)
    partner = [0] * (2 * n + 1)
    for a, b in m:
        partner[a] = b
        partner[b] = a
    opened: list[int] = []
    open_pairs = ne = lne = lcr = nal = lrp = rrp = 0
    prev = 0  # partner of position p - 1 (0 before position 1)
    for p, q in enumerate(partner):
        if q > p:  # p opens the arc (p, q)
            if prev > p:
                if prev > q:
                    lne += 1
                else:
                    lcr += 1
            elif prev:
                nal += 1
            opened.append(p)
        elif q:  # p closes the arc (q, p)
            if prev >= p:
                lrp += 1
            else:
                rrp += 1
            idx = opened.index(q)
            ne += idx
            del opened[idx]
            open_pairs += len(opened)
        prev = q
    return tuple.__new__(PairStats, (open_pairs - ne, ne, n * (n - 1) // 2 - open_pairs,
                                     lne, lcr, nal, lrp, rrp))


# ---------------------------------------------------------------------------
# Trace indices
# ---------------------------------------------------------------------------

def trace_indices(m: Matching) -> frozenset:
    """Openers that open a fixed block at some stage of the reduction chain.

    Each step of the chain deletes the arc (2n-1, 2n) if it is one, else
    joins the partners of 2n-1 and 2n into one arc. Arcs keep their
    endpoints until the reduction reaches them, so the set is exactly:
    fixed-block openers of `m` itself, plus openers of fixed blocks created
    by a contraction along the chain.
    """
    n = len(m)
    partner = [0] * (2 * n + 1)
    found = []
    for a, b in m:
        partner[a] = b
        partner[b] = a
        if b == a + 1 and a & 1:
            found.append(a)
    for top in range(2 * n, 0, -2):
        a = partner[top - 1]
        if a == top:
            continue
        b = partner[top]
        if a > b:
            a, b = b, a
        partner[a] = b
        partner[b] = a
        if b == a + 1 and a & 1:
            found.append(a)
    return frozenset(found)


def trace(m: Matching) -> int:
    return len(trace_indices(m))


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------

def _block_key(m: Matching) -> tuple:
    """(elblock, olblock, fixb, trace, even_to_odd), never pairwise_stats."""
    bs = block_stats(m)
    return (bs.elblock, bs.olblock, bs.fixb, trace(m), bs.even_to_odd)


@lru_cache(maxsize=None)
def m_poly(n: int) -> MVPoly:
    """The (s,t)-even-odd larger matching polynomial M_n(x, y, s, t)."""
    return MVPoly.from_exponents(project(census("block", n), lambda k: k[:4]),
                                 ("x", "y", "s", "t"))


@lru_cache(maxsize=None)
def i_poly(n: int) -> MVPoly:
    """I_n(x, y, q): sum of x^ne y^cr q^al over matchings."""
    return MVPoly.from_exponents(
        project(census("pair", n), lambda ps: (ps.ne, ps.cr, ps.al)), ("x", "y", "q"))


def count_even_to_odd_free(n: int) -> int:
    """Matchings with no block whose opener is even and closer odd."""
    return sum(c for key, c in census("block", n).items() if key[4] == 0)


def trace_distribution(n: int) -> MVPoly:
    """Sum of q^trace over all matchings of [2n]."""
    return MVPoly.from_exponents(project(census("block", n), lambda k: (k[3],)), ("q",))


_ARC_TEXT: dict = {}  # arc -> "(a,b)"; at most C(2n, 2) arcs on [2n]


def arcs_text(m: Matching) -> str:
    """Standard-form serialization like (1,3)(2,4)."""
    try:
        return "".join(map(_ARC_TEXT.__getitem__, m))
    except KeyError:
        for a, b in m:
            _ARC_TEXT[a, b] = f"({a},{b})"
        return "".join(map(_ARC_TEXT.__getitem__, m))
