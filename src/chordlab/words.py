"""Matching permutations: barred/unbarred words encoding matchings.

The closers of a matching, read left to right, carry the barred symbols
1', 2', ..., n'; each opener carries the unbarred value of its arc.  A word
is stored as a tuple of (value, barred) pairs.  The bijection with matchings
transfers every neighbor statistic, which the verification suite checks
object by object.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import lru_cache
from typing import Iterator, NamedTuple

from .algebra import MVPoly, project
from .census import census
from . import matchings as mt

Symbol = tuple  # (value, barred)
Word = tuple  # tuple[Symbol, ...]


@lru_cache(maxsize=None)
def _symbol_pairs(n: int) -> tuple:
    """((r, False), (r, True)) for r = 1..n, shared by every word of order n."""
    return tuple(((r, False), (r, True)) for r in range(1, n + 1))


def from_matching(m: mt.Matching) -> Word:
    """Label closers 1'..n' left to right, openers with their arc's value."""
    symbols: list[Symbol] = [None] * (2 * len(m) + 1)
    for (a, b), (opener, closer) in zip(m, _symbol_pairs(len(m))):
        symbols[a] = opener
        symbols[b] = closer
    return tuple(symbols[1:])


def to_matching(w: Word) -> mt.Matching:
    """Inverse of :func:`from_matching`.  Arcs are appended in closer
    order, each after its opener, so they are already in standard form."""
    openers: dict[int, int] = {}
    arcs = []
    for pos, (value, barred) in enumerate(w, start=1):
        if barred:
            arcs.append((openers[value], pos))
        else:
            openers[value] = pos
    return tuple(arcs)


def validate_word(w: Word) -> None:
    """Check the matching-permutation invariants."""
    n = len(w) // 2
    if len(w) != 2 * n:
        raise ValueError("word length must be even")
    barred_seen = []
    opened = set()
    closed = set()
    for value, barred in w:
        if not 1 <= value <= n:
            raise ValueError(f"value {value} out of range")
        if barred:
            if value in closed:
                raise ValueError(f"barred {value} appears twice")
            if value not in opened:
                raise ValueError(f"barred {value} precedes unbarred {value}")
            barred_seen.append(value)
            closed.add(value)
        else:
            if value in opened:
                raise ValueError(f"unbarred {value} appears twice")
            opened.add(value)
    if barred_seen != sorted(barred_seen):
        raise ValueError("barred values are not increasing")
    if len(closed) != n:
        raise ValueError("some value is never closed")


def enumerate_words(n: int, start_rank: int = 0) -> Iterator[Word]:
    """Matching permutations, in the image order of the matching stream."""
    return map(from_matching, mt.enumerate_matchings(n, start_rank=start_rank))


def words(n: int, start_rank: int = 0) -> Iterator[Word]:
    """:func:`enumerate_words`, under the name perfbench/layers.py wraps."""
    return enumerate_words(n, start_rank)


# ---------------------------------------------------------------------------
# Neighbor classification and word statistics
# ---------------------------------------------------------------------------

class NeighborClassification(NamedTuple):
    # cli._word_rows, checks._mp_bij and the SIX-EULERIAN selectors read
    # these fields by position; keep their order.
    lne: int
    lcr: int
    nal: int
    rrp: int
    lrp: int


def neighbor_classify(w: Word) -> NeighborClassification:
    """How many of the indices 1..2n-1 fall in each of the five neighbor
    classes; index i is classed by the symbols at positions i and i+1."""
    lne = lcr = nal = rrp = lrp = 0
    it = iter(w)
    v1, b1 = next(it, (0, False))
    for v2, b2 in it:
        if b1:
            if b2:
                rrp += 1
            else:
                nal += 1
        elif b2:
            lrp += 1
        elif v1 > v2:
            lne += 1
        else:
            lcr += 1
        v1, b1 = v2, b2
    return tuple.__new__(NeighborClassification, (lne, lcr, nal, rrp, lrp))


class WordStats(NamedTuple):
    # cli._family_rows appends these fields as row columns; keep their order.
    inv: int
    coinv: int
    rank: int


def word_stats(w: Word) -> WordStats:
    """Inversions, co-inversions and ranks of a matching permutation.

    inv counts descending unbarred pairs (these are exactly the nestings of
    the matching).  coinv counts ascending unbarred pairs whose second entry
    falls before the first entry's barred partner, i.e. inside its arc span
    (exactly the crossings; an ascending pair beyond that span is an
    alignment instead).  rank counts barred entries followed later by a
    larger unbarred entry (exactly the alignments).

    One sweep: each unbarred entry is the second entry of its pairs, so it
    counts the larger unbarred values before it, the smaller ones whose
    barred partner is still ahead, and the smaller barred values before it,
    each by bisecting a sorted list.
    """
    unbarred: list[int] = []  # values of the unbarred entries so far, sorted
    spanning: list[int] = []  # those whose barred partner is still ahead
    barred_seen: list[int] = []
    inv = coinv = rank = 0
    for value, barred in w:
        if barred:
            insort(barred_seen, value)
            spanning.remove(value)
        else:
            inv += len(unbarred) - bisect_right(unbarred, value)
            coinv += bisect_left(spanning, value)
            rank += bisect_left(barred_seen, value)
            insort(unbarred, value)
            insort(spanning, value)
    return tuple.__new__(WordStats, (inv, coinv, rank))


def word_text(w: Word) -> str:
    """Space-separated rendering, barred symbols with a trailing apostrophe."""
    return " ".join(f"{v}'" if b else str(v) for v, b in w)


# ---------------------------------------------------------------------------
# Neighbor polynomial families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def c_poly(n: int) -> MVPoly:
    """The five-variable neighbor polynomial C_n(x1, x2, x3, y1, y2)."""
    return MVPoly.from_exponents(census("neighbor", n), ("x1", "x2", "x3", "y1", "y2"))


@lru_cache(maxsize=None)
def nca_poly(n: int) -> MVPoly:
    """Sum of x^lne y^lcr z^nal over matching permutations."""
    return MVPoly.from_exponents(project(census("neighbor", n), lambda k: k[:3]),
                                 ("x", "y", "z"))


@lru_cache(maxsize=None)
def ncr_poly(n: int) -> MVPoly:
    """Sum of x^lne y^lcr z^(lrp-1) over matching permutations."""
    return MVPoly.from_exponents(
        project(census("neighbor", n), lambda k: (k[0], k[1], k[4] - 1)),
        ("x", "y", "z"))
