"""Permutations, signed permutations and derangements.

Permutations are one-line tuples pi with pi[i-1] = pi(i); signed permutations
are window tuples over {+-1..+-n} whose absolute values form a permutation.
All streams are lexicographic.  Permutations and signed permutations resume
from a rank, so their enumeration can be cut into contiguous shards whose
aggregates combine by polynomial addition; derangements take no rank.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right, insort
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .algebra import MVPoly, project, start_digits
from .census import census

Permutation = tuple  # tuple[int, ...], values 1..n
SignedPermutation = tuple  # tuple[int, ...], values in {+-1..+-n}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_permutations(n: int, start_rank: int = 0) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic order, starting at a rank."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if start_digits(start_rank, range(n, 0, -1)) is None:
        return
    yield from itertools.islice(itertools.permutations(range(1, n + 1)), start_rank, None)


def enumerate_derangements(n: int) -> Iterator[Permutation]:
    """Fixed-point-free permutations of [n], in lexicographic order."""
    for pi in enumerate_permutations(n):
        if all(v != i for i, v in enumerate(pi, start=1)):
            yield pi


def enumerate_signed(n: int, start_rank: int = 0) -> Iterator[SignedPermutation]:
    """Signed permutations in lexicographic window order (-n < ... < -1 < 1 < ... < n).

    One frame keeps, per position, the values still free there and the
    index of the one placed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    picks = start_digits(start_rank, [2 * (n - d) for d in range(n)])
    if picks is None:
        return
    if n == 0:
        yield ()
        return
    window = [0] * n
    choices = [[v for v in range(-n, n + 1) if v]] * n  # choices[d]: free at position d
    d = 0
    while True:
        for d in range(d, n - 1):
            v = window[d] = choices[d][picks[d]]
            choices[d + 1] = [u for u in choices[d] if u != v and u != -v]
        for v in choices[n - 1][picks[n - 1]:]:
            window[n - 1] = v
            yield tuple(window)
        # Move the deepest position with a value left one on; deeper ones restart.
        picks[n - 1] = 0
        d = n - 2
        while d >= 0 and picks[d] == 2 * (n - d) - 1:
            picks[d] = 0
            d -= 1
        if d < 0:
            return
        picks[d] += 1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

class PermStats(NamedTuple):
    # cli._family_rows appends these fields as row columns; keep their order.
    exc: int
    drop: int
    fix: int
    cyc: int
    asc: int
    des: int
    inv: int
    cda: int
    dd: int


def cycle_count(pi: Permutation) -> int:
    n = len(pi)
    seen = [False] * (n + 1)
    count = 0
    for i in range(1, n + 1):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = pi[j - 1]
    return count


def oneline_stats(w: tuple) -> tuple[int, int, int, int]:
    """(asc, des, inv, dd) of a word of distinct nonzero integers, such as a
    permutation or the window of a signed permutation; dd uses the boundary
    w(0) = w(n+1) = 0.

    One pass over adjacent values gives asc and dd and, by bisecting the
    sorted values seen so far, inv.
    """
    asc = dd = inv = 0
    earlier: list[int] = []  # the values before the current one, sorted
    a = b = 0  # w(i-2), w(i-1), zero before the first position
    for c in w:
        if b > c:
            if a > b:
                dd += 1
        elif b:
            asc += 1
        inv += len(earlier) - bisect_right(earlier, c)
        insort(earlier, c)
        a, b = b, c
    if a > b > 0:  # the last position against w(n+1) = 0
        dd += 1
    return asc, len(w) - 1 - asc if w else 0, inv, dd


def cda(pi: Permutation) -> int:
    """Cyclic double ascents: the i with pi^-1(i) < i < pi(i)."""
    inverse = [0] * (len(pi) + 1)
    for i, v in enumerate(pi, start=1):
        inverse[v] = i
    count = 0
    for i, v in enumerate(pi, start=1):
        if inverse[i] < i < v:
            count += 1
    return count


def perm_stats(pi: Permutation) -> PermStats:
    """The statistic record used throughout; dd uses boundary pi(0)=pi(n+1)=0.

    A pass over positions gives exc/drop; cda comes from :func:`cda` and
    the one-line statistics from :func:`oneline_stats`.
    """
    n = len(pi)
    exc = drop = 0
    for i, v in enumerate(pi, start=1):
        if v > i:
            exc += 1
        elif v < i:
            drop += 1
    asc, des, inv, dd = oneline_stats(pi)
    return tuple.__new__(PermStats, (exc, drop, n - exc - drop, cycle_count(pi),
                                     asc, des, inv, cda(pi), dd))


class SignedStats(NamedTuple):
    # cli._family_rows unpacks these fields by position; keep their order.
    wexc: int
    exc_B: int
    drop_B: int
    fix_B: int
    single: int
    cyc_B: int


def signed_stats(sigma: SignedPermutation) -> SignedStats:
    """Type-B statistics.

    cyc_B is the cycle count of the absolute permutation i -> |sigma(i)|;
    the verification suite treats that convention as provisional and lets
    the B-MAIN check arbitrate it empirically.
    """
    exc = drop = fix = single = 0
    for i, v in enumerate(sigma, start=1):
        image = sigma[abs(v) - 1]
        if image > v:
            exc += 1
        elif image < v:
            drop += 1
        if v == i:
            fix += 1
        elif v == -i:
            single += 1
    return tuple.__new__(SignedStats, (exc + single, exc, drop, fix, single,
                                       cycle_count(tuple(map(abs, sigma)))))


# ---------------------------------------------------------------------------
# Polynomial families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eulerian_xy(n: int) -> MVPoly:
    """Bivariate Eulerian polynomial, sum of x^asc y^des over all of S_n."""
    return MVPoly.from_exponents(project(census("perm", n), lambda s: (s.asc, s.des)),
                                 ("x", "y"))


@lru_cache(maxsize=None)
def eulerian_xpq(n: int) -> MVPoly:
    """The (p,q)-Eulerian polynomial, sum of x^exc p^fix q^cyc over S_n."""
    return MVPoly.from_exponents(
        project(census("perm", n), lambda s: (s.exc, s.fix, s.cyc)), ("x", "p", "q"))


@lru_cache(maxsize=None)
def derangement_poly(n: int) -> MVPoly:
    """d_n(x, q): sum of x^exc q^cyc over derangements of [n]."""
    return MVPoly.from_exponents(
        project(census("perm", n), lambda s: None if s.fix else (s.exc, s.cyc)), ("x", "q"))


def dnk_table(n: int) -> dict[int, MVPoly]:
    """For each k, the cycle polynomial of cda-free derangements with exc = k."""
    by_exc = MVPoly.from_exponents(
        project(census("perm", n), lambda s: None if s.fix or s.cda else (s.exc, s.cyc)),
        ("x", "q"))
    return {k: p for (k,), p in sorted(by_exc.coefficients_in(("x",)).items())}


@lru_cache(maxsize=None)
def b_poly(n: int) -> MVPoly:
    """Type-B (p,q)-Eulerian polynomial, sum of x^wexc p^fix q^cyc over B_n."""
    return MVPoly.from_exponents(
        project(census("signed", n), lambda s: (s.wexc, s.fix_B, s.cyc_B)), ("x", "p", "q"))


def type_b_derangement_poly(n: int) -> MVPoly:
    """d_n^B(x) = B_n(x, 0, 1)."""
    return b_poly(n).subst({"p": 0, "q": 1})


def colored_eulerian(n: int, r: int) -> MVPoly:
    """r-colored Eulerian polynomial r^n A_n(x, (1+(r-1)x)/r, 1)."""
    if r < 1:
        raise ValueError("r must be positive")
    x = MVPoly.var("x")
    binding = (MVPoly.const(1) + (r - 1) * x) * Fraction(1, r)
    return Fraction(r) ** n * eulerian_xpq(n).subst({"p": binding, "q": 1})


def derangement_count(n: int) -> int:
    """n! sum_i (-1)^i / i!, computed exactly."""
    total = sum(Fraction((-1) ** i, math.factorial(i)) for i in range(n + 1))
    value = math.factorial(n) * total
    return int(value)
