"""Stirling permutations, increasing plane trees and the xi/gamma tables.

Stirling permutations of order n are words on {1,1,...,n,n} in which the
values between the two copies of i all exceed i; ascents, plateaux and
descents are counted over the padded word with zeros at both ends.  The
xi and gamma coefficient tables are computed purely by their recurrences;
tree censuses provide the independent enumeration side.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterator, NamedTuple

from .algebra import MVPoly, project, start_digits
from .census import census

StirlingPermutation = tuple  # tuple[int, ...] of length 2n
PlaneTree = tuple  # children lists: tuple[tuple[int, ...], ...], index 0 unused


def enumerate_stirling(n: int, start_rank: int = 0) -> Iterator[StirlingPermutation]:
    """All (2n-1)!! Stirling permutations of order n.

    Order k words arise from order k-1 words by inserting the adjacent pair
    "kk" into each of the 2k-1 gaps, leftmost gap first; ranks follow that
    mixed-radix construction, so streams are restartable.  One frame keeps
    the word of each order below n and the gap it was made with.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    gaps = start_digits(start_rank, [2 * k - 1 for k in range(1, n + 1)])
    if gaps is None:
        return
    if n == 0:
        yield ()
        return
    words = [()] * n  # words[k]: the prefix word of order k
    pair, k = (n, n), 1
    while True:
        for k in range(k, n):
            w, gap = words[k - 1], gaps[k - 1]
            words[k] = w[:gap] + (k, k) + w[gap:]
        w = words[n - 1]
        for gap in range(gaps[n - 1], 2 * n - 1):
            yield w[:gap] + pair + w[gap:]
        # Move the deepest order with a gap left one gap on; deeper ones restart.
        gaps[n - 1] = 0
        k = n - 1
        while k and gaps[k - 1] == 2 * k - 2:
            gaps[k - 1] = 0
            k -= 1
        if not k:
            return
        gaps[k - 1] += 1


def stirling_word_stats(word: StirlingPermutation) -> tuple[int, int, int]:
    """(asc, plat, des) over the word padded with a zero at both ends.

    The padding is not built: the sweep starts from 0, and since the values
    are positive the closing zero adds a descent after a nonempty word and a
    plateau after the empty one.
    """
    asc = plat = des = 0
    prev = 0
    for x in word:
        if prev < x:
            asc += 1
        elif prev == x:
            plat += 1
        else:
            des += 1
        prev = x
    if prev:
        des += 1
    else:
        plat += 1
    return asc, plat, des


@lru_cache(maxsize=None)
def q_poly(n: int) -> MVPoly:
    """Trivariate second-order Eulerian polynomial Q_n(x, y, z)."""
    return MVPoly.from_exponents(census("stirling", n), ("x", "y", "z"))


def q_univariate(n: int) -> MVPoly:
    """Q_n(x): the descent generating polynomial, from the trivariate form."""
    return q_poly(n).subst({"x": 1, "y": 1, "z": MVPoly.var("x")})


# ---------------------------------------------------------------------------
# Increasing plane trees with bounded degree
# ---------------------------------------------------------------------------

def enumerate_trees(n: int, max_degree: int) -> Iterator[PlaneTree]:
    """Increasing plane trees on [n], every vertex with at most `max_degree`
    ordered children; vertex m is attached at each legal child slot of the
    tree on [m-1], vertex by vertex and slot by slot.  One frame keeps, per
    vertex m, its legal (vertex, slot) choices and the index of the one
    placed; children are tuples, so a tree is yielded as `tuple(kids)`."""
    if n < 1:
        raise ValueError("n must be positive")
    if max_degree not in (2, 3):
        raise ValueError("max_degree must be 2 or 3")
    kids = [()] * (n + 1)
    if n == 1:
        yield tuple(kids)
        return
    choices, picked = [[]] * n, [0] * n
    m = 2
    while True:
        while True:  # descend from vertex m, placing each at its picked choice
            legal = [(v, s) for v in range(1, m) if len(kids[v]) < max_degree
                     for s in range(len(kids[v]) + 1)]
            if m == n:
                break
            choices[m] = legal
            v, s = legal[picked[m]]
            kids[v] = kids[v][:s] + (m,) + kids[v][s:]
            m += 1
        for v, s in legal:
            old = kids[v]
            kids[v] = old[:s] + (n,) + old[s:]
            yield tuple(kids)
            kids[v] = old
        # Move the deepest vertex with a slot left one on and re-descend from
        # it; deeper ones restart.
        m = n - 1
        while m > 1:
            v, s = choices[m][picked[m]]
            kids[v] = kids[v][:s] + kids[v][s + 1:]
            picked[m] += 1
            if picked[m] < len(choices[m]):
                break
            picked[m] = 0
            m -= 1
        if m == 1:
            return


def tree_degree_histogram(tree: PlaneTree) -> tuple[int, int, int, int]:
    """(leaves, deg-1, deg-2, deg-3) counts of a tree snapshot."""
    counts = [0, 0, 0, 0]
    for v in range(1, len(tree)):
        counts[len(tree[v])] += 1
    return tuple(counts)


def tree_text(tree: PlaneTree) -> str:
    """Nested rendering such as 1(2(4),3), built from vertex n down to 1:
    children carry larger labels than their parent."""
    text = [""] * len(tree)
    for v in range(len(tree) - 1, 0, -1):
        kids = tree[v]
        text[v] = f"{v}({','.join([text[k] for k in kids])})" if kids else f"{v}"
    return text[1]


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

class CoeffTable(NamedTuple):
    n: int
    entries: dict  # (i, j, k) -> positive int

    def poly(self, names=("x", "y", "z")) -> MVPoly:
        return MVPoly.from_exponents(self.entries, names)

    def json_pieces(self, family: str) -> Iterator[str]:
        """What `json.dumps` writes for {"family", "n", "entries"}, where
        entries are {"i", "j", "k", "c": str(c)} rows in key order: the head,
        one row at a time, then the tail."""
        yield f'{{"family": {json.dumps(family)}, "n": {self.n}, "entries": ['
        sep = ""
        for (i, j, k), c in sorted(self.entries.items()):
            yield f'{sep}{{"i": {i}, "j": {j}, "k": {k}, "c": "{c}"}}'
            sep = ", "
        yield "]}"


@lru_cache(maxsize=None)
def xi_table(n: int) -> CoeffTable:
    """xi coefficients by the recurrence

    xi(n+1; i,j,k) = (1+j+2k) xi(n; i-1,j,k) + 2(1+i) xi(n; i+1,j-1,k)
                     + 3(1+j) xi(n; i,j+1,k-1),

    starting from xi(1; 1,0,0) = 1; keys satisfy i + 2j + 3k = n.  Iterated
    from order 1 up, keeping only the previous order as lists indexed
    [k][j] (i follows from the order).  Each term is read only where its
    key is valid, which makes the index in range: the first needs i >= 1,
    the second j >= 1, the third k >= 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cur = [[1]]
    for m in range(2, n + 1):
        prev, cur = cur, []
        for k in range(m // 3 + 1):
            same = prev[k] if k < len(prev) else ()
            below = prev[k - 1] if k else ()
            row = []
            for j in range((m - 3 * k) // 2 + 1):
                i = m - 2 * j - 3 * k
                total = (1 + j + 2 * k) * same[j] if i else 0
                if j:
                    total += 2 * (1 + i) * same[j - 1]
                if k:
                    total += 3 * (1 + j) * below[j + 1]
                row.append(total)
            cur.append(row)
    return CoeffTable(n, _entries(cur, n))


@lru_cache(maxsize=None)
def gamma_table(n: int) -> CoeffTable:
    """gamma coefficients by the recurrence

    gamma(n; i,j,k) = 3(1+i) gamma(n-1; i+1,j,k-1) + 2(1+j) gamma(n-1; i-1,j+1,k-1)
                      + k gamma(n-1; i,j-1,k),

    starting from gamma(1; 0,0,1) = 1; keys satisfy i + 2j + 3k = 2n + 1.
    Iterated from order 1 up, keeping only the previous order as rows
    (first j, values) indexed [k] (i follows from the order).  Row k of
    order m starts at j = m + 1 - 2k (or 0), since every other entry is
    zero: each term keeps s = i + j + k or raises it by one, from s = 1 at
    order 1, so s <= m, that is j + 2k >= m + 1.  Row 0 is empty; the first
    term reads row k-1 from its first j, the second needs i >= 1 and the
    third a j past the first of row k, which keeps every index in range.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cur = [(2, []), (0, [1])]
    for m in range(2, n + 1):
        prev, cur = cur, [(m + 1, [])]
        target = 2 * m + 1
        for k in range(1, target // 3 + 1):
            first = max(0, m + 1 - 2 * k)
            bf, below = prev[k - 1]
            sf, same = prev[k] if k < len(prev) else (0, ())
            row = []
            for j in range(first, (target - 3 * k) // 2 + 1):
                i = target - 2 * j - 3 * k
                total = 3 * (1 + i) * below[j - bf] if j >= bf else 0
                if i:
                    total += 2 * (1 + j) * below[j + 1 - bf]
                if j > sf:
                    total += k * same[j - 1 - sf]
                row.append(total)
            cur.append((first, row))
    firsts, rows = zip(*cur)
    return CoeffTable(n, _entries(rows, 2 * n + 1, firsts))


def _entries(rows, order: int, firsts=None) -> dict:
    """{(i, j, k): c} of the nonzero entries of rows indexed [k] with
    i + 2j + 3k = order, in (k, j) order; row k starts at j = firsts[k] or 0."""
    return {(order - 2 * j - 3 * k, j, k): c
            for k, (first, row) in enumerate(zip(firsts or [0] * len(rows), rows))
            for j, c in enumerate(row, first) if c}


def xi_poly(n: int) -> MVPoly:
    """xi_n(x, y, z) assembled from the table."""
    return xi_table(n).poly()


def gamma_poly(n: int) -> MVPoly:
    """gamma_n(x, y, z) assembled from the table."""
    return gamma_table(n).poly()


def degree_census(n: int, max_degree: int) -> CoeffTable:
    """Tree counts on [n] keyed by (deg-1, deg-2, deg-3) vertex counts."""
    return CoeffTable(n, project(census("tree", n, max_degree), lambda h: h[1:]))


def gamma_keyed_census(n: int) -> CoeffTable:
    """Tree counts on [n] keyed the gamma way: (deg-2, deg-1, leaves)."""
    return CoeffTable(n, project(census("tree", n, 3), lambda h: (h[2], h[1], h[0])))
