"""Reference implementations of the per-object kernels.

These are the straightforward versions the library's kernels replaced: a
sorting matching enumerator, recursive Stirling, sorted signed permutation
and recursive increasing plane tree enumerators with a recursive tree
renderer, the O(n^2) pairwise and word loops, set-based
trace and neighbor classifiers, a padded Stirling sweep and multi-pass
permutation statistics.  They return
plain tuples in the field order of the library's stat records (which are
tuples too), so each can be compared with its kernel object by object; the
neighbor classifier returns the five index sets whose sizes the kernel
counts.
Three algebra kernels have references here too: the grammar derivative on
sparse (variable, exponent) monomials with `Fraction` coefficients, the
xi/gamma recurrences on tuple-keyed dictionaries, and the gamma expansion
by peeling whole polynomials.

Next come test-only constructions: the standard form of a matching given
as arcs in any order and orientation, the O(n^2) one-line statistics of a
signed permutation, the insertion generator of matching permutations, the
inverse of `gamma_expand`, the psi/psi1/psi2 generation of M_{n+1} from M_n
with its inverse reduction, a matching validator and the parsers that read
a matching or a word back from its text.  Last are the CLI's earlier
writers: the `enumerate` writer, which built one dict per object and
serialised it with `csv.DictWriter` or `JSONEncoder`, then the polynomial
text and the coefficient table JSON, each built as one string.
"""
import csv
import itertools
import json
import re
from fractions import Fraction

from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.algebra import MVPoly, NotHomogeneousError, NotSymmetricError, _mono_mul


def standard_form(arcs):
    """Canonical form: each arc (min, max), arcs sorted by closer."""
    fixed = [(a, b) if a < b else (b, a) for a, b in arcs]
    fixed.sort(key=lambda arc: arc[1])
    return tuple(fixed)


def double_factorial(m):
    """(2n-1)!! for m = 2n-1; 1 for m <= 0."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def enumerate_matchings(n, start_rank=0):
    """Recursive pairing of the smallest free vertex, then a sort by closer."""
    if n == 0:
        if start_rank == 0:
            yield ()
        return
    total = double_factorial(2 * n - 1)
    if start_rank >= total:
        return
    radices = [2 * (n - d) - 1 for d in range(n)]
    digits = [0] * n
    rank = start_rank
    for d in range(n - 1, -1, -1):
        rank, digits[d] = divmod(rank, radices[d])
    arcs = []

    def rec(free, depth, on_prefix):
        if not free:
            yield standard_form(arcs)
            return
        a = free[0]
        lo = 1 + digits[depth] if on_prefix else 1
        for t in range(lo, len(free)):
            arcs.append((a, free[t]))
            yield from rec(free[1:t] + free[t + 1:], depth + 1,
                           on_prefix and t == lo)
            arcs.pop()

    yield from rec(tuple(range(1, 2 * n + 1)), 0, True)


def block_stats(m):
    """(fixb, elblock, olblock, esblock, osblock, even_to_odd)."""
    fixb = el = ol = es = os = eto = 0
    for a, b in m:
        if a % 2 == 1 and b == a + 1:
            fixb += 1
        else:
            if b % 2 == 1:
                ol += 1
            else:
                el += 1
            if a % 2 == 0:
                es += 1
            else:
                os += 1
        if a % 2 == 0 and b % 2 == 1:
            eto += 1
    return (fixb, el, ol, es, os, eto)


def pairwise_stats(m):
    """(cr, ne, al, lne, lcr, nal, lrp, rrp) by comparing every pair of
    arcs."""
    n = len(m)
    cr = ne = al = lne = lcr = nal = 0
    for r in range(n):
        i1, j1 = m[r]
        for s in range(r + 1, n):
            i2, j2 = m[s]  # j1 < j2 by standard form
            if i2 > j1:
                al += 1
                if i2 == j1 + 1:
                    nal += 1
            elif i2 > i1:
                cr += 1
                if i2 == i1 + 1:
                    lcr += 1
            else:
                ne += 1
                if i1 == i2 + 1:
                    lne += 1
    is_opener = [False] * (2 * n + 2)
    for a, b in m:
        is_opener[a] = True
    lrp = rrp = 0
    for i in range(1, 2 * n):
        if is_opener[i + 1]:
            continue
        if is_opener[i]:
            lrp += 1
        else:
            rrp += 1
    return (cr, ne, al, lne, lcr, nal, lrp, rrp)


def trace_indices(m):
    """Fixed-block openers along the reduction chain, collected in a set."""
    n = len(m)
    partner = [0] * (2 * n + 1)
    found = set()
    for a, b in m:
        partner[a] = b
        partner[b] = a
        if a % 2 == 1 and b == a + 1:
            found.add(a)
    for top in range(2 * n, 0, -2):
        if partner[top - 1] == top:
            continue
        a = partner[top - 1]
        b = partner[top]
        c, d = (a, b) if a < b else (b, a)
        partner[c] = d
        partner[d] = c
        if c % 2 == 1 and d == c + 1:
            found.add(c)
    return frozenset(found)


def neighbor_classify(w):
    """(lne, lcr, nal, rrp, lrp) index sets, built with set.add; the
    kernel `words.neighbor_classify` returns their sizes."""
    lne, lcr, nal, rrp, lrp = set(), set(), set(), set(), set()
    for i in range(len(w) - 1):
        v1, b1 = w[i]
        v2, b2 = w[i + 1]
        idx = i + 1
        if b1 and b2:
            rrp.add(idx)
        elif b1 and not b2:
            nal.add(idx)
        elif not b1 and b2:
            lrp.add(idx)
        elif v1 > v2:
            lne.add(idx)
        else:
            lcr.add(idx)
    return tuple(map(frozenset, (lne, lcr, nal, rrp, lrp)))


def word_stats(w):
    """(inv, coinv, rank) by comparing every pair of positions."""
    closer_pos = {}
    for pos, (value, barred) in enumerate(w):
        if barred:
            closer_pos[value] = pos
    inv = coinv = rank = 0
    for i in range(len(w)):
        vi, bi = w[i]
        for j in range(i + 1, len(w)):
            vj, bj = w[j]
            if not bi and not bj:
                if vi > vj:
                    inv += 1
                elif j < closer_pos[vi]:
                    coinv += 1
            elif bi and not bj and vi < vj:
                rank += 1
    return (inv, coinv, rank)


def stirling_word_stats(word):
    """(asc, plat, des) over an explicitly zero-padded copy of the word."""
    padded = (0,) + word + (0,)
    asc = plat = des = 0
    for i in range(len(padded) - 1):
        a, b = padded[i], padded[i + 1]
        if a < b:
            asc += 1
        elif a == b:
            plat += 1
        else:
            des += 1
    return asc, plat, des


def perm_stats(pi):
    """(exc, drop, fix, cyc, asc, des, inv, cda, dd), one pass per statistic."""
    n = len(pi)
    exc = drop = fix = 0
    for i, v in enumerate(pi, start=1):
        if v > i:
            exc += 1
        elif v < i:
            drop += 1
        else:
            fix += 1
    asc = sum(1 for i in range(n - 1) if pi[i] < pi[i + 1])
    des = (n - 1) - asc if n else 0
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j])
    inverse = [0] * (n + 1)
    for i, v in enumerate(pi, start=1):
        inverse[v] = i
    cda = sum(1 for i in range(1, n + 1) if inverse[i] < i < pi[i - 1])
    padded = (0,) + pi + (0,)
    dd = sum(1 for i in range(1, n + 1)
             if padded[i - 1] > padded[i] > padded[i + 1])
    return (exc, drop, fix, _cycle_count(pi), asc, des, inv, cda, dd)


def signed_stats(sigma):
    """(wexc, exc_B, drop_B, fix_B, single, cyc_B) in two passes."""
    absperm = tuple(abs(v) for v in sigma)
    exc = fix = single = 0
    for i, v in enumerate(sigma, start=1):
        if sigma[abs(v) - 1] > v:
            exc += 1
        if v == i:
            fix += 1
        elif v == -i:
            single += 1
    drop = sum(1 for v in sigma if sigma[abs(v) - 1] < v)
    return (exc + single, exc, drop, fix, single, _cycle_count(absperm))


def _cycle_count(pi):
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


def enumerate_stirling(n, start_rank=0):
    """Insert "kk" into every gap of each order k-1 word, leftmost first."""
    if n == 0:
        if start_rank == 0:
            yield ()
        return
    radices = [2 * k - 1 for k in range(1, n + 1)]
    digits = [0] * n
    rank = start_rank
    for k in range(n - 1, -1, -1):
        rank, digits[k] = divmod(rank, radices[k])
    if rank:
        return

    def rec(word, k, on_prefix):
        if k > n:
            yield word
            return
        lo = digits[k - 1] if on_prefix else 0
        for gap in range(lo, 2 * k - 1):
            yield from rec(word[:gap] + (k, k) + word[gap:], k + 1,
                           on_prefix and gap == lo)

    yield from rec((), 1, True)


def enumerate_trees(n, max_degree):
    """Attach vertex m at every legal child slot, recursing on m + 1; each
    tree is a snapshot of the mutable children lists."""
    if n < 1:
        raise ValueError("n must be positive")
    if max_degree not in (2, 3):
        raise ValueError("max_degree must be 2 or 3")
    children = [[] for _ in range(n + 1)]

    def rec(m):
        if m > n:
            yield tuple(tuple(c) for c in children)
            return
        for v in range(1, m):
            kids = children[v]
            if len(kids) >= max_degree:
                continue
            for slot in range(len(kids) + 1):
                kids.insert(slot, m)
                yield from rec(m + 1)
                kids.pop(slot)

    yield from rec(2)


def tree_text(tree):
    """Nested rendering such as 1(2(4),3), rendering each child recursively."""
    def render(v):
        kids = tree[v]
        if not kids:
            return str(v)
        return f"{v}(" + ",".join(render(k) for k in kids) + ")"
    return render(1)


def enumerate_signed(n, start_rank=0):
    """Every sign vector on every permutation, sorted: the window
    lexicographic order -n < ... < -1 < 1 < ... < n is tuple order."""
    return sorted(tuple(s * v for s, v in zip(signs, pi))
                  for pi in itertools.permutations(range(1, n + 1))
                  for signs in itertools.product((-1, 1), repeat=n))[start_rank:]


def signed_oneline_stats(sigma):
    """(asc, des, inv, dd) of a signed permutation, dd with zero boundaries."""
    n = len(sigma)
    padded = (0,) + sigma + (0,)
    asc = sum(1 for i in range(n - 1) if sigma[i] < sigma[i + 1])
    des = (n - 1) - asc if n else 0
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
    dd = sum(1 for i in range(1, n + 1) if padded[i - 1] > padded[i] > padded[i + 1])
    return asc, des, inv, dd


def insertion_words(n):
    """Matching permutations grown independently of the matching stream.

    A word of order k comes from one of order k-1 by appending k' and
    inserting the unbarred k just before the word or right after any of its
    entries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        yield ((1, False), (1, True))
        return
    for w in insertion_words(n - 1):
        tail = ((n, True),)
        for pos in range(2 * n - 1):
            yield w[:pos] + ((n, False),) + w[pos:] + tail


def gamma_expand(p, x, y):
    """`algebra.gamma_expand` by peeling: take the coefficient of x^(d-2j)
    as gamma_j, subtract gamma_j (x+y)^(d-2j) and divide the remainder by
    xy, for j = 0, 1, ...; it raises the same errors."""
    if p.is_zero:
        return []
    slices = p.coefficients_in((x, y))
    degrees = {ex + ey for ex, ey in slices}
    if len(degrees) != 1:
        raise NotHomogeneousError(
            f"degrees in ({x},{y}) are not constant: {sorted(degrees)}")
    d = degrees.pop()
    x_plus_y = MVPoly.var(x) + MVPoly.var(y)
    out = []
    cur = p
    j = 0
    while not cur.is_zero:
        rem = d - 2 * j
        if rem < 0:
            raise NotSymmetricError("peeling left a nonzero remainder")
        lead = cur.coefficient({x: rem, y: 0})
        if not lead.is_zero:
            out.append((j, lead))
            cur = cur - lead * x_plus_y ** rem
        # every surviving term must now be divisible by x*y
        quotient = {}
        for mono, c in cur.terms.items():
            exps = dict(mono)
            if exps.get(x, 0) < 1 or exps.get(y, 0) < 1:
                raise NotSymmetricError("peeling left a nonzero remainder")
            reduced = []
            for v, e in mono:
                if v in (x, y):
                    e -= 1
                if e:
                    reduced.append((v, e))
            quotient[tuple(reduced)] = c
        cur = MVPoly(quotient)
        j += 1
    return out


def gamma_assemble(coeffs, x, y, d):
    """Inverse of `gamma_expand` for a degree-d expansion."""
    xy = MVPoly.var(x) * MVPoly.var(y)
    x_plus_y = MVPoly.var(x) + MVPoly.var(y)
    total = MVPoly.zero()
    for j, g in coeffs:
        total = total + g * xy ** j * x_plus_y ** (d - 2 * j)
    return total


def d_apply(g, p):
    """One derivative step, merging each rule monomial into the sparse
    monomial with its variable's exponent lowered."""
    out = {}
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


def xi_table(n):
    """xi entries {(i, j, k): c}, i + 2j + 3k = n, by tuple-keyed lookups."""
    cur = {(1, 0, 0): 1}
    for m in range(2, n + 1):
        prev, cur = cur, {}
        for k in range(m // 3 + 1):
            for j in range((m - 3 * k) // 2 + 1):
                i = m - 2 * j - 3 * k
                total = (1 + j + 2 * k) * prev.get((i - 1, j, k), 0)
                total += 2 * (1 + i) * prev.get((i + 1, j - 1, k), 0)
                total += 3 * (1 + j) * prev.get((i, j + 1, k - 1), 0)
                if total:
                    cur[(i, j, k)] = total
    return cur


def gamma_table(n):
    """gamma entries {(i, j, k): c}, i + 2j + 3k = 2n + 1, by tuple-keyed
    lookups."""
    cur = {(0, 0, 1): 1}
    for m in range(2, n + 1):
        prev, cur = cur, {}
        target = 2 * m + 1
        for k in range(target // 3 + 1):
            for j in range((target - 3 * k) // 2 + 1):
                i = target - 2 * j - 3 * k
                total = 3 * (1 + i) * prev.get((i + 1, j, k - 1), 0)
                total += 2 * (1 + j) * prev.get((i - 1, j + 1, k - 1), 0)
                total += k * prev.get((i, j - 1, k), 0)
                if total:
                    cur[(i, j, k)] = total
    return cur


# ---------------------------------------------------------------------------
# The generation algorithm: psi, psi1, psi2 and the inverse reduction, whose
# chain `matchings.trace_indices` follows
# ---------------------------------------------------------------------------

class ArcNotFoundError(Exception):
    pass


def extend_psi(m):
    """Append the block (2n+1, 2n+2)."""
    size = 2 * len(m)
    return m + ((size + 1, size + 2),)


def extend_psi1(m, arc):
    """Replace (i, j) by the blocks (i, 2n+1)(j, 2n+2)."""
    if arc not in m:
        raise ArcNotFoundError(f"{arc} is not an arc of the matching")
    size = 2 * len(m)
    i, j = arc
    rest = tuple(a for a in m if a != arc)
    return standard_form(rest + ((i, size + 1), (j, size + 2)))


def extend_psi2(m, arc):
    """Replace (i, j) by the blocks (j, 2n+1)(i, 2n+2)."""
    if arc not in m:
        raise ArcNotFoundError(f"{arc} is not an arc of the matching")
    size = 2 * len(m)
    i, j = arc
    rest = tuple(a for a in m if a != arc)
    return standard_form(rest + ((j, size + 1), (i, size + 2)))


def reduce_step(m):
    """Delete or contract the entries 2n-1 and 2n; returns (matching, tag).

    Tag is "psi" when (2n-1, 2n) was an arc and was deleted, else "psi1" or
    "psi2" according to which constructor the contraction inverts.
    """
    n = len(m)
    if n < 1:
        raise ValueError("cannot reduce the empty matching")
    top = 2 * n
    partner = {}
    for a, b in m:
        partner[a] = b
        partner[b] = a
    if partner[top - 1] == top:
        rest = tuple(arc for arc in m if arc != (top - 1, top))
        return rest, "psi"
    a = partner[top - 1]
    b = partner[top]
    tag = "psi1" if a < b else "psi2"
    rest = [arc for arc in m if top - 1 not in arc and top not in arc]
    rest.append((min(a, b), max(a, b)))
    return standard_form(rest), tag


# ---------------------------------------------------------------------------
# Test-only parsers and validators
# ---------------------------------------------------------------------------

def validate_matching(m):
    """Raise ValueError unless `m` is a standard-form matching on [2n]."""
    n = len(m)
    seen = set()
    last_closer = 0
    for a, b in m:
        if not a < b:
            raise ValueError(f"arc ({a},{b}) has opener >= closer")
        if b <= last_closer:
            raise ValueError("arcs are not sorted by closer")
        last_closer = b
        seen.add(a)
        seen.add(b)
    if seen != set(range(1, 2 * n + 1)):
        raise ValueError("vertices do not cover [2n] exactly once")


def arcs_from_text(text):
    """Inverse of `matchings.arcs_text`; validates the result."""
    text = text.strip()
    if not text:
        return ()
    parts = re.findall(r"\((\d+),(\d+)\)", text)
    if "".join(f"({a},{b})" for a, b in parts) != text.replace(" ", ""):
        raise ValueError(f"malformed arc list: {text!r}")
    m = standard_form((int(a), int(b)) for a, b in parts)
    validate_matching(m)
    return m


def word_from_text(text):
    """Inverse of `words.word_text`; validates the result."""
    out = []
    for token in text.split():
        if token.endswith("'"):
            out.append((int(token[:-1]), True))
        else:
            out.append((int(token), False))
    w = tuple(out)
    wd.validate_word(w)
    return w


# ---------------------------------------------------------------------------
# The CLI's dict-row serialisers: one dict per object, then csv.DictWriter,
# JSONEncoder or a per-family text key
# ---------------------------------------------------------------------------

def _signed_row(n, rank, sigma):
    s = pm.signed_stats(sigma)
    asc, des, inv, dd = pm.oneline_stats(sigma)
    cda = pm.perm_stats(tuple(map(abs, sigma))).cda
    return {
        "n": n, "rank": rank, "oneline": " ".join(map(str, sigma)),
        "exc": s.exc_B, "drop": s.drop_B, "fix": s.fix_B, "cyc": s.cyc_B,
        "asc": asc, "des": des, "inv": inv, "cda": cda, "dd": dd,
        "wexc": s.wexc, "single": s.single,
    }


def family_rows(family, n):
    """(fieldnames, iterator of row dicts) for one enumeration family."""
    if family == "matchings":
        fields = ["n", "rank", "arcs", "fixb", "elblock", "olblock", "esblock",
                  "osblock", "cr", "ne", "al", "lne", "lcr", "nal", "lrp",
                  "rrp", "trace"]

        def rows():
            for rank, m in enumerate(mt.enumerate_matchings(n)):
                bs = mt.block_stats(m)
                ps = mt.pairwise_stats(m)
                yield {"n": n, "rank": rank, "arcs": mt.arcs_text(m),
                       "fixb": bs.fixb, "elblock": bs.elblock,
                       "olblock": bs.olblock, "esblock": bs.esblock,
                       "osblock": bs.osblock, "cr": ps.cr, "ne": ps.ne,
                       "al": ps.al, "lne": ps.lne, "lcr": ps.lcr,
                       "nal": ps.nal, "lrp": ps.lrp, "rrp": ps.rrp,
                       "trace": mt.trace(m)}
        return fields, rows()
    if family == "mwords":
        fields = ["n", "rank", "word", "lne", "lcr", "nal", "rrp", "lrp",
                  "inv", "coinv", "rank_stat"]

        def rows():
            for rank, w in enumerate(wd.enumerate_words(n)):
                lne, lcr, nal, rrp, lrp = neighbor_classify(w)
                s = wd.word_stats(w)
                yield {"n": n, "rank": rank, "word": wd.word_text(w),
                       "lne": len(lne), "lcr": len(lcr), "nal": len(nal),
                       "rrp": len(rrp), "lrp": len(lrp), "inv": s.inv,
                       "coinv": s.coinv, "rank_stat": s.rank}
        return fields, rows()
    if family in ("perms", "derangements"):
        fields = ["n", "rank", "oneline", "exc", "drop", "fix", "cyc", "asc",
                  "des", "inv", "cda", "dd"]
        stream = (pm.enumerate_permutations(n) if family == "perms"
                  else pm.enumerate_derangements(n))

        def rows():
            for rank, pi in enumerate(stream):
                s = pm.perm_stats(pi)
                yield {"n": n, "rank": rank, "oneline": " ".join(map(str, pi)),
                       "exc": s.exc, "drop": s.drop, "fix": s.fix, "cyc": s.cyc,
                       "asc": s.asc, "des": s.des, "inv": s.inv, "cda": s.cda,
                       "dd": s.dd}
        return fields, rows()
    if family == "signed":
        fields = ["n", "rank", "oneline", "exc", "drop", "fix", "cyc", "asc",
                  "des", "inv", "cda", "dd", "wexc", "single"]

        def rows():
            for rank, sigma in enumerate(pm.enumerate_signed(n)):
                yield _signed_row(n, rank, sigma)
        return fields, rows()
    if family == "stirling":
        fields = ["n", "rank", "word", "asc", "plat", "des"]

        def rows():
            for rank, word in enumerate(st.enumerate_stirling(n)):
                asc, plat, des = st.stirling_word_stats(word)
                yield {"n": n, "rank": rank, "word": " ".join(map(str, word)),
                       "asc": asc, "plat": plat, "des": des}
        return fields, rows()
    if family in ("trees012", "trees0123"):
        degree = 2 if family == "trees012" else 3
        fields = ["n", "rank", "tree", "leaves", "deg1", "deg2", "deg3"]

        def rows():
            for rank, tree in enumerate(enumerate_trees(n, degree)):
                leaves, d1, d2, d3 = st.tree_degree_histogram(tree)
                yield {"n": n, "rank": rank, "tree": tree_text(tree),
                       "leaves": leaves, "deg1": d1, "deg2": d2, "deg3": d3}
        return fields, rows()
    raise ValueError(f"unknown family {family!r}")


def write_rows(fmt, family, fields, rows, out):
    """Write each row dict in `fmt`; the CLI's tuple-row writer must
    produce the same bytes."""
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "json":
        items = map(json.JSONEncoder(separators=(",", ":")).encode, rows)
        out.write("[" + next(items, ""))
        out.writelines("," + item for item in items)
        out.write("]\n")
    else:
        key = {"matchings": "arcs", "mwords": "word", "perms": "oneline",
               "derangements": "oneline", "signed": "oneline",
               "stirling": "word", "trees012": "tree", "trees0123": "tree"}[family]
        lines = (f"{row[key]}\n" for row in rows)
        out.write(next(lines, "\n"))  # an empty stream is one empty line
        out.writelines(lines)


# ---------------------------------------------------------------------------
# The CLI's earlier `poly` and `grammar` writers: the whole text or JSON
# built as one string
# ---------------------------------------------------------------------------

def render(p):
    """The whole text of `p` built at once: every term's string in a list,
    joined by " + "; "0" for the zero polynomial."""
    if not p.terms:
        return "0"
    parts = []
    for mono, c in p._ordered_terms():
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


def table_json(family, n, table):
    """A coefficient table as one `json.dumps` string of row dicts."""
    rows = [{"i": i, "j": j, "k": k, "c": str(c)}
            for (i, j, k), c in sorted(table.items())]
    return json.dumps({"family": family, "n": n, "entries": rows})
