"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The full check suite runs once at its default bounds (the bounds the criteria
state), each large census sharded over the usable CPUs, and the criterion
tests read off the relevant results.  CI's "Sharded censuses" step walks M_8
serially as well and compares the reports.
"""
import time

import pytest

import chordlab
import oracles
from chordlab import census, checks
from chordlab import grammar as gr
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import words as wd
from chordlab.algebra import MVPoly, parse_poly
from chordlab.checks import run_checks


@pytest.fixture(scope="module")
def suite():
    started = time.monotonic()
    results = {r.id: r for r in run_checks("all", jobs=census._cpus())}
    elapsed = time.monotonic() - started
    return results, elapsed


def _report(k, description, ok):
    print(f"ACCEPTANCE {k} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {k} failed: {description}"


def _all_pass(results, ids, min_n=None):
    for check_id in ids:
        r = results[check_id]
        if r.status != "pass":
            return False
        if min_n is not None and len(r.per_n) < min_n:
            return False
    return True


def test_criterion_1_golden_values(suite):
    results, _ = suite
    r = results["GOLDEN"]
    ok = r.status == "pass" and r.ms < 1000
    _report(1, "golden polynomial listings, < 1 s", ok)


def test_criterion_2_main_theorem(suite):
    results, _ = suite
    r = results["M-MAIN"]
    ok = (r.status == "pass" and len(r.per_n) >= 7
          and results["M-SYM"].status == "pass"
          and len(results["M-SYM"].per_n) >= 7
          and r.ms <= 120_000)
    _report(2, "matching/permutation quadruple identity to n=7 with symmetry", ok)


def test_criterion_3_trace_distribution(suite):
    results, _ = suite
    ok = _all_pass(results, ["TRACE-RISING"], min_n=7) \
        and _all_pass(results, ["STIRLING1-ID"], min_n=7)
    _report(3, "trace distribution equals the step-2 rising factorial to n=7", ok)


def test_criterion_4_egf_checks(suite):
    results, _ = suite
    ok = all(results[c].status == "pass" and results[c].max_n >= 8
             for c in ("A-EGF", "M-EGF", "CALLAN-EGF"))
    _report(4, "EGF identities through z^8 at the sampled points", ok)


def test_criterion_5_corollaries(suite):
    results, _ = suite
    ok = (_all_pass(results, ["CONV", "COR2", "M-GAMMA", "DNK", "COLORED"], min_n=6)
          and _all_pass(results, ["DER-COUNT"], min_n=6)
          and _all_pass(results, ["B-MAIN", "B-DUAL"], min_n=5))
    _report(5, "convolution/specialization corollaries (n<=5 signed, n<=6 others)", ok)


def test_criterion_6_xi_structures(suite):
    results, _ = suite
    ok = (results["C-EPOS"].status == "pass"
          and _all_pass(results, ["XI-TREE", "XI-GAMMA", "GAMMA-TREE"], min_n=7))
    _report(6, "xi expansion, tree censuses to n=7, index bijection", ok)


def test_criterion_7_correspondences(suite):
    results, _ = suite
    ok = (_all_pass(results, ["MP-BIJ", "I-STATS", "KZ-SYM", "KLAZAR-SYM",
                              "SIX-EULERIAN"], min_n=6)
          and _all_pass(results, ["COUNT-LNE-FACT", "COUNT-CATALAN",
                                  "COUNT-NARAYANA"], min_n=7))
    _report(7, "bijection, word statistics, six Eulerian forms, counts", ok)


def test_criterion_8_stirling_transforms(suite):
    results, elapsed = suite
    ids = ["Q-DUMONT", "Q-SYM", "Q-GRAMMAR", "Q-CHEN22", "C-Q-TRANSFORM",
           "Q-LNE", "Q-LRP", "NCA-RECU"]
    ok = _all_pass(results, ids, min_n=6) and elapsed <= 600
    _report(8, "second-order Eulerian identities to n>=6, suite <= 10 min", ok)


def test_criterion_9_property_suites():
    ok = True
    # polynomial ring axioms on a representative triple
    a, b, c = parse_poly("x + 2*y"), parse_poly("x*y - 1/2"), parse_poly("y^2 + z")
    ok &= (a + b) + c == a + (b + c)
    ok &= a * (b + c) == a * b + a * c
    ok &= a * b == b * a
    # Leibniz and linearity for a grammar derivative
    g = gr.stirling_word_grammar()
    ok &= gr.d_apply(g, a * b) == gr.d_apply(g, a) * b + a * gr.d_apply(g, b)
    ok &= gr.d_apply(g, a + b) == gr.d_apply(g, a) + gr.d_apply(g, b)
    # neighbor classification partitions [2n-1]
    for n in (2, 3):
        for w in wd.enumerate_words(n):
            sets = oracles.neighbor_classify(w)
            ok &= set().union(*sets) == set(range(1, 2 * n))
            ok &= sum(len(s) for s in sets) == 2 * n - 1
    # block classes partition the arcs two ways
    for n in (2, 3, 4):
        for m in mt.enumerate_matchings(n):
            bs = mt.block_stats(m)
            ok &= bs.fixb + bs.elblock + bs.olblock == n
            ok &= bs.esblock == n - bs.fixb - bs.elblock
    # psi/psi1/psi2 generate M_{n+1} bijectively and reduce_step inverts them
    for n in (1, 2, 3):
        seen = {}
        for m in mt.enumerate_matchings(n):
            images = [(oracles.extend_psi(m), "psi", m)]
            for arc in m:
                images.append((oracles.extend_psi1(m, arc), "psi1", m))
                images.append((oracles.extend_psi2(m, arc), "psi2", m))
            for image, tag, source in images:
                ok &= image not in seen
                seen[image] = True
                ok &= oracles.reduce_step(image) == (source, tag)
        ok &= len(seen) == oracles.double_factorial(2 * n + 1)
    _report(9, "ring axioms, derivation rules, partitions, generation bijectivity", bool(ok))


def test_criterion_10_fault_injection(monkeypatch):
    chordlab.clear_caches()
    real = wd.neighbor_classify

    def flipped(w):
        cls = real(w)
        return wd.NeighborClassification(lne=cls.lcr, lcr=cls.lne, nal=cls.nal,
                                         rrp=cls.rrp, lrp=cls.lrp)

    monkeypatch.setattr(wd, "neighbor_classify", flipped)
    chordlab.clear_caches()
    results = run_checks(["MP-BIJ", "SIX-EULERIAN", "C-Q-TRANSFORM"], max_n=3)
    failing = [r for r in results if r.status == "fail"]
    ok = bool(failing) and all(r.witness for r in failing)
    monkeypatch.undo()
    chordlab.clear_caches()
    _report(10, "a perturbed statistic trips a named check with a witness", ok)
