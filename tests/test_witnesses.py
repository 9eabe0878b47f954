"""The whole verify report, failing witnesses included, stays byte-stable.

The fault-injection tests assert only that some check fails with a witness.
Here all 45 checks run at max_n 4 and egf_order 5, clean and under each of
eighteen perturbations (the eleven those tests apply, four that reach
fields only a few checks read, and three on the algebra side, which reach
the checks that enumerate nothing), and every report entry (ms zeroed) is
compared with tests/golden/verify_faults_n4.json.

Regenerate the golden file (only when a witness is meant to change) with
    PYTHONPATH=src python tests/test_witnesses.py
"""
import json
from pathlib import Path

import pytest

import chordlab
from chordlab import checks
from chordlab import grammar as gr
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.checks import run_checks

GOLDEN = Path(__file__).parent / "golden" / "verify_faults_n4.json"
MAX_N, EGF_ORDER = 4, 5


def _flipped_lne_lcr(real):
    def flipped(w):
        c = real(w)
        return wd.NeighborClassification(
            lne=c.lcr, lcr=c.lne, nal=c.nal, rrp=c.rrp, lrp=c.lrp)
    return flipped


def _biased_nal(real):
    def biased(w):
        c = real(w)
        return wd.NeighborClassification(
            lne=c.lne, lcr=0, nal=c.nal + c.lcr, rrp=c.rrp, lrp=c.lrp)
    return biased


def _misclassified_block(real):
    def misclassified(m):
        bs = real(m)
        return mt.BlockStats(fixb=bs.fixb, elblock=bs.elblock + bs.fixb,
                             olblock=bs.olblock, esblock=bs.esblock,
                             osblock=bs.osblock, even_to_odd=bs.even_to_odd)
    return misclassified


def _no_final_zero(real):
    def stats(word):
        padded = (0,) + word
        asc = plat = des = 0
        for a, b in zip(padded, padded[1:]):
            if a < b:
                asc += 1
            elif a == b:
                plat += 1
            else:
                des += 1
        return asc, plat, des
    return stats


def _no_boundary_dd(real):
    def stats(pi):
        dd = sum(1 for i in range(1, len(pi) - 1) if pi[i - 1] > pi[i] > pi[i + 1])
        return real(pi)._replace(dd=dd)
    return stats


def _deg1_deg2_swapped(real):
    def swapped(tree):
        h0, h1, h2, h3 = real(tree)
        return h0, h2, h1, h3
    return swapped


def _gamma_plus_one(real):
    def table(n):
        t = real(n)
        first = next(iter(t))
        return {**t, first: t[first] + 1}
    return table


def _cycle_rule_changed(real):
    def build():
        return {**real(), "q": chordlab.MVPoly.var("p")}
    return build


# name -> (module, attribute, perturbation of the real function)
PERTURBATIONS = {
    "flipped-lne-lcr": (wd, "neighbor_classify", _flipped_lne_lcr),
    "biased-nal": (wd, "neighbor_classify", _biased_nal),
    "trace-minus-1": (mt, "trace_indices", lambda real: lambda m: real(m) - {1}),
    "fixb-as-elblock": (mt, "block_stats", _misclassified_block),
    "weak-excedance": (pm, "perm_stats",
                       lambda real: lambda pi: real(pi)._replace(
                           exc=real(pi).exc + real(pi).fix)),
    "no-final-zero": (st, "stirling_word_stats", _no_final_zero),
    "rank-plus-inv": (wd, "word_stats",
                      lambda real: lambda w: real(w)._replace(
                          rank=real(w).rank + real(w).inv)),
    "all-nestings-left": (mt, "pairwise_stats",
                          lambda real: lambda m: real(m)._replace(lne=real(m).ne)),
    "single-as-fix": (pm, "signed_stats",
                      lambda real: lambda s: real(s)._replace(
                          fix_B=real(s).fix_B + real(s).single, single=0)),
    "no-cda": (pm, "perm_stats", lambda real: lambda pi: real(pi)._replace(cda=0)),
    "no-boundary-dd": (pm, "perm_stats", _no_boundary_dd),
    "ne-into-cr": (mt, "pairwise_stats",
                   lambda real: lambda m: real(m)._replace(cr=real(m).cr + real(m).ne, ne=0)),
    "no-even-to-odd": (mt, "block_stats",
                       lambda real: lambda m: real(m)._replace(even_to_odd=0)),
    "cyc-plus-1": (pm, "perm_stats",
                   lambda real: lambda pi: real(pi)._replace(cyc=real(pi).cyc + 1)),
    "deg1-deg2-swapped": (st, "tree_degree_histogram", _deg1_deg2_swapped),
    "gamma-plus-1": (st, "gamma_table", _gamma_plus_one),
    # checks binds the name, so the perturbation goes where the checks read it
    "stirling1-k1-plus-1": (checks, "stirling1_unsigned",
                            lambda real: lambda n, k: real(n, k) + (k == 1)),
    "q-rule-changed": (gr, "quadruple_statistic_grammar", _cycle_rule_changed),
}
CASES = ["clean", *PERTURBATIONS]


def _report(case, monkeypatch):
    if case != "clean":
        module, name, perturb = PERTURBATIONS[case]
        monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    chordlab.clear_caches()
    try:
        results = run_checks(max_n=MAX_N, egf_order=EGF_ORDER)
    finally:
        monkeypatch.undo()
        chordlab.clear_caches()
    return [dict(r._asdict(), ms=0) for r in results]


@pytest.mark.parametrize("case", CASES)
def test_report_matches_the_golden_file(case, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == CASES
    assert _report(case, monkeypatch) == golden[case]


if __name__ == "__main__":
    patcher = pytest.MonkeyPatch()
    lines = []
    for case in CASES:
        rows = ",\n".join("    " + json.dumps(row) for row in _report(case, patcher))
        lines.append(f"  {json.dumps(case)}: [\n{rows}\n  ]")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
