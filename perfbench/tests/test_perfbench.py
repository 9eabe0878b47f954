"""Self-tests for the benchmark: span arithmetic, wrapper hygiene and the
output gate.  Run with ``python3 -m pytest perfbench/tests``."""
import json
from pathlib import Path

import chordlab
from chordlab import cli
from chordlab import matchings as mt
from chordlab import words as wd

import layers
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_enclosed_spans():
    rec = spans.Recorder(clock=_clock(0.0, 1.0, 4.0, 5.0, 5.25, 5.75, 6.0, 7.0, 7.5, 10.0))
    c = spans.wrap_call(rec, "c", lambda: None)          # 5.25 .. 5.75
    b = spans.wrap_call(rec, "b", lambda: c())           # 5.0 .. 6.0
    a = spans.wrap_call(rec, "a", lambda: None)          # 1.0 .. 4.0 and 7.0 .. 7.5

    def body():
        a()
        b()
        a()
    spans.wrap_call(rec, "outer", body)()                # 0.0 .. 10.0
    assert rec.buckets == {
        ("a", "outer"): [2, 3.5, 3.5],
        ("c", "b"): [1, 0.5, 0.5],
        ("b", "outer"): [1, 1.0, 0.5],
        ("outer", None): [1, 10.0, 5.5],
    }
    assert spans.by_name(rec.buckets) == {"a": [2, 3.5], "b": [1, 0.5], "c": [1, 0.5],
                             "outer": [1, 5.5]}
    assert rec.open == [[None, 10.0]]


def test_generator_resumes_are_spans_and_objects_are_counted():
    rec = spans.Recorder(clock=_clock(*[float(i) for i in range(10)]))

    def gen(n, start_rank=0):
        yield from range(start_rank, n)

    wrapped = spans.wrap_generator(rec, "gen", gen, "fam", layers._n_start)
    assert spans.wrap_call(rec, "consumer", lambda: list(wrapped(4, 1)))() == [1, 2, 3]
    # four resumes (three objects, then exhaustion) of 1 s each inside 9 s
    assert rec.buckets[("gen", "consumer")] == [4, 4.0, 4.0]
    assert rec.buckets[("consumer", None)] == [1, 9.0, 5.0]
    assert rec.walks == {("fam", "4"): [[1, 3]]}


def test_distinct_objects_merges_rank_ranges():
    assert spans.distinct_objects([[0, 10], [0, 10]]) == 10
    assert spans.distinct_objects([[0, 5], [5, 5]]) == 10
    assert spans.distinct_objects([[4, 6], [0, 6]]) == 10
    assert spans.distinct_objects([[3, 2], [20, 1]]) == 3
    assert spans.distinct_objects([]) == 0


def _bindings():
    """Identity of every attribute the wrappers could touch."""
    return {(id(owner), attr): value for owner in spans._owners("chordlab")
            for attr, value in vars(owner).items()}


def test_wrappers_keep_lru_cache_and_are_all_removed():
    chordlab.clear_caches()   # binds clear_caches' list of originals first
    before = _bindings()
    rec = spans.Recorder()
    patches, absent = spans.install(rec, layers.SPANS)
    try:
        assert absent == []
        assert mt.m_poly is not before[(id(mt), "m_poly")]
        chordlab.clear_caches()
        first = mt.m_poly(4)
        hits = mt.m_poly.cache_info().hits
        assert mt.m_poly(4) is first
        assert mt.m_poly.cache_info().hits == hits + 1
        assert sum(1 for _ in wd.enumerate_words(3)) == 15
    finally:
        spans.restore(patches)
    assert spans.unrestored(patches) == []
    assert _bindings() == before
    assert rec.walks[("words", "3")] == [[0, 15]]
    assert rec.walks[("matchings", "3")][-1] == [0, 15]
    assert spans.by_name(rec.buckets)["matchings.block_stats"][0] >= 105
    chordlab.clear_caches()


def test_removed_function_is_reported_absent():
    specs = [layers.Span("matchings.no_such_function", "matchings.tally"),
             layers.Span("algebra.MVPoly.no_such_method", "algebra.poly")]
    patches, absent = spans.install(spans.Recorder(), specs)
    assert patches == []
    assert absent == ["matchings.no_such_function", "algebra.MVPoly.no_such_method"]
    assert layers.span_metrics({}, {}, {})["matchings.block_stats_calls"] == 0


SMALL = run.Op("verify.json", ("verify", "--checks", "M-MAIN,M-SYM,CALLAN-EGF",
                               "--max-n", "4", "--egf-order", "5", "--report", "json",
                               "--out", "{out}"), report=True)


def _verify(out: Path) -> int:
    chordlab.clear_caches()
    return cli.main([a.replace("{out}", str(out)) for a in SMALL.args])


def test_perturbed_block_stats_drives_failed_ratio_above_zero(tmp_path, monkeypatch):
    seed_out = tmp_path / "seed.json"
    assert _verify(seed_out) == 0
    want = run.expectation(SMALL, seed_out)

    again = tmp_path / "again.json"
    rc = _verify(again)
    assert run.score(SMALL, rc, again, want)[:2] == (4, 0)

    real = mt.block_stats

    def misclassified(m):
        bs = real(m)
        return mt.BlockStats(fixb=bs.fixb, elblock=bs.elblock + bs.fixb,
                             olblock=bs.olblock, esblock=bs.esblock,
                             osblock=bs.osblock, even_to_odd=bs.even_to_odd)

    monkeypatch.setattr(mt, "block_stats", misclassified)
    bad = tmp_path / "bad.json"
    rc = _verify(bad)
    attempted, failed, problems = run.score(SMALL, rc, bad, want)
    monkeypatch.undo()
    chordlab.clear_caches()
    assert attempted == 4
    assert failed / attempted > 0
    assert any("M-MAIN" in p for p in problems)


def test_changed_stream_output_fails(tmp_path):
    op = run.WORKLOADS["stream"][0]
    out = tmp_path / "rows.csv"
    out.write_text("n,rank\n", encoding="utf-8")
    want = run.expectation(op, out)
    assert run.score(op, 0, out, want)[:2] == (1, 0)
    out.write_text("n,rank\n0,0\n", encoding="utf-8")
    assert run.score(op, 0, out, want)[:2] == (1, 1)
    assert run.score(op, 2, out, want)[:2] == (1, 1)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_norm_s", "cpu_norm_s", "peak_rss_mb", "setup_s"}
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for workload, ops in run.WORKLOADS.items():
        assert sorted(op.name for op in ops) == sorted(expected[workload])


def test_speed_samples_cover_their_share(monkeypatch):
    monkeypatch.setattr(run, "reference_loop", lambda: 0.1)
    refs = []
    run.sample_speed(refs, 0.0)
    assert refs == [0.1]
    run.sample_speed(refs, 0.35 / run.REFERENCE_SHARE)
    assert len(refs) == 1 + 4
