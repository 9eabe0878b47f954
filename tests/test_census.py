"""The census model: each family is walked once per n and kernel group, and
every projection renders exactly what the per-family tallies rendered
before it (golden corpus in tests/golden, captured from those tallies)."""
import collections
import itertools
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import chordlab
from chordlab import census as census_module
from chordlab import cli
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.census import TABLE, _CACHE, census
from chordlab.checks import run_checks

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def walks(monkeypatch):
    """Count calls of each enumerator by (name, args), from fresh caches."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[(name, args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((mt, "enumerate_matchings"), (pm, "enumerate_permutations"),
                         (st, "enumerate_stirling"), (st, "enumerate_trees")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    chordlab.clear_caches()
    yield counts
    monkeypatch.undo()
    chordlab.clear_caches()


def test_suite_walks_each_family_once_per_n(walks):
    results = run_checks("all", max_n=5, egf_order=5)
    assert all(r.status == "pass" for r in results)
    assert walks, "no enumerator was called"
    assert {key: c for key, c in walks.items() if c > 1} == {}
    # M_0..M_6 are listed once; nothing larger is ever materialised
    assert mt._matching_list.cache_info().currsize <= 7


def test_block_group_streams_m7_once_without_pairwise_stats(walks, monkeypatch):
    def forbidden(m):
        raise AssertionError("the block census must not call pairwise_stats")

    monkeypatch.setattr(mt, "pairwise_stats", forbidden)
    assert mt.trace_distribution(7).evaluate({"q": 1}) == 135135
    assert mt.m_poly(7).evaluate({"x": 1, "y": 1, "s": 1, "t": 1}) == 135135
    assert mt.count_even_to_odd_free(7) == 16717  # z^7 of sqrt(e^z/(2-e^z))
    assert walks[("enumerate_matchings", (7,))] == 1
    assert mt._matching_list.cache_info().currsize <= 7


def _golden_polys():
    lines = (GOLDEN / "poly_n5.txt").read_text().splitlines()
    return [tuple(line.split("|", 1)) for line in lines]


def test_golden_corpus_covers_every_poly_name():
    assert set(cli._POLYS) == {"An", "Anxy", "Anpq", "dn", "Bn", "dBn", "Mn", "In",
                               "Cn", "NCA", "NCR", "Qn", "xi", "gamma"}
    assert sorted(name for name, _ in _golden_polys()) == sorted(cli._POLYS)


@pytest.mark.parametrize("name,expected", _golden_polys())
def test_poly_output_is_byte_identical(name, expected, capsys):
    assert cli.main(["poly", "--name", name, "--n", "5"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_verify_report_is_byte_identical_up_to_ms(capsys):
    assert cli.main(["verify", "--report", "json", "--max-n", "5",
                     "--egf-order", "5"]) == 0
    out = re.sub(r'"ms": \d+', '"ms": 0', capsys.readouterr().out)
    assert out == (GOLDEN / "verify_n5.json").read_text()


def test_word_censuses_share_one_word_list(monkeypatch):
    calls = collections.Counter()
    real = wd.from_matching

    def counted(m):
        calls[len(m)] += 1
        return real(m)

    monkeypatch.setattr(wd, "from_matching", counted)
    chordlab.clear_caches()
    try:
        census("neighbor", 5)
        census("word", 5)
        assert sum(calls.values()) == calls[5] == 945
    finally:
        monkeypatch.undo()
        chordlab.clear_caches()


def test_clear_caches_empties_every_cache():
    cached = [value for module in (mt, pm, st, wd) for value in vars(module).values()
              if hasattr(value, "cache_clear")]
    run_checks("all", max_n=3, egf_order=3)
    assert wd._symbol_pairs.cache_info().currsize > 0
    chordlab.clear_caches()
    assert {fn.__module__ + "." + fn.__name__: fn.cache_info().currsize
            for fn in cached if fn.cache_info().currsize} == {}
    assert _CACHE == {}


def test_every_table_entry_is_read():
    chordlab.clear_caches()
    try:
        run_checks("all", max_n=3, egf_order=3)
        assert {key[0] for key in _CACHE} == set(TABLE)
    finally:
        chordlab.clear_caches()


# Each sized entry at the largest n its shard property walks.
SIZED = {"block": 5, "pair": 5, "neighbor": 5, "word": 5, "perm": 5, "signed": 4,
         "stirling": 5}


def test_every_census_but_tree_has_a_size():
    assert {name for name, entry in TABLE.items() if entry[3]} == set(SIZED)


@pytest.mark.parametrize("name", sorted(SIZED))
def test_size_counts_the_stream(name):
    module, stream, _, size = TABLE[name]
    stream = getattr(getattr(chordlab, module), stream)
    assert [size(n) for n in range(SIZED[name] + 1)] == [
        sum(1 for _ in stream(n)) for n in range(SIZED[name] + 1)]


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from(sorted(SIZED)), hs.data())
def test_shards_merged_in_order_are_the_census(name, data):
    # Cut points anywhere, empty ranges included; every range but the first
    # is walked in a forked child.
    n = data.draw(hs.integers(0, SIZED[name]))
    module, stream, kernel, size = TABLE[name]
    module = getattr(chordlab, module)
    stream, kernel = getattr(module, stream), getattr(module, kernel)
    cuts = data.draw(hs.lists(hs.integers(0, size(n)), max_size=3))
    bounds = [0, *sorted(cuts), size(n)]
    merged = census_module._sharded(
        lambda lo, hi: collections.Counter(
            map(kernel, itertools.islice(stream(n, lo), hi - lo))), bounds)
    assert list(merged.items()) == list(census(name, n).items())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
