"""The census model: each family is walked once per n and kernel group, and
every projection renders exactly what the per-family tallies rendered
before it (golden corpus in tests/golden, captured from those tallies)."""
import collections
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import chordlab
from chordlab import census as census_module
from chordlab import checks, cli
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.census import TABLE, _CACHE, census
from chordlab.checks import run_checks

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


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


def _caches(module) -> set:
    """The names of the memoized functions of `module`."""
    return {name for name, value in vars(module).items() if hasattr(value, "cache_info")}


def test_suite_walks_each_family_once_per_n(walks):
    results = run_checks("all", max_n=5, egf_order=5)
    assert all(r.status == "pass" for r in results)
    assert walks, "no enumerator was called"
    assert {key: c for key, c in walks.items() if c > 1} == {}
    assert _caches(mt) == {"m_poly", "i_poly"}  # no cache in matchings holds matchings


def test_block_group_streams_m7_once_without_pairwise_stats(walks, monkeypatch):
    def forbidden(m):
        raise AssertionError("the block census must not call pairwise_stats")

    monkeypatch.setattr(mt, "pairwise_stats", forbidden)
    assert mt.trace_distribution(7).evaluate({"q": 1}) == 135135
    assert mt.m_poly(7).evaluate({"x": 1, "y": 1, "s": 1, "t": 1}) == 135135
    assert mt.count_even_to_odd_free(7) == 16717  # z^7 of sqrt(e^z/(2-e^z))
    assert walks[("enumerate_matchings", (7,))] == 1
    assert _caches(mt) == {"m_poly", "i_poly"}  # no cache in matchings holds matchings


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


def test_reading_one_census_walks_its_declared_group(walks, monkeypatch):
    """Inside a run, the first read of any census of M_5 walks M_5 once for
    all five, computing each matching's word, pairwise statistics, neighbor
    classes and word statistics once for every census that reads them, the
    bij kernel included."""
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(arg):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(module, name, wrapper)

    shared = ((wd, "from_matching"), (mt, "pairwise_stats"),
              (wd, "neighbor_classify"), (wd, "word_stats"))
    for module, name in shared:
        counted(module, name)
    group = [(name, 5) for name in ("block", "pair", "neighbor", "word", "bij")]
    with census_module.sharded(1, group):
        census("word", 5)
        assert walks == {("enumerate_matchings", (5,)): 1}
        assert calls == {name: 945 for _, name in shared}
        assert all(key in _CACHE for key in group)
        assert census("neighbor", 5) == collections.Counter(
            map(wd.neighbor_classify, wd.enumerate_words(5)))
    assert walks == {("enumerate_matchings", (5,)): 2}  # the reference above


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
SIZED = {"block": 5, "pair": 5, "neighbor": 5, "word": 5, "bij": 5, "perm": 5,
         "signed": 4, "stirling": 5}


def test_every_census_but_tree_has_a_size():
    assert {name for name in TABLE if census_module.size((name, 1))} == set(SIZED)
    assert census_module.size(("tree", 7, 2)) == 0


@pytest.mark.parametrize("name", sorted(SIZED))
def test_size_counts_the_stream(name):
    module, stream = TABLE[name][0].split(".")
    stream = getattr(getattr(chordlab, module), stream)
    assert [census_module.size((name, n)) for n in range(SIZED[name] + 1)] == [
        sum(1 for _ in stream(n)) for n in range(SIZED[name] + 1)]


@settings(max_examples=40, deadline=None)
@given(hs.sampled_from(sorted(SIZED)), hs.data())
def test_shards_merged_in_order_are_the_census(name, data):
    # A group of censuses of one stream, cut anywhere, empty ranges included:
    # each range walked apart and the counts added in rank order, as a
    # sharded group merges them, give each census as its own walk does,
    # item for item, key order included.
    same = [other for other in sorted(SIZED) if TABLE[other][0] == TABLE[name][0]]
    names = [name, *data.draw(hs.lists(hs.sampled_from(same), unique=True))]
    n = data.draw(hs.integers(0, min(SIZED[other] for other in names)))
    keys = [(other, n) for other in dict.fromkeys(names)]
    size = census_module.size(keys[0])
    cuts = data.draw(hs.lists(hs.integers(0, size), max_size=3))
    bounds = [0, *sorted(cuts), size]
    merged = [collections.Counter() for _ in keys]
    for lo, hi in zip(bounds, bounds[1:]):
        for total, part in zip(merged, census_module._walk(keys, lo, hi)):
            total.update(part)
    assert [list(total.items()) for total in merged] == [
        list(census_module._walk([key])[0].items()) for key in keys]


@pytest.mark.parametrize("bounds", [(3, 3), (6, 6)])
def test_every_check_reads_what_it_declares(bounds, monkeypatch):
    # Each check from cold caches, with census traced wherever it is bound.
    read = []

    def traced(name, *args):
        read.append((name, *args))
        return census(name, *args)

    binders = [module for name, module in list(sys.modules.items())
               if name.startswith("chordlab") and getattr(module, "census", None) is census]
    assert {module.__name__ for module in binders} >= {
        "chordlab.checks", "chordlab.matchings", "chordlab.perms", "chordlab.stirling",
        "chordlab.words"}
    for module in binders:
        monkeypatch.setattr(module, "census", traced)
    wrong = {}
    try:
        for check in checks._REGISTRY.values():
            chordlab.clear_caches()
            read.clear()
            assert checks._run_single(check.id, *bounds).status == "pass"
            if list(dict.fromkeys(read)) != check.reads(*bounds):
                wrong[check.id] = (list(dict.fromkeys(read)), check.reads(*bounds))
    finally:
        chordlab.clear_caches()
    assert wrong == {}


def _runs(ns) -> str:
    """1, 2, 3, 5 as "1-3, 5"."""
    runs = []
    for n in sorted(ns):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in runs)


def reads_table() -> list:
    """The README's check x census table: the n each check reads of each
    census at the default bounds (for trees, with the degree bound d)."""
    lines = ["| check | " + " | ".join(f"`{name}`" for name in TABLE) + " |",
             "|-------|" + "|".join("-" * (len(name) + 2) for name in TABLE) + "|"]
    for check in checks._REGISTRY.values():
        keys = check.reads(check.default_max_n, checks.DEFAULT_EGF_ORDER)
        cells = []
        for name in TABLE:
            by_rest = collections.defaultdict(list)
            for key in keys:
                if key[0] == name:
                    by_rest[key[2:]].append(key[1])
            cells.append("; ".join(_runs(ns) + "".join(f" (d={d})" for d in rest)
                                   for rest, ns in by_rest.items()))
        lines.append(f"| {check.id} | " + " | ".join(cells) + " |")
    return lines


def test_readme_table_of_reads_is_the_declared_one():
    lines = README.read_text(encoding="utf-8").splitlines()
    table = reads_table()
    start = lines.index(table[0])
    assert lines[start:start + len(table) + 1] == [*table, ""]


if __name__ == "__main__":
    # Print the README's check x census table from the declared reads.
    print("\n".join(reads_table()))
