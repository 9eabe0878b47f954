"""Differential tests: every kernel agrees with its reference
implementation in tests/oracles.py.  Per-object kernels are compared object
by object over whole families for n <= 6 (trees for n <= 8) and over
random matchings up to n = 12; the grammar derivative over every named
grammar and over random rational grammars; the xi/gamma tables entry by
entry up to order 80."""
import pickle
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import oracles
from chordlab import grammar as gr
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.algebra import MVPoly, parse_poly
from chordlab.census import census

SIZES = range(7)


def _start_ranks(total):
    return sorted({0, 1, total // 3, total // 2 + 1, total - 1, total, total + 5})


@pytest.mark.parametrize("n", SIZES)
def test_matching_stream_matches_the_sorting_enumerator(n):
    total = oracles.double_factorial(2 * n - 1)
    for start in _start_ranks(total):
        assert list(mt.enumerate_matchings(n, start)) == list(
            oracles.enumerate_matchings(n, start))


@pytest.mark.parametrize("n", SIZES)
def test_stirling_stream_matches_the_reference(n):
    total = oracles.double_factorial(2 * n - 1)
    for start in _start_ranks(total):
        assert list(st.enumerate_stirling(n, start)) == list(
            oracles.enumerate_stirling(n, start))


@pytest.mark.parametrize("n", SIZES)
def test_signed_stream_matches_the_sorted_reference(n):
    full = oracles.enumerate_signed(n)
    for start in _start_ranks(len(full)):
        assert list(pm.enumerate_signed(n, start)) == full[start:]


@pytest.mark.parametrize("n", SIZES)
def test_matching_kernels(n):
    for m in mt.enumerate_matchings(n):
        assert mt.block_stats(m) == oracles.block_stats(m), m
        assert mt.pairwise_stats(m) == oracles.pairwise_stats(m), m
        assert mt.trace_indices(m) == oracles.trace_indices(m), m


def _class_sizes(w):
    return tuple(map(len, oracles.neighbor_classify(w)))


@pytest.mark.parametrize("n", SIZES)
def test_word_kernels(n):
    for w in wd.enumerate_words(n):
        assert wd.neighbor_classify(w) == _class_sizes(w), w
        assert wd.word_stats(w) == oracles.word_stats(w), w


@pytest.mark.parametrize("n", SIZES)
def test_neighbor_census_tallies_the_class_sizes(n):
    assert census("neighbor", n) == Counter(map(_class_sizes, wd.enumerate_words(n)))


@pytest.mark.parametrize("n", SIZES)
def test_permutation_kernels(n):
    for pi in pm.enumerate_permutations(n):
        assert pm.perm_stats(pi) == oracles.perm_stats(pi), pi


@pytest.mark.parametrize("n", SIZES)
def test_signed_kernel(n):
    for sigma in pm.enumerate_signed(n):
        assert pm.signed_stats(sigma) == oracles.signed_stats(sigma), sigma


@pytest.mark.parametrize("n", range(6))
def test_oneline_stats_on_signed_permutations(n):
    for sigma in pm.enumerate_signed(n):
        assert pm.oneline_stats(sigma) == oracles.signed_oneline_stats(sigma), sigma


@pytest.mark.parametrize("n", SIZES)
def test_stirling_kernel(n):
    for word in st.enumerate_stirling(n):
        assert st.stirling_word_stats(word) == oracles.stirling_word_stats(word), word


def test_records_keep_their_field_names():
    m = ((2, 3), (1, 4))
    assert mt.block_stats(m)._asdict() == {
        "fixb": 0, "elblock": 1, "olblock": 1, "esblock": 1, "osblock": 1,
        "even_to_odd": 1}
    assert mt.pairwise_stats(m).ne == 1
    assert wd.word_stats(wd.from_matching(m)) == wd.WordStats(inv=1, coinv=0, rank=0)


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_tree_stream_and_text_match_the_recursive_reference(n, degree):
    trees = list(st.enumerate_trees(n, degree))
    assert trees == list(oracles.enumerate_trees(n, degree))
    assert all(type(kids) is tuple for tree in trees for kids in tree)
    assert list(map(st.tree_text, trees)) == list(map(oracles.tree_text, trees))


@pytest.mark.parametrize("n, degree, message", [
    (0, 3, "n must be positive"), (3, 4, "max_degree must be 2 or 3")])
def test_tree_stream_rejects_bad_arguments(n, degree, message):
    for stream in (st.enumerate_trees, oracles.enumerate_trees):
        with pytest.raises(ValueError, match=message):
            next(stream(n, degree))


# (kernel, its record class, the class's field names, the objects it reads)
RECORD_KERNELS = [
    (mt.block_stats, mt.BlockStats,
     ("fixb", "elblock", "olblock", "esblock", "osblock", "even_to_odd"),
     lambda: mt.enumerate_matchings(5)),
    (mt.pairwise_stats, mt.PairStats,
     ("cr", "ne", "al", "lne", "lcr", "nal", "lrp", "rrp"),
     lambda: mt.enumerate_matchings(5)),
    (wd.neighbor_classify, wd.NeighborClassification,
     ("lne", "lcr", "nal", "rrp", "lrp"), lambda: wd.enumerate_words(5)),
    (wd.word_stats, wd.WordStats, ("inv", "coinv", "rank"),
     lambda: wd.enumerate_words(5)),
    (pm.perm_stats, pm.PermStats,
     ("exc", "drop", "fix", "cyc", "asc", "des", "inv", "cda", "dd"),
     lambda: pm.enumerate_permutations(6)),
    (pm.signed_stats, pm.SignedStats,
     ("wexc", "exc_B", "drop_B", "fix_B", "single", "cyc_B"),
     lambda: pm.enumerate_signed(4)),
]


@pytest.mark.parametrize("kernel, cls, fields, objects", RECORD_KERNELS,
                         ids=[k.__name__ for k, *_ in RECORD_KERNELS])
def test_records_built_without_the_constructor_are_whole_records(
        kernel, cls, fields, objects):
    """Kernels build their records with tuple.__new__; each is still an
    instance of its class that equals one built by the constructor, and
    survives the pickling that carries shard results between processes."""
    assert cls._fields == fields
    for obj in objects():
        r = kernel(obj)
        assert type(r) is cls, obj
        assert r == cls(*r), obj
        assert r._fields == fields, obj
        assert pickle.loads(pickle.dumps(r)) == r, obj


@hs.composite
def matchings(draw):
    """A uniformly shuffled pairing of [2n], n <= 12, in standard form."""
    n = draw(hs.integers(0, 12))
    order = draw(hs.permutations(range(1, 2 * n + 1)))
    return oracles.standard_form(zip(order[::2], order[1::2]))


@settings(max_examples=300, deadline=None)
@given(matchings())
def test_kernels_on_random_matchings(m):
    oracles.validate_matching(m)
    assert mt.block_stats(m) == oracles.block_stats(m)
    assert mt.pairwise_stats(m) == oracles.pairwise_stats(m)
    assert mt.trace_indices(m) == oracles.trace_indices(m)
    w = wd.from_matching(m)
    assert wd.to_matching(w) == m
    assert wd.neighbor_classify(w) == _class_sizes(w)
    assert wd.word_stats(w) == oracles.word_stats(w)


GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "grammars"
FILE_SEEDS = {"matching.g": "J", "neighbor.g": "I*y2*E", "quadruple.g": "I"}
NAMED_GRAMMARS = [
    (gr.dumont_grammar, "a"), (gr.quadruple_statistic_grammar, "I"),
    (gr.matching_statistic_grammar, "J"), (gr.neighbor_grammar, "I*y2*E"),
    (gr.stirling_word_grammar, "x"), (gr.esym_w_grammar, "a"),
    (gr.esym_uvw_grammar, "w"),
]


def _named_grammars():
    """(builder, seed) params: a rule file is read only when its test runs,
    so a tree without the rule files fails those tests alone."""
    for build, seed in NAMED_GRAMMARS:
        yield pytest.param(build, seed, id=build.__name__)
    for name, seed in FILE_SEEDS.items():
        yield pytest.param(lambda name=name: gr.parse_grammar((GRAMMAR_DIR / name).read_text()),
                           seed, id=name)


def test_every_grammar_file_is_covered():
    assert sorted(p.name for p in GRAMMAR_DIR.glob("*.g")) == sorted(FILE_SEEDS)


def _check_derivatives(g, seed, steps):
    """D^n(seed) and one step from it agree with the oracle for n <= steps."""
    ref = seed
    for n in range(steps + 1):
        assert gr.d_iter(g, seed, n) == ref, n
        step = oracles.d_apply(g, ref)
        assert gr.d_apply(g, ref) == step, n
        ref = step


@pytest.mark.parametrize("build, seed", _named_grammars())
def test_grammar_derivative(build, seed):
    _check_derivatives(build(), parse_poly(seed), 10)


VARIABLES = "abcd"
fractions = hs.builds(Fraction, hs.integers(-4, 4), hs.integers(1, 3))
monomials = hs.dictionaries(hs.sampled_from(VARIABLES + "e"), hs.integers(1, 3),
                            max_size=3).map(lambda d: tuple(sorted(d.items())))
polys = hs.dictionaries(monomials, fractions, max_size=4).map(MVPoly)
rules = hs.one_of(polys, hs.just(MVPoly.zero()))  # v -> 0 among random rules
grammars = hs.dictionaries(hs.sampled_from(VARIABLES), rules,
                           max_size=len(VARIABLES))


@settings(max_examples=200, deadline=None)
@given(grammars, polys)
@example(gr.parse_grammar("a -> a\nb -> -b"), parse_poly("a*b"))  # D(ab) = 0
@example(gr.parse_grammar("a -> b*c - c*b\nb -> 2/3*a"), parse_poly("a^2*b + c"))
@example(gr.parse_grammar("a -> 1/2*b - c\nb -> 0\nc -> 3"), parse_poly("2/3*a^2*e - 5"))
@example(gr.parse_grammar("a -> a*b"), MVPoly.const(Fraction(7, 2)))
@example(gr.parse_grammar("a -> a*b"), MVPoly.zero())
def test_grammar_derivative_on_random_grammars(g, seed):
    _check_derivatives(g, seed, 3)


def test_tables_match_the_tuple_keyed_recurrences():
    for n in range(1, 81):
        # list equality: the same entries in the same key order
        assert list(st.xi_table(n).items()) == list(oracles.xi_table(n).items()), n
        assert list(st.gamma_table(n).items()) == list(oracles.gamma_table(n).items()), n
