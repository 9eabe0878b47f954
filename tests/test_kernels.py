"""Differential tests: every per-object kernel agrees with its reference
implementation in tests/oracles.py, object by object, over whole families
for n <= 6 and over random matchings up to n = 12."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd

SIZES = range(7)


def _start_ranks(total):
    return sorted({0, 1, total // 3, total // 2 + 1, total - 1, total, total + 5})


@pytest.mark.parametrize("n", SIZES)
def test_matching_stream_matches_the_sorting_enumerator(n):
    total = mt.double_factorial(2 * n - 1)
    for start in _start_ranks(total):
        assert list(mt.enumerate_matchings(n, start)) == list(
            oracles.enumerate_matchings(n, start))


@pytest.mark.parametrize("n", SIZES)
def test_stirling_stream_matches_the_reference(n):
    total = mt.double_factorial(2 * n - 1)
    for start in _start_ranks(total):
        assert list(st.enumerate_stirling(n, start)) == list(
            oracles.enumerate_stirling(n, start))


@pytest.mark.parametrize("n", SIZES)
def test_matching_kernels(n):
    for m in mt.enumerate_matchings(n):
        assert mt.block_stats(m) == oracles.block_stats(m), m
        assert mt.pairwise_stats(m) == oracles.pairwise_stats(m), m
        assert mt.trace_indices(m) == oracles.trace_indices(m), m


@pytest.mark.parametrize("n", SIZES)
def test_word_kernels(n):
    for w in wd.enumerate_words(n):
        assert wd.neighbor_classify(w) == oracles.neighbor_classify(w), w
        assert wd.word_stats(w) == oracles.word_stats(w), w


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


@hs.composite
def matchings(draw):
    """A uniformly shuffled pairing of [2n], n <= 12, in standard form."""
    n = draw(hs.integers(0, 12))
    order = draw(hs.permutations(range(1, 2 * n + 1)))
    return mt.standard_form(zip(order[::2], order[1::2]))


@settings(max_examples=300, deadline=None)
@given(matchings())
def test_kernels_on_random_matchings(m):
    mt.validate_matching(m)
    assert mt.block_stats(m) == oracles.block_stats(m)
    assert mt.pairwise_stats(m) == oracles.pairwise_stats(m)
    assert mt.trace_indices(m) == oracles.trace_indices(m)
    w = wd.from_matching(m)
    assert wd.to_matching(w) == m
    assert wd.neighbor_classify(w) == oracles.neighbor_classify(w)
    assert wd.word_stats(w) == oracles.word_stats(w)
