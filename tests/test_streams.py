"""Restartable enumeration streams: a stream started at rank r is the full
stream's suffix from r, so contiguous rank shards recombine into it."""
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from chordlab import census as census_module
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd

STREAMS = {
    "matchings": (mt.enumerate_matchings, 5),
    "words.words": (wd.words, 6),
    "perms": (pm.enumerate_permutations, 5),
    "signed": (pm.enumerate_signed, 4),
    "stirling": (st.enumerate_stirling, 5),
}


@lru_cache(maxsize=None)
def _full(family: str, n: int) -> list:
    return list(STREAMS[family][0](n))


@hs.composite
def _family_and_n(draw):
    family = draw(hs.sampled_from(sorted(STREAMS)))
    return family, draw(hs.integers(0, STREAMS[family][1]))


@settings(max_examples=60, deadline=None)
@given(_family_and_n(), hs.data())
def test_restart_is_the_suffix(family_n, data):
    family, n = family_n
    full = _full(family, n)
    rank = data.draw(hs.integers(0, len(full) + 2))
    assert list(STREAMS[family][0](n, rank)) == full[rank:]


@settings(max_examples=60, deadline=None)
@given(_family_and_n(), hs.data())
def test_contiguous_shards_recombine(family_n, data):
    family, n = family_n
    full = _full(family, n)
    cuts = data.draw(hs.lists(hs.integers(0, len(full)), max_size=4))
    bounds = [0, *sorted(cuts), len(full)]
    shards = [list(itertools.islice(STREAMS[family][0](n, lo), hi - lo))
              for lo, hi in zip(bounds, bounds[1:])]
    assert [obj for shard in shards for obj in shard] == full


@pytest.mark.parametrize("family", sorted(STREAMS))
@pytest.mark.parametrize("n", [0, 2])
def test_negative_start_rank_is_rejected(family, n):
    with pytest.raises(ValueError, match="start_rank must be nonnegative"):
        next(STREAMS[family][0](n, -1))


@pytest.mark.parametrize("stream,uncached", [(wd.words, wd.enumerate_words)])
def test_cached_streams_resume_above_the_cache(stream, uncached):
    rank = 100_000
    assert list(itertools.islice(stream(7, rank), 3)) == list(
        itertools.islice(uncached(7), rank, rank + 3))
    assert list(stream(7, 135_135)) == []


# Streams that `verify --jobs` resumes at shard starts (M_7, Q_7, B_6), each
# with the reference it must agree with.
SHARDED = {
    ("block", 7): (mt.enumerate_matchings, oracles.enumerate_matchings),
    ("stirling", 7): (st.enumerate_stirling, oracles.enumerate_stirling),
    ("signed", 6): (pm.enumerate_signed, oracles.enumerate_signed),
}


def _shard_starts(key, k, monkeypatch):
    """The start ranks of the shards `census.sharded(k, [key])` cuts `key`
    into, read off the forks it asks for, with none made and no census
    cached."""
    starts = []
    monkeypatch.setattr(census_module, "_cpus", lambda: k)
    monkeypatch.setattr(census_module, "_CACHE", {})
    monkeypatch.setattr(census_module, "_fork", lambda keys, lo, hi: starts.append(lo))
    with census_module.sharded(k, [key]):
        return starts


@pytest.mark.parametrize("key", sorted(SHARDED), ids="{0[0]}-{0[1]}".format)
def test_streams_resume_where_shards_start(key, monkeypatch):
    """The first 50 objects from every shard start of a 2-, 3- and 4-way
    cut, and from the multiple of 3 at or below each start and the two
    ranks after it: the matching walk writes its last three leaves out, and
    these ranks enter that group at each of its leaves."""
    stream, reference = SHARDED[key]
    starts = {lo for k in (2, 3, 4) for lo in _shard_starts(key, k, monkeypatch)}
    assert len(starts) > 1
    for rank in sorted({lo - lo % 3 + j for lo in starts for j in range(3)}):
        assert list(itertools.islice(stream(key[1], rank), 50)) == list(
            itertools.islice(reference(key[1], rank), 50)), rank
