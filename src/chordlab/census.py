"""The census table: every enumerated {statistic key: count} tally.

A census makes one streaming pass over a family, calls one group of
statistic kernels per object and tallies the key it returns.  Every
polynomial family and every enumerated tally of the checks is a projection
of one of these, so each family is walked once per census and argument.
"""
from __future__ import annotations

import importlib
from collections import Counter

# name -> (module, stream, kernel), attributes of chordlab.<module>.  Both
# are looked up when a walk starts, so a monkeypatched kernel reaches it.
TABLE = {
    "block": ("matchings", "matchings", "_block_key"),
    "pair": ("matchings", "matchings", "pairwise_stats"),
    "neighbor": ("words", "words", "neighbor_classify"),
    "word": ("words", "words", "word_stats"),
    "perm": ("perms", "enumerate_permutations", "perm_stats"),
    "signed": ("perms", "enumerate_signed", "signed_stats"),
    "stirling": ("stirling", "enumerate_stirling", "stirling_word_stats"),
    "tree": ("stirling", "enumerate_trees", "tree_degree_histogram"),
}

_CACHE: dict[tuple, Counter] = {}  # (name, *args) -> census


def census(name: str, *args) -> Counter:
    """The census `name` of the family `stream(*args)`, walked on first use.

    Callers must not mutate the result.
    """
    key = (name, *args)
    if key not in _CACHE:
        module, stream, kernel = TABLE[name]
        module = importlib.import_module(f"{__package__}.{module}")
        _CACHE[key] = Counter(map(getattr(module, kernel), getattr(module, stream)(*args)))
    return _CACHE[key]
