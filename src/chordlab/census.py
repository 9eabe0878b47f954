"""The census table: every enumerated {statistic key: count} tally.

A census makes one streaming pass over a family, calls one group of
statistic kernels per object and tallies the key it returns.  Every
polynomial family and every enumerated tally of the checks is a projection
of one of these, so each family is walked once per census and argument.

Inside `sharded(k)`, a census of at least SHARD_MIN objects is cut into up
to k contiguous rank ranges: the parent walks the first and a forked child
walks each other one.  The shard counts merged in rank order equal the
serial census, key order included.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import os
from collections import Counter
from itertools import islice


def _odd_double_factorial(n: int) -> int:
    return math.prod(range(1, 2 * n, 2))


# name -> (module, stream, kernel, size), the first three attributes of
# chordlab.<module>.  Stream and kernel are looked up when a walk starts, so
# a monkeypatched kernel reaches it.  size(*args) counts the stream's
# objects; a census without one is never sharded.
TABLE = {
    "block": ("matchings", "matchings", "_block_key", _odd_double_factorial),
    "pair": ("matchings", "matchings", "pairwise_stats", _odd_double_factorial),
    "neighbor": ("words", "words", "neighbor_classify", _odd_double_factorial),
    "word": ("words", "words", "word_stats", _odd_double_factorial),
    "perm": ("perms", "enumerate_permutations", "perm_stats", math.factorial),
    "signed": ("perms", "enumerate_signed", "signed_stats",
               lambda n: 2 ** n * math.factorial(n)),
    "stirling": ("stirling", "enumerate_stirling", "stirling_word_stats",
                 _odd_double_factorial),
    "tree": ("stirling", "enumerate_trees", "tree_degree_histogram", None),
}

# A census of fewer objects is walked in one pass, and one of n objects gets
# at most n // SHARD_MIN + 1 shards: a fork costs more than a short walk.
SHARD_MIN = 30_000

_CACHE: dict[tuple, Counter] = {}  # (name, *args) -> census
_shards = 1


@contextlib.contextmanager
def sharded(k: int):
    """Let every census walked inside cut itself into up to k shards."""
    global _shards
    previous, _shards = _shards, k
    try:
        yield
    finally:
        _shards = previous


def census(name: str, *args) -> Counter:
    """The census `name` of the family `stream(*args)`, walked on first use.

    Callers must not mutate the result.
    """
    key = (name, *args)
    if key not in _CACHE:
        module, stream, kernel, size = TABLE[name]
        module = importlib.import_module(f"{__package__}.{module}")
        stream, kernel = getattr(module, stream), getattr(module, kernel)
        objects = size(*args) if size and hasattr(os, "fork") else 0
        k = min(_shards, objects // SHARD_MIN + 1)
        if k > 1:
            _CACHE[key] = _sharded(
                lambda lo, hi: Counter(map(kernel, islice(stream(*args, lo), hi - lo))),
                [objects * i // k for i in range(k + 1)])
        else:
            _CACHE[key] = Counter(map(kernel, stream(*args)))
    return _CACHE[key]


def _sharded(walk, bounds: list) -> Counter:
    """walk(bounds[0], bounds[-1]) merged from the ranges between
    consecutive bounds, all but the first walked in forked children.  Every
    child is reaped before this returns or raises; an exception is raised
    from the lowest range that met one, as a serial walk meets it first."""
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(walk, lo, hi, read, write)
            os.close(write)
            children.append((pid, read))
        total = walk(bounds[0], bounds[1])
    finally:
        parts = [_reap(pid, read) for pid, read in children]
    for part in parts:
        if isinstance(part, BaseException):
            raise part
        total.update(part)
    return total


def _child(walk, lo: int, hi: int, read: int, write: int) -> None:
    """Walk ranks lo..hi-1 and pickle the census, or the exception that
    stopped it, into the pipe.  Always leaves by os._exit, so nothing the
    parent buffered or registered runs twice."""
    status = 1
    try:
        import pickle  # only a sharded walk pays for it
        os.close(read)  # so a write fails, not blocks, if the parent is gone
        try:
            part = walk(lo, hi)
        except BaseException as exc:
            part = exc
        with open(write, "wb") as pipe:
            pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read: int):
    """The child's census or exception, once it has exited."""
    import pickle
    with open(read, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        return ChildProcessError(
            f"census shard process exited with {os.waitstatus_to_exitcode(status)}")
    return pickle.loads(data)
