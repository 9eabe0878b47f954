"""The census table: every enumerated {statistic key: count} tally.

A census makes one streaming pass over a family, calls one group of
statistic kernels per object and tallies the key it returns.  Every
polynomial family and every enumerated tally of the checks is a projection
of one of these, so each family is walked once per census and argument.

On entry, `sharded(k, reads)` cuts each uncached census in `reads` of at
least SHARD_MIN objects into up to k contiguous rank ranges (shards) and
queues them all, in order, and at most k forked children, and no more than
the usable CPUs, start walking shards from that queue.  The parent walks
every other census in one pass when it is first read.  Reading a queued
census, the parent walks its shards no child has started, waits for the
others and adds them up in rank order, so the result equals the serial
census, key order included.  The parent collects finished children, and
starts children for queued shards, whenever it enters `census` or `top_up`.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import os
from collections import Counter
from itertools import islice
from types import SimpleNamespace


def _odd_double_factorial(n: int) -> int:
    return math.prod(range(1, 2 * n, 2))


# name -> (module, stream, kernel, size), the first three attributes of
# chordlab.<module>.  Stream and kernel are looked up when a walk starts, so
# a monkeypatched kernel reaches it.  size(*args) counts the stream's
# objects; only `size` below reads it.
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
# A shard is ranks lo..hi-1 of census `key`: `pid` is the child's that walks
# it, `result` the counts or exception once walked.
_SHARDS: dict[tuple, list] = {}  # key -> its shards, while the census is queued
_QUEUE: list = []  # shards no process has started, in start order
_RUNNING: dict = {}  # read end of a child's pipe -> the shard it walks
_slots = 0  # children alive at once


def size(key: tuple) -> int:
    """The object count of census `key`; 0 for an unsized one, never sharded."""
    count = TABLE[key[0]][3]
    return count(*key[1:]) if count else 0


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@contextlib.contextmanager
def sharded(k: int, reads=()):
    """Queue the shards of every large uncached census in `reads`, each cut
    into up to k, and start walking them in up to k forked children but no
    more than the CPUs.  Every child is killed if still walking, and
    reaped, before this exits."""
    global _slots
    _slots = min(k, _cpus()) if hasattr(os, "fork") else 0
    try:
        for key in dict.fromkeys(reads):
            objects = size(key) if _slots and key not in _CACHE else 0
            cut = min(k, objects // SHARD_MIN + 1)
            if cut > 1:
                bounds = [objects * i // cut for i in range(cut + 1)]
                _SHARDS[key] = [SimpleNamespace(key=key, lo=lo, hi=hi, pid=None, result=None)
                                for lo, hi in zip(bounds, bounds[1:])]
                _QUEUE.extend(_SHARDS[key])
        top_up()
        yield
    finally:
        for fd, shard in _RUNNING.items():
            import signal  # only a run with children alive pays for it
            os.kill(shard.pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(shard.pid, 0)
        for state in (_RUNNING, _QUEUE, _SHARDS):
            state.clear()
        _slots = 0


def census(name: str, *args) -> Counter:
    """The census `name` of the family `stream(*args)`, walked on first use.

    Callers must not mutate the result.
    """
    key = (name, *args)
    top_up()
    if key not in _CACHE:
        shards = _SHARDS.pop(key, None)
        _CACHE[key] = _walk(key) if shards is None else _merge(shards)
    return _CACHE[key]


def _walk(key: tuple, lo: int = 0, hi: int | None = None) -> Counter:
    """Census `key` over ranks lo..hi-1 of its stream, or over all of it."""
    name, *args = key
    module, stream, kernel, _ = TABLE[name]
    module = importlib.import_module(f"{__package__}.{module}")
    stream, kernel = getattr(module, stream), getattr(module, kernel)
    return Counter(map(kernel, stream(*args) if hi is None
                       else islice(stream(*args, lo), hi - lo)))


def _merge(shards: list) -> Counter:
    """The census of `shards`, added up in rank order.  The parent walks
    each shard no child has started, then waits on the children's pipes,
    topping up meanwhile, until each shard's own child is collected; the
    exception of the lowest shard that met one is raised, as a serial walk
    meets it first."""
    import select
    _QUEUE[:] = [shard for shard in _QUEUE if shard.key != shards[0].key]
    for shard in shards:
        if shard.pid is None:
            try:
                shard.result = _walk(shard.key, shard.lo, shard.hi)
            except Exception as exc:
                shard.result = exc
                break
    total = Counter()
    for shard in shards:
        while shard.result is None:  # not its fd in _RUNNING: a new pipe reuses it
            select.select(list(_RUNNING), [], [])
            top_up()
        if isinstance(shard.result, BaseException):
            raise shard.result
        total.update(shard.result)
    return total


def top_up() -> None:
    """Collect every child whose pipe is readable, then start children for
    queued shards while fewer than the allowed number are alive."""
    if _RUNNING:
        import select
        for fd in select.select(list(_RUNNING), [], [], 0)[0]:
            _collect(fd)
    while _QUEUE and len(_RUNNING) < _slots:
        _fork(_QUEUE.pop(0))


def _fork(shard) -> None:
    """Start a child on the shard.  It writes nothing to its pipe until its
    walk is over, then pickles the census, or the exception that stopped
    it, into the pipe and always leaves by os._exit, so nothing the parent
    buffered or registered runs twice."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            import pickle  # only a sharded walk pays for it
            for fd in [read, *_RUNNING]:
                os.close(fd)  # so a write fails, not blocks, if the parent is gone
            try:
                part = _walk(shard.key, shard.lo, shard.hi)
            except BaseException as exc:
                part = exc
            with open(write, "wb") as pipe:
                pickle.dump(part, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    shard.pid = pid
    _RUNNING[read] = shard


def _collect(fd: int) -> None:
    """Read a readable pipe to its end, reap its child and unpickle.  The
    child writes only once its walk is over, so the read blocks only while
    the pickle is written, which may take more than one pipe buffer."""
    import pickle
    shard = _RUNNING.pop(fd)
    with open(fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(shard.pid, 0)
    shard.result = pickle.loads(data) if status == 0 else ChildProcessError(
        f"census shard process exited with {os.waitstatus_to_exitcode(status)}")
