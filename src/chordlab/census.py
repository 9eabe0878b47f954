"""The census table: every enumerated {statistic key: count} tally.

A census makes one streaming pass over a family and tallies the key one
statistic kernel returns per object, on the object or values computed from
it, such as its word.  The censuses a run declares (`sharded(k, reads)`)
are grouped by stream and arguments, and the first read of one walks its
whole group in one pass, computing each value once per object for every
census that reads it.  Any other read walks its census alone, computing all
its inputs, and so does the census being read when its group walk raises.
`sharded` also cuts each group of at least SHARD_MIN objects into up to k
rank ranges (shards), no more than the CPUs, and forks one child per shard
at once, at a lower priority than the parent.  The first read of the group
adds the children's censuses up in rank order, so each census equals the
serial one, key order too.  A shard that does not deliver its censuses (a
refused fork, or a child that raised, was killed or exited nonzero) is a
group walk that raised: the census is walked alone in the parent, and a
refused fork forks nothing more in that run.
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


_M = "matchings.enumerate_matchings"
# A node is ("module.function", argument nodes), where None is the streamed
# object.  name -> (stream, node, size): the census tallies its node over the
# family stream(*args), and size(*args) counts the objects; only `size` reads
# it.  Functions are looked up in chordlab when a walk starts, so a
# monkeypatched kernel reaches every census.
_WORD = ("words.from_matching", (None,))
_PAIR = ("matchings.pairwise_stats", (None,))
_CLASSES = ("words.neighbor_classify", (_WORD,))
_WORD_STATS = ("words.word_stats", (_WORD,))
TABLE = {
    "block": (_M, ("matchings._block_key", (None,)), _odd_double_factorial),
    "pair": (_M, _PAIR, _odd_double_factorial),
    "neighbor": (_M, _CLASSES, _odd_double_factorial),
    "word": (_M, _WORD_STATS, _odd_double_factorial),
    "bij": (_M, ("checks._bij_fault", (None, _WORD, _PAIR, _CLASSES, _WORD_STATS)),
            _odd_double_factorial),
    "perm": ("perms.enumerate_permutations", ("perms.perm_stats", (None,)), math.factorial),
    "signed": ("perms.enumerate_signed", ("perms.signed_stats", (None,)),
               lambda n: 2 ** n * math.factorial(n)),
    "stirling": ("stirling.enumerate_stirling", ("stirling.stirling_word_stats", (None,)),
                 _odd_double_factorial),
    "tree": ("stirling.enumerate_trees", ("stirling.tree_degree_histogram", (None,)), None),
}

# A group of fewer objects is walked in one pass, and one of n objects gets
# at most n // SHARD_MIN + 1 shards: a fork costs more than a short walk.
SHARD_MIN = 30_000
_CHUNK = 1024  # objects a walk takes at once, for Counter.update to count in C

_CACHE: dict[tuple, Counter] = {}  # (name, *args) -> census
_GROUPS: dict[tuple, tuple] = {}  # a declared uncached key -> its group
_SHARDS: dict[tuple, list] = {}  # a group's first key -> its shards' child pids, until read
_CHILDREN: dict = {}  # pid of a child not yet reaped -> the read end of its pipe


def size(key: tuple) -> int:
    """The object count of census `key`; 0 for an unsized one, never sharded."""
    count = TABLE[key[0]][2]
    return count(*key[1:]) if count else 0


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@contextlib.contextmanager
def sharded(k: int, reads=()):
    """Group the uncached censuses in `reads` by stream and arguments, cut
    every large group into up to k shards, no more than the CPUs, and fork
    one child per shard to walk it at once.  Every child is killed if
    still walking, and reaped, before this exits."""
    jobs = min(k, _cpus()) if hasattr(os, "fork") else 1
    try:
        walks: dict[tuple, list] = {}  # stream and arguments -> keys, in first-read order
        for key in dict.fromkeys(key for key in reads if key not in _CACHE):
            walks.setdefault((TABLE[key[0]][0], *key[1:]), []).append(key)
        for group in map(tuple, walks.values()):
            _GROUPS.update(dict.fromkeys(group, group))
            objects = size(group[0])
            cut = min(jobs, objects // SHARD_MIN + 1)
            if cut > 1:
                bounds = [objects * i // cut for i in range(cut + 1)]
                try:
                    _SHARDS[group[0]] = [_fork(group, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
                except OSError:  # no fork: this group and every later one walk serially
                    jobs = 1
        yield
    finally:
        for pid, pipe in _CHILDREN.items():
            import signal  # only a run with children alive pays for it
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        for state in (_CHILDREN, _SHARDS, _GROUPS):
            state.clear()


def census(name: str, *args) -> Counter:
    """The census `name` of the family `stream(*args)`, walked with its
    group on first use.  Callers must not mutate the result."""
    key = (name, *args)
    if key not in _CACHE:
        group = [k for k in _GROUPS.get(key, (key,)) if k not in _CACHE]
        children = _SHARDS.pop(group[0], None)
        try:
            counts = _walk(group) if children is None else _merge(group, children)
        except Exception:  # a kernel raised or a shard failed: walk the census alone
            group, counts = [key], _walk([key])
        _CACHE.update(zip(group, counts))
    return _CACHE[key]


def _function(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), attr)


def _walk(keys, lo: int = 0, hi: int | None = None) -> list:
    """The census of each key in `keys`, all of one stream and arguments,
    over ranks lo..hi-1 of the stream, or over all of it, in one pass that
    computes each node the keys read once per object."""
    stream, args = _function(TABLE[keys[0][0]][0]), keys[0][1:]
    objects = stream(*args) if hi is None else islice(stream(*args, lo), hi - lo)
    tallies = [(TABLE[name][1], Counter()) for name, *_ in keys]
    functions: dict = {}  # node -> its function, each after its arguments

    def add(node):
        if node is not None and node not in functions:
            for arg in node[1]:
                add(arg)
            functions[node] = _function(node[0])

    for node, _ in tallies:
        add(node)
    while chunk := list(islice(objects, _CHUNK)):
        values = {None: chunk}
        for node, function in functions.items():
            values[node] = list(map(function, *(values[arg] for arg in node[1])))
        for node, count in tallies:
            count.update(values[node])
    return [count for _, count in tallies]


def _merge(keys, children: list) -> list:
    """The censuses of `keys`, cut into shards walked by `children`, each
    added up in rank order once its child's pipe is read to its end and the
    child reaped.  The child writes only once its walk is over, so the read
    waits for the walk, then for the pickle, which may take more than one
    pipe buffer.  A child that did not exit 0 raises ChildProcessError at
    once, without waiting for the others."""
    import pickle
    total = [Counter() for _ in keys]
    for pid in children:
        with _CHILDREN[pid] as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del _CHILDREN[pid]
        if status:
            raise ChildProcessError(f"census shard process exited with {status}")
        for count, more in zip(total, pickle.loads(data)):
            count.update(more)
    return total


def _fork(keys, lo: int, hi: int) -> int:
    """Start a child on ranks lo..hi-1 of the walk of `keys` and return its
    pid.  The child lowers its priority, so the parent's checks keep their
    CPU, writes nothing to its pipe until its walk is over, then pickles its
    list of censuses into the pipe and exits 0; on any failure it exits 1
    with the pipe unfinished.  It always leaves by os._exit, so nothing the
    parent buffered or registered runs twice."""
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
            os.close(read)
            for pipe in _CHILDREN.values():
                pipe.close()  # so a write fails, not blocks, if the parent is gone
            os.nice(10)
            with open(write, "wb") as pipe:
                pickle.dump(_walk(keys, lo, hi), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    _CHILDREN[pid] = open(read, "rb")
    return pid
