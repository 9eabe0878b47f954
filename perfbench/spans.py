"""Outside-in span recording for the chordlab benchmark.

Wrappers are installed by module attribute, the same way the fault-injection
tests reach ``mt.block_stats``; nothing under ``src/`` changes.  Every call
is aggregated into a (name, parent) bucket holding a call count, total time
and self time, so the millions of per-object kernel calls of a suite run
cost one dict update each instead of one stored span each.

Self time is a span's duration minus the time of the wrapped spans it
directly encloses.  Generators are timed per resume, so an enumerator's
self time is the time spent producing objects, not the consumer's time
between them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass


class Recorder:
    """In-memory span aggregator for one process.

    Each wrapper owns a table of [calls, total_s, self_s] keyed by parent
    name and updates it inline rather than through method calls; that keeps
    a span under a microsecond, and a suite run makes about 13 million.
    The open-span stack starts with a root frame, so every span has a parent
    frame to charge its time to; spans opened at the root have parent None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.open: list[list] = [[None, 0.0]]  # [name, child_seconds] per open span
        self.walks: dict[tuple, list] = {}     # (family, key) -> [[start, yielded], ...]
        self._tables: list[tuple] = []          # (name, {parent: [calls, total_s, self_s]})

    def table(self, name: str) -> dict:
        by_parent: dict = {}
        self._tables.append((name, by_parent))
        return by_parent

    @property
    def buckets(self) -> dict[tuple, list]:
        """(name, parent) -> [calls, total_s, self_s]."""
        out: dict[tuple, list] = {}
        for name, by_parent in self._tables:
            for parent, values in by_parent.items():
                acc = out.setdefault((name, parent), [0, 0.0, 0.0])
                for i, v in enumerate(values):
                    acc[i] += v
        return out

    def walk(self, family: str, key, start: int) -> list:
        """Open a record of one pass over a family; the caller bumps [1]."""
        record = [start, 0]
        self.walks.setdefault((family, key), []).append(record)
        return record


def by_name(buckets: dict) -> dict[str, list]:
    """[calls, self_s] per span name, summed over parents."""
    out: dict[str, list] = {}
    for (name, _), (calls, _, self_s) in buckets.items():
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    return out


def distinct_objects(records) -> int:
    """Size of the union of the rank ranges [start, start + yielded)."""
    total = 0
    reach = None
    for start, yielded in sorted(records):
        end = start + yielded
        if reach is None or start >= reach:
            total += yielded
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _keep_cache_api(wrapper, fn):
    # An lru_cache keeps caching because the wrapper calls it; expose its
    # cache_info/cache_clear so chordlab.clear_caches still works mid-trace.
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def wrap_call(rec: Recorder, name: str, fn):
    clock, stack, by_parent = rec.clock, rec.open, rec.table(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [name, 0.0]
        stack.append(frame)
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - started
            stack.pop()
            parent = stack[-1]
            parent[1] += elapsed
            bucket = by_parent.get(parent[0])
            if bucket is None:
                by_parent[parent[0]] = [1, elapsed, elapsed - frame[1]]
            else:
                bucket[0] += 1
                bucket[1] += elapsed
                bucket[2] += elapsed - frame[1]
    return _keep_cache_api(wrapper, fn)


def wrap_generator(rec: Recorder, name: str, fn, family: str | None, key_of):
    """Each resume is a span; yielded objects are counted into a walk
    unless family is None.  (The span bookkeeping repeats wrap_call's
    inline: a helper call per resume would cost more than the bookkeeping.)"""
    clock, stack, by_parent = rec.clock, rec.open, rec.table(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        walk = rec.walk(family, *key_of(*args, **kwargs)) if family else [0, 0]
        resume = fn(*args, **kwargs).__next__
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                obj = resume()
            except StopIteration:
                return
            finally:
                elapsed = clock() - started
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                bucket = by_parent.get(parent[0])
                if bucket is None:
                    by_parent[parent[0]] = [1, elapsed, elapsed - frame[1]]
                else:
                    bucket[0] += 1
                    bucket[1] += elapsed
                    bucket[2] += elapsed - frame[1]
            walk[1] += 1
            yield obj
    return wrapper


def wrap_rows(rec: Recorder, name: str, fn):
    """For a function returning (fields, rows): count the rows it streams."""

    def counted(rows):
        walk = rec.walk(name, None, 0)
        for row in rows:
            walk[1] += 1
            yield row

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fields, rows = fn(*args, **kwargs)
        return fields, counted(rows)
    return wrapper


# ---------------------------------------------------------------------------
# Installing and removing wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Patch:
    owner: object
    attr: str
    original: object


def _owners(package: str) -> list:
    """Every loaded module of the package and every class defined in one."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == package or name.startswith(package + "."))]
    owners = list(modules)
    for mod in modules:
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                owners.append(value)
    return owners


def resolve(package: str, target: str):
    """(owner, attr, raw) for 'module.attr' or 'module.Class.attr'; None if absent."""
    parts = target.split(".")
    try:
        owner = importlib.import_module(f"{package}.{parts[0]}")
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def install(rec: Recorder, specs, package: str = "chordlab"):
    """Wrap every spec'd attribute wherever the package binds it.

    Returns (patches, absent): the patches to hand to :func:`restore`, and
    the targets that no longer exist, which are reported rather than fatal.
    """
    patches: list[Patch] = []
    absent: list[str] = []
    owners = _owners(package)
    for spec in specs:
        found = resolve(package, spec.target)
        if found is None:
            absent.append(spec.target)
            continue
        _, _, raw = found
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor else raw
        if not callable(fn):
            absent.append(spec.target)
            continue
        wrapped = spec.make(rec, fn)
        new = descriptor(wrapped) if descriptor else wrapped
        # Rebind every alias too: `from .algebra import parse_poly` copies
        # and class-body aliases such as `__radd__ = __add__`.
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is raw:
                    patches.append(Patch(owner, attr, raw))
                    setattr(owner, attr, new)
    return patches, absent


def restore(patches) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)


def unrestored(patches) -> list[str]:
    """Names of patched attributes that do not hold their original object."""
    return [f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}" for p in patches
            if vars(p.owner).get(p.attr) is not p.original]
