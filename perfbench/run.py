"""The chordlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/expected.json

Every chordlab invocation runs in a fresh interpreter, as a user's would,
with ``src`` on PYTHONPATH; nothing is installed or built.  Each workload is
a fixed list of CLI invocations (a round).  With ``--trace 0`` the run
repeats whole rounds while another one fits in ``--seconds`` (always at
least three) and reports the end-to-end metrics, with round times scaled
by a reference loop timed between invocations.  With ``--trace 1`` it runs
each invocation once plain and once under ``tracer.py``, and reports the
per-layer metrics.  Every output is compared with the digests recorded from
the seed in ``expected.json``; a mismatch counts as a failed operation.
The last line of standard output is the JSON result; progress goes to
standard error.

The inputs are exhaustive enumerations, so ``--seed`` is accepted and
echoed but changes nothing.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 176.0     # children are killed here; a run must end within 180 s


@dataclass(frozen=True)
class Op:
    name: str            # also the output file name
    args: tuple          # chordlab arguments; "{out}" becomes the output path
    report: bool = False  # a `verify --report json` report, gated per check
    jobs: int = 1


def _enumerate(family: str, n: int, fmt: str = "csv") -> Op:
    return Op(f"{family}-{n}.{fmt}",
              ("enumerate", "--family", family, "--n", str(n), "--format", fmt,
               "--out", "{out}"))


def _poly(name: str, n: int) -> Op:
    return Op(f"poly-{name}-{n}.txt", ("poly", "--name", name, "--n", str(n), "--out", "{out}"))


def _grammar(rules: str, seed: str) -> Op:
    return Op(f"grammar-{rules}.txt",
              ("grammar", "--rules", str(HERE / "grammars" / f"{rules}.g"),
               "--seed", seed, "--iterations", "34", "--out", "{out}"))


WORKLOADS = {
    "stream": [
        _enumerate("matchings", 7, "json"), _enumerate("matchings", 6),
        _enumerate("mwords", 6), _enumerate("perms", 8), _enumerate("signed", 5),
        _enumerate("stirling", 6), _enumerate("trees0123", 8),
    ],
    "algebra": [
        _poly("xi", 250), _poly("gamma", 210),
        _grammar("matching", "J"), _grammar("quadruple", "I"),
        _grammar("neighbor", "I*y2*E"),
    ],
    "suite": [Op("verify-n6.json",
                 ("verify", "--max-n", "6", "--egf-order", "6", "--report", "json",
                  "--out", "{out}"),
                 report=True)],
    "suite-jobs2": [Op("verify-n6-jobs2.json",
                       ("verify", "--jobs", "2", "--max-n", "6", "--egf-order", "6",
                        "--report", "json", "--out", "{out}"),
                       report=True, jobs=2)],
}

MIN_ROUNDS = 3
SETUP_PER_ROUND = 3
# What reference_loop takes on the 2-vCPU reference box in a calm stretch, so
# that normalised times read as seconds on that box (see timed_run).
REFERENCE_S = 0.08
# Over 30-s windows on that box, chordlab invocations slowed by 0.6-0.9 of
# the loop's slowdown, and over a whole run often by less.  Full scaling
# (1.0) over-corrected and added the loop's own noise; none (0.0) left the
# box's drift in.  Scaling by the square root, halfway in log terms, gave
# the steadiest runs.
REFERENCE_ELASTICITY = 0.5
# After each invocation the loop runs for this share of its wall time, at
# least once, so the speed samples are spread like the invocations' time.
REFERENCE_SHARE = 0.06


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHORDLAB_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass(frozen=True)
class Sample:
    rc: int
    wall_s: float
    cpu_s: float          # user + sys of the process and every child it reaped
    rss_mb: float         # largest RSS of the process or any child it reaped


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, stderr_path: Path, deadline: float) -> Sample:
    """Run argv to completion and return its wall time and rusage.

    The child leads its own process group, which is killed at the deadline.
    """
    with open(stderr_path, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024)


def setup_probes(workdir: Path, deadline: float, count: int) -> list:
    """Wall times of `count` fresh starts that import chordlab.cli."""
    argv = [sys.executable, "-c", "import chordlab.cli"]
    probes = [spawn(argv, workdir / "setup.err", deadline) for _ in range(count)]
    if any(p.rc for p in probes):
        log(f"setup: importing chordlab.cli failed; see {workdir / 'setup.err'}")
    return [p.wall_s for p in probes]


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def zero_ms(report_text: str) -> str:
    return re.sub(r'"ms": \d+', '"ms": 0', report_text)


def check_digests(report_text: str) -> dict:
    """Digest of each check's report entry with its `ms` field zeroed."""
    return {r["id"]: _sha(json.dumps(dict(r, ms=0), sort_keys=True))
            for r in json.loads(report_text)["results"]}


def expectation(op: Op, out: Path) -> dict:
    """What the gate records for one output of the seed."""
    if op.report:
        text = out.read_text(encoding="utf-8")
        results = json.loads(text)["results"]
        failing = [r["id"] for r in results if r["status"] != "pass"]
        if failing:
            raise SystemExit(f"refusing to record: checks not passing: {failing}")
        return {"report": _sha(zero_ms(text)), "checks": check_digests(text)}
    return {"sha256": sha256_file(out)}


def output_bytes(op: Op, out: Path) -> int:
    """Bytes an invocation wrote; a report counts with its `ms` fields zeroed,
    so the figure repeats from run to run."""
    if not out.is_file():
        return 0
    if op.report:
        return len(zero_ms(out.read_text(encoding="utf-8")).encode("utf-8"))
    return out.stat().st_size


def score(op: Op, rc: int, out: Path, want: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one invocation against the seed.

    A report counts each check as an operation plus one for the invocation
    itself (exit code and the whole report, ms zeroed, byte for byte).
    """
    if not op.report:
        if rc != 0:
            return 1, 1, [f"{op.name}: exit {rc}"]
        if not out.is_file() or sha256_file(out) != want["sha256"]:
            return 1, 1, [f"{op.name}: output differs from the seed"]
        return 1, 0, []
    expected_checks = want["checks"]
    attempted = len(expected_checks) + 1
    try:
        text = out.read_text(encoding="utf-8")
        got = check_digests(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"{op.name}: unreadable report ({exc}), exit {rc}"]
    problems = [f"{op.name}: check {cid} differs from the seed"
                for cid, digest in expected_checks.items() if got.get(cid) != digest]
    if rc != 0 or _sha(zero_ms(text)) != want["report"]:
        problems.append(f"{op.name}: exit {rc} or report bytes differ from the seed")
    return attempted, len(problems), problems


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

@dataclass
class Round:
    samples: list
    outputs: list
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.samples)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.samples)

    def add(self, sample: Sample, out: Path, attempted: int, failed: int) -> None:
        self.samples.append(sample)
        self.outputs.append(out)
        self.attempted += attempted
        self.failed += failed


def run_op(op: Op, index: int, expected: dict, workdir: Path, tag: str,
           deadline: float, traced: bool = False):
    """Run one invocation, plain or under tracer.py, and gate its output."""
    out = workdir / f"{tag}-{op.name}"
    args = [a.replace("{out}", str(out)) for a in op.args]
    if traced:
        prefix = [sys.executable, str(HERE / "tracer.py"),
                  "--spans", str(workdir / f"{tag}-{index}.spans.json"), "--"]
    else:
        prefix = [sys.executable, "-m", "chordlab.cli"]
    sample = spawn(prefix + args, workdir / f"{tag}.err", deadline)
    attempted, failed, problems = score(op, sample.rc, out, expected[op.name])
    for problem in problems:
        log(f"FAILED {problem}")
    log(f"{tag} {op.name}: {sample.wall_s:.3f} s wall, {sample.cpu_s:.3f} s cpu, "
        f"{sample.rss_mb:.1f} MB, {attempted - failed}/{attempted} ok")
    return sample, out, attempted, failed


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop over S_8.

    Tuples, generators, dicts and Fractions, as in chordlab's own loops; no
    chordlab code, so no change to the program can move it.
    """
    started = time.perf_counter()
    tally: dict = {}
    for p in itertools.permutations(range(8)):
        des = sum(1 for i in range(7) if p[i] > p[i + 1])
        exc = sum(1 for i, v in enumerate(p) if v > i)
        tally[des, exc] = tally.get((des, exc), 0) + 1
    sum(Fraction(count, des + 1) for (des, _), count in tally.items())
    return time.perf_counter() - started


def sample_speed(refs: list, after_s: float) -> None:
    """Append reference_loop times, at least one, until they cover
    REFERENCE_SHARE of after_s."""
    spent = 0.0
    while True:
        refs.append(reference_loop())
        spent += refs[-1]
        if spent >= REFERENCE_SHARE * after_s:
            return


def timed_run(ops, expected, workdir, seconds, deadline):
    """Repeat rounds while another fits in `seconds`, and at least MIN_ROUNDS.

    The reference box is shared, and for a minute or more at a time all of it
    runs 20-40% slower; CPU time slows with wall time.  No statistic over the
    rounds of one run takes that out.  So `reference_loop` runs before each
    round's first invocation and after each one, for a fixed share of its
    time, and samples the box's speed over the same stretch as the
    invocations.  `wall_norm_s` is the mean wall time of a round scaled by
    REFERENCE_S over the mean reference loop, to the power
    REFERENCE_ELASTICITY: seconds at the reference box's calm speed;
    `cpu_norm_s` likewise.  The loop runs no chordlab code, so a change to
    chordlab moves these as it moves raw time.  `setup_s` is the median of
    fresh starts spread over the run, after one unmeasured start that writes
    the bytecode cache, as any earlier use of the checkout would have.
    """
    setup_probes(workdir, deadline, 1)
    setup, rounds, refs = [], [], []
    started = time.monotonic()
    while True:
        setup += setup_probes(workdir, deadline, SETUP_PER_ROUND)
        rnd = Round([], [])
        sample_speed(refs, 0.0)
        for i, op in enumerate(ops):
            rnd.add(*run_op(op, i, expected, workdir, f"r{len(rounds)}", deadline))
            sample_speed(refs, rnd.samples[-1].wall_s)
        rounds.append(rnd)
        for out in rnd.outputs:
            out.unlink(missing_ok=True)
        now = time.monotonic()
        per_round = (now - started) / len(rounds)
        if now + 2 * per_round > deadline:
            break
        if len(rounds) >= MIN_ROUNDS and now - started + per_round > seconds:
            break
    scale = (REFERENCE_S / statistics.fmean(refs)) ** REFERENCE_ELASTICITY
    log(f"{len(rounds)} round(s); setup over {len(setup)} starts; reference loop "
        f"{min(refs):.4f}-{max(refs):.4f} s, mean {statistics.fmean(refs):.4f} s; "
        f"raw wall per round {statistics.fmean(r.wall_s for r in rounds):.3f} s")
    metrics = {
        "wall_norm_s": (scale * statistics.fmean(r.wall_s for r in rounds), "s"),
        "cpu_norm_s": (scale * statistics.fmean(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return rounds, metrics


def merge_spans(paths) -> dict:
    """Sum the span files of a traced round into one set of buckets."""
    buckets: dict[tuple, list] = {}
    walks: dict[tuple, list] = {}
    caches: dict[str, dict] = {}
    absent: set[str] = set()
    for path in paths:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            log(f"trace: no span file {path}")
            continue
        for name, parent, calls, total, self_s in data["buckets"]:
            acc = buckets.setdefault((name, parent), [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for family, key, records in data["walks"]:
            walks.setdefault((family, key), []).extend(records)
        for target, info in data["caches"].items():
            acc = caches.setdefault(target, {"hits": 0, "misses": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
        absent.update(data["absent"])
    return {"by_name": spans.by_name(buckets), "buckets": buckets, "walks": walks,
            "caches": caches, "absent": sorted(absent)}


def _family_detail(walks: dict) -> dict:
    """Walks, objects and distinct objects per (family, key)."""
    detail: dict[str, dict] = {}
    for (family, key), records in sorted(walks.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        detail.setdefault(family, {})[str(key)] = {
            "walks": len(records), "objects": sum(r[1] for r in records),
            "distinct": spans.distinct_objects(records)}
    return detail


def traced_run(ops, expected, workdir, workload, deadline):
    """Each op once plain, then once under tracer.py.

    The two never overlap: on the 2-core reference box a concurrent pair
    slowed both unevenly, which made their difference meaningless.
    """
    plain, traced = Round([], []), Round([], [])
    for i, op in enumerate(ops):
        plain.add(*run_op(op, i, expected, workdir, "plain", deadline))
        traced.add(*run_op(op, i, expected, workdir, "traced", deadline, traced=True))
    merged = merge_spans(workdir / f"traced-{i}.spans.json" for i in range(len(ops)))
    values = layers.span_metrics(merged["by_name"], merged["walks"], merged["caches"])

    check_ms, util = [], 0.0
    for op, sample, out in zip(ops, plain.samples, plain.outputs):
        if op.report and out.is_file():
            try:
                ms = [r["ms"] for r in json.loads(out.read_text(encoding="utf-8"))["results"]]
            except (ValueError, KeyError):
                continue
            check_ms.extend(ms)
            util = sum(ms) / 1000 / (op.jobs * sample.wall_s)
    values.update({
        "checks.sum_check_s": sum(check_ms) / 1000,
        "checks.longest_check_s": max(check_ms, default=0) / 1000,
        "checks.pool_util": util,
        "cli.bytes_out": sum(output_bytes(op, out) for op, out in zip(ops, traced.outputs)),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.absent": len(merged["absent"]),
    })
    if merged["absent"]:
        log(f"trace: absent targets (removed or renamed): {', '.join(merged['absent'])}")
    families = _family_detail(merged["walks"])
    for family, per_key in families.items():
        for key, d in per_key.items():
            log(f"trace: {family} {key}: {d['objects']} objects in {d['walks']} walk(s), "
                f"{d['distinct']} distinct")
    detail = {
        "workload": workload,
        "families": families,
        "buckets": [[name, parent, *v] for (name, parent), v in sorted(
            merged["buckets"].items(), key=lambda kv: -kv[1][2])],
        "caches": merged["caches"],
        "absent": merged["absent"],
    }
    (WORK / f"trace-{workload}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    return [plain, traced], metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def record() -> int:
    """Record the output digests of every workload from the current tree."""
    deadline = time.monotonic() + 3600
    expected = {}
    for workload, ops in WORKLOADS.items():
        workdir = WORK / f"record-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        expected[workload] = {}
        for op in ops:
            out = workdir / op.name
            args = [a.replace("{out}", str(out)) for a in op.args]
            sample = spawn([sys.executable, "-m", "chordlab.cli"] + args,
                           workdir / "record.err", deadline)
            if sample.rc != 0:
                raise SystemExit(f"refusing to record: {op.name} exited {sample.rc}")
            expected[workload][op.name] = expectation(op, out)
            log(f"recorded {workload} {op.name} in {sample.wall_s:.1f} s")
        shutil.rmtree(workdir)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chordlab benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current tree")
    args = parser.parse_args(argv)
    if not (SRC / "chordlab" / "cli.py").is_file():
        log(f"error: no chordlab sources under {SRC}")
        return 2
    if args.record:
        return record()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload is required and --seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    ops = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log(f"workload {args.workload}, seed {args.seed} (inputs are exhaustive; "
        f"the seed changes nothing), trace {args.trace}")
    try:
        if args.trace:
            rounds, metrics = traced_run(ops, expected, workdir, args.workload, deadline)
        else:
            rounds, metrics = timed_run(ops, expected, workdir, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
