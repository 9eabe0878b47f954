"""Mutation sweep: how many one-node mutants of a chordlab module the
verify suite kills.

    python tests/mutation_sweep.py algebra [words ...] [--out FILE]

Each mutant changes one node of the module's syntax tree: `+` and `-`
swap (also in `+=` and `-=`), `<` and `<=` swap, `>` and `>=` swap, `==`
and `!=` swap, and an int constant 0, 1 or 2 goes up by one.  The module
is written back with `ast.unparse` into a temporary copy of `src/`, one
mutant at a time, and `chordlab verify --max-n 4 --egf-order 5` runs on
it with PYTHONDONTWRITEBYTECODE=1 (a mutant written within the same
second as the last one, at the same size, would otherwise reuse its
stale .pyc), a 1-GB address-space limit and a 5-s timeout, in a session
of its own (a mutant that signals process 0 then signals only its own
group).  A mutant is killed when verify exits nonzero; when it passes,
verify runs again with `--report json`, and the mutant is also killed
when that run fails or its report, with the `ms` fields zeroed, differs
from the unmutated module's (a dropped per-n row or a changed witness).  It
survives when both pass with the same report.

A timeout that stops either run does not end there: the mutant is
replayed once against the module's own tier-1 tests,
tests/test_<module>.py, under pytest `-x`, with the same limits but a
60-s timeout.  It is killed when a test fails, and the sweep prints the
first test that failed; it is timed out when that replay times out too or
the module has no test file.

No census is sharded at those bounds, so a `census` mutant that survives
them also runs `verify --max-n 6 --egf-order 6 --jobs 2 --report json`,
where B_6, M_7 and Q_7 reach SHARD_MIN and each is cut into two shards
walked by forked children.  It is killed when that run exits nonzero,
times out, or its report, `ms` zeroed, differs from the unmutated
module's.  A shard that fails is walked serially in the parent, by
design, so such a run has the serial report; it goes through a probe
that wraps `census._fork` and `census._merge`, and a survivor whose run
saw either raise is marked as one that only fails a shard.

The summary line counts the mutants killed by their report alone, by the
sharded run alone and by the tier-1 replay, apart, so the exit-status
criterion can be read off too.  The unmutated module, unparsed the same
way, must pass every run first, its tier-1 tests included.  Survivors go
to FILE (default mutation_survivors.txt), one line each: module, line and
0-based column of the mutated node, its site index k (`_mutant(source,
k)` replays it), the change, "(a shard fails)" where it does, and the
original source line.  Standard library only, but for the pytest that the
replay runs; pytest does not collect this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent
VERIFY = ["-m", "chordlab.cli", "verify", "--max-n", "4", "--egf-order", "5"]
# The CLI as `-m chordlab.cli` runs it, saying on stderr when a shard's fork
# or merge raised, which the serial walk that follows otherwise hides.
_SHARD_PROBE = """
import sys
from chordlab import census, cli


def probe(real):
    def call(*args):
        try:
            return real(*args)
        except Exception:
            print("a shard failed", file=sys.stderr)
            raise
    return call


census._fork, census._merge = probe(census._fork), probe(census._merge)
sys.exit(cli.main(sys.argv[1:]))
"""
SHARDED = ["-c", _SHARD_PROBE, "verify", "--max-n", "6", "--egf-order", "6", "--jobs", "2",
           "--report", "json"]
SHARDED_MODULES = {"census"}
TIMEOUT_S = 5
REPLAY_TIMEOUT_S = 60
ADDRESS_SPACE = 1 << 30

_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
          ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def _sites(tree: ast.AST) -> list[tuple]:
    """(node, slot, description) for every mutable spot, in walk order; slot
    is None for an operator node, an index into a comparison's ops, or
    "value" for a constant."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            sites.append((node, None, f"{type(node.op).__name__} -> "
                                      f"{_SWAPS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            sites += [(node, i, f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}")
                      for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1, 2)):
            sites.append((node, "value", f"{node.value} -> {node.value + 1}"))
    return sites


def _mutant(source: str, k: int) -> tuple[str, int, int, str]:
    """The source with its k-th site changed, that site's line, column and
    change."""
    tree = ast.parse(source)
    node, slot, change = _sites(tree)[k]
    if slot is None:
        node.op = _SWAPS[type(node.op)]()
    elif slot == "value":
        node.value += 1
    else:
        node.ops[slot] = _SWAPS[type(node.ops[slot])]()
    return ast.unparse(tree), node.lineno, node.col_offset, change


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _verify(root: Path, *options: str, command=VERIFY) -> tuple[str, bytes, bool]:
    """"killed", "passed" or "timeout" for the package under `root`, what
    verify printed, with its `ms` fields zeroed, and whether a shard failed."""
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, *command, *options], env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              preexec_fn=_limit_memory, start_new_session=True)
    except subprocess.TimeoutExpired:
        return "timeout", b"", False
    report = re.sub(rb'"ms": \d+', b'"ms": 0', done.stdout)
    shard_failed = b"a shard failed\n" in done.stderr
    return ("passed" if done.returncode == 0 else "killed"), report, shard_failed


def _replay(root: Path, module: str) -> tuple[str, str | None]:
    """"killed", "passed" or "timeout" for tests/test_<module>.py, run with
    `-x` on the package under `root`, and the first test that failed."""
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               str(TESTS / f"test_{module}.py")]
    try:
        done = subprocess.run(command, cwd=root, env=env, timeout=REPLAY_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              preexec_fn=_limit_memory, start_new_session=True)
    except subprocess.TimeoutExpired:
        return "timeout", None
    if done.returncode == 0:
        return "passed", None
    # pytest names the test relative to the working directory, `root`
    failed = re.search(rb"^(?:FAILED|ERROR) \S*?(test_\w+\.py\S*)", done.stdout, re.M)
    return "killed", (f"tests/{failed.group(1).decode()}" if failed
                      else f"pytest exit {done.returncode}")


def _outcome(root: Path, clean: list[bytes]) -> str:
    """"killed", "reported" (killed by its report alone), "sharded" (killed
    by the sharded run alone), "survived", "shard fails" (survived, but a
    shard failed) or "timeout" for the package under `root`."""
    outcome, _, _ = _verify(root)
    if outcome == "passed":
        outcome, report, _ = _verify(root, "--report", "json")
    if outcome == "passed":
        outcome = "survived" if report == clean[0] else "reported"
    if outcome == "survived" and len(clean) > 1:
        outcome, report, shard_failed = _verify(root, command=SHARDED)
        if outcome != "passed" or report != clean[1]:
            return "sharded"
        outcome = "shard fails" if shard_failed else "survived"
    return outcome


def sweep(module: str, root: Path, survivors: list[str]) -> dict[str, int]:
    path = root / "chordlab" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    counts = {"killed": 0, "reported": 0, "sharded": 0, "replayed": 0, "survived": 0,
              "shard fails": 0, "timeout": 0}
    tested = (TESTS / f"test_{module}.py").exists()
    try:
        path.write_text(ast.unparse(ast.parse(source)))
        runs = [_verify(root), _verify(root, "--report", "json")]
        if module in SHARDED_MODULES:
            runs.append(_verify(root, command=SHARDED))
        if any(outcome != "passed" or shard_failed for outcome, _, shard_failed in runs):
            raise SystemExit(f"{module}: the unmutated, unparsed module fails verify")
        if tested and _replay(root, module)[0] != "passed":
            raise SystemExit(f"{module}: the unmutated, unparsed module fails "
                             f"tests/test_{module}.py")
        clean = [report for _, report, _ in runs[1:]]
        for k in range(len(_sites(ast.parse(source)))):
            text, line, column, change = _mutant(source, k)
            path.write_text(text)
            site = f"{module}.py:{line}:{column}: site {k}: {change}"
            outcome = _outcome(root, clean)
            if outcome == "timeout" and tested:
                replayed, failed = _replay(root, module)
                if replayed == "killed":
                    outcome = "replayed"
                    print(f"{site}: timed out, then failed {failed}", flush=True)
            counts[outcome] += 1
            if outcome in ("survived", "shard fails"):
                survivors.append(f"{site}"
                                 f"{' (a shard fails)' if outcome == 'shard fails' else ''}: "
                                 f"{lines[line - 1].strip()}")
    finally:
        path.write_text(source)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="chordlab module names, e.g. algebra")
    parser.add_argument("--out", default="mutation_survivors.txt")
    args = parser.parse_args(argv)
    survivors: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(SRC / "chordlab", root / "chordlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for module in args.modules:
            counts = sweep(module, root, survivors)
            killed = sum(counts[k] for k in ("killed", "reported", "sharded", "replayed"))
            print(f"{module}: {sum(counts.values())} mutants, "
                  f"{killed} killed ({counts['reported']} by their report alone, "
                  f"{counts['sharded']} by the sharded run alone, "
                  f"{counts['replayed']} by tier-1 after a timeout), "
                  f"{counts['survived'] + counts['shard fails']} survived "
                  f"({counts['shard fails']} only failing a shard), "
                  f"{counts['timeout']} timed out", flush=True)
    Path(args.out).write_text("".join(line + "\n" for line in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
