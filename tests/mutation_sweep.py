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
stale .pyc), a 1-GB address-space limit and a 5-s timeout.  A mutant is
killed when verify exits nonzero; when it passes, verify runs again with
`--report json`, and the mutant is also killed when that run fails or
its report, with the `ms` fields zeroed, differs from the unmutated
module's (a dropped per-n row or a changed witness).  It is timed out
when a timeout stops either run, and survives when both pass with the
same report.  The summary line counts the mutants killed by their report
alone apart, so the exit-status criterion can be read off too.  The
unmutated module, unparsed the same way, must pass both runs first.
Survivors go to FILE (default
mutation_survivors.txt), one line each: module, line and 0-based column
of the mutated node, its site index k (`_mutant(source, k)` replays it),
the change and the original source line.  Standard library only; pytest
does not collect this file.
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
VERIFY = ["-m", "chordlab.cli", "verify", "--max-n", "4", "--egf-order", "5"]
TIMEOUT_S = 5
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


def _verify(root: Path, *options: str) -> tuple[str, bytes]:
    """"killed", "passed" or "timeout" for the package under `root`, and
    what verify printed, with its `ms` fields zeroed."""
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, *VERIFY, *options], env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", b""
    report = re.sub(rb'"ms": \d+', b'"ms": 0', done.stdout)
    return ("passed" if done.returncode == 0 else "killed"), report


def _outcome(root: Path, clean: bytes) -> str:
    """"killed", "reported" (killed by its report alone), "survived" or
    "timeout" for the package under `root`."""
    outcome, _ = _verify(root)
    if outcome == "passed":
        outcome, report = _verify(root, "--report", "json")
    if outcome == "passed":
        outcome = "survived" if report == clean else "reported"
    return outcome


def sweep(module: str, root: Path, survivors: list[str]) -> dict[str, int]:
    path = root / "chordlab" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    counts = {"killed": 0, "reported": 0, "survived": 0, "timeout": 0}
    try:
        path.write_text(ast.unparse(ast.parse(source)))
        runs = [_verify(root), _verify(root, "--report", "json")]
        if any(outcome != "passed" for outcome, _ in runs):
            raise SystemExit(f"{module}: the unmutated, unparsed module fails verify")
        clean = runs[1][1]
        for k in range(len(_sites(ast.parse(source)))):
            text, line, column, change = _mutant(source, k)
            path.write_text(text)
            outcome = _outcome(root, clean)
            counts[outcome] += 1
            if outcome == "survived":
                survivors.append(f"{module}.py:{line}:{column}: site {k}: {change}: "
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
            print(f"{module}: {sum(counts.values())} mutants, "
                  f"{counts['killed'] + counts['reported']} killed "
                  f"({counts['reported']} by their report alone), "
                  f"{counts['survived']} survived, {counts['timeout']} timed out", flush=True)
    Path(args.out).write_text("".join(line + "\n" for line in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
