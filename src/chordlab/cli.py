"""Command-line front end.

Subcommands: `enumerate` (families with statistics as text/CSV/JSON),
`poly` (print a polynomial family member), `verify` (run the identity
suite) and `grammar` (iterate a formal derivative from a rule file).
Identical invocations produce byte-identical output; `--jobs` only changes
wall time.  Exit codes: 0 success, 1 any failing check, 2 usage errors
(an unwritable --out or a failed write among them), 141 when the reader of
stdout closes it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import census, checks
from . import grammar as gr
from . import matchings as mt
from . import perms as pm
from . import stirling as st
from . import words as wd
from .algebra import ParseError, parse_poly

# `verify --max-n` becomes every check's bound and `--egf-order` every series
# order; the checks that walk S_n and M_n default to at most 8 (M-EGF walks
# M_order), and one order more costs them minutes to hours.  No census a
# selection declares it reads may be larger than M_8 either.
_VERIFY_MAX_N = 8


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chordlab",
        description="Exact enumeration of matchings and permutations, and "
                    "mechanical verification of their polynomial identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream a family with statistics")
    p_enum.set_defaults(run=_cmd_enumerate)
    p_enum.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--force", action="store_true",
                        help="override the hard size limits")

    p_poly = sub.add_parser("poly", help="print a polynomial family member")
    p_poly.set_defaults(run=_cmd_poly)
    p_poly.add_argument("--name", required=True, choices=sorted(_POLYS))
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--format", choices=("text", "json"), default="text")
    p_poly.add_argument("--out", default=None)
    p_poly.add_argument("--force", action="store_true")

    width = max(map(len, checks.check_ids()))
    p_verify = sub.add_parser(
        "verify", help="run the identity suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="checks:\n" + "\n".join(f"  {c.id:<{width}}  {c.description}"
                                       for c in checks._REGISTRY.values()))
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated check ids, or 'all'")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--egf-order", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="shards per large census, no more than the CPUs, each "
                               "walked by its own forked child from the start of the run "
                               "(default: 1, which forks nothing)")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--force", action="store_true",
                          help="allow --max-n and --egf-order above the verify limit")

    p_gram = sub.add_parser("grammar", help="apply a grammar derivative")
    p_gram.set_defaults(run=_cmd_grammar)
    p_gram.add_argument("--rules", required=True)
    p_gram.add_argument("--seed", required=True)
    p_gram.add_argument("--iterations", type=int, required=True)
    p_gram.add_argument("--out", default=None)

    return parser


class _UsageError(Exception):
    """A misuse of the CLI: `main` prints `error: <message>` and exits 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (an unknown choice, a non-integer, a
    missing option) as `_UsageError`, without the usage block; subparsers
    are built from the same class."""

    def error(self, message):
        raise _UsageError(message)


def _guard(flag: str, value: int | None, scope: str, limit: int, force: bool) -> None:
    """Refuse a size above `limit` unless --force was given."""
    if value is not None and value > limit and not force:
        raise _UsageError(f"{flag} {value} exceeds the {scope} limit {limit} "
                          "(pass --force to override)")


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a command writes to: stdout, or `path`, opened on entry so
    that an unwritable path fails before any work is done."""
    try:
        out = sys.stdout if path is None else open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        yield out
    finally:
        with _writing(out):
            (out.flush if path is None else out.close)()


@contextlib.contextmanager
def _writing(out):
    """Turns a failed write to `out` into a usage error, or, when the reader
    of a pipe left, into exit 141 as a SIGPIPE death would.  A failed stdout
    is pointed at the null device, so the interpreter's final flush is quiet."""
    try:
        yield
    except OSError as exc:
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(141) from None  # 128 + SIGPIPE
        name = "standard output" if out is sys.stdout else out.name
        raise _UsageError(f"cannot write {name}: {exc.strerror or exc}") from None


def _emit(pieces, out) -> None:
    """Write a text piece by piece as it is rendered, then its newline, so
    the whole text is never held."""
    with _writing(out):
        out.writelines(pieces)
        out.write("\n")


# Every family's rows come from `_rows`: field 2 is the object's text and
# every other field an int.  No kernel is bound before its stream starts:
# each `_FAMILIES` entry reads its functions from their modules when it is
# called, so a patched kernel reaches the output.

def _rows(n, objects, text, stats):
    for rank, obj in enumerate(objects):
        yield (n, rank, text(obj)) + stats(obj)


def _ints(k):
    """The text function of k ints on one line: one "%d %d ..." template."""
    return " ".join(["%d"] * k).__mod__


def _matching_stats(m):
    return mt.block_stats(m)[:5] + mt.pairwise_stats(m) + (mt.trace(m),)


def _signed_stats(sigma):
    wexc, exc, drop, fix, single, cyc = pm.signed_stats(sigma)
    asc, des, inv, dd = pm.oneline_stats(sigma)
    return (exc, drop, fix, cyc, asc, des, inv, pm.cda(tuple(map(abs, sigma))),
            dd, wexc, single)


_PERM_FIELDS = ["n", "rank", "oneline", "exc", "drop", "fix", "cyc", "asc",
                "des", "inv", "cda", "dd"]
_TREE_FIELDS = ["n", "rank", "tree", "leaves", "deg1", "deg2", "deg3"]

# family -> (size limit, overridable with --force; smallest --n; fields;
# n -> (objects, text, stats) for `_rows`).  The limits guard enumerations
# that explode.
_FAMILIES = {
    "matchings": (10, 0, ["n", "rank", "arcs", "fixb", "elblock", "olblock",
                          "esblock", "osblock", "cr", "ne", "al", "lne", "lcr",
                          "nal", "lrp", "rrp", "trace"],
                  lambda n: (mt.enumerate_matchings(n), mt.arcs_text, _matching_stats)),
    "mwords": (10, 0, ["n", "rank", "word", "lne", "lcr", "nal", "rrp", "lrp",
                       "inv", "coinv", "rank_stat"],
               lambda n: (wd.enumerate_words(n), wd.word_text,
                          lambda w: wd.neighbor_classify(w) + wd.word_stats(w))),
    "perms": (10, 0, _PERM_FIELDS,
              lambda n: (pm.enumerate_permutations(n), _ints(n), pm.perm_stats)),
    "signed": (8, 0, _PERM_FIELDS + ["wexc", "single"],
               lambda n: (pm.enumerate_signed(n), _ints(n), _signed_stats)),
    "derangements": (10, 0, _PERM_FIELDS,
                     lambda n: (pm.enumerate_derangements(n), _ints(n), pm.perm_stats)),
    "stirling": (10, 0, ["n", "rank", "word", "asc", "plat", "des"],
                 lambda n: (st.enumerate_stirling(n), _ints(2 * n), st.stirling_word_stats)),
    "trees012": (12, 1, _TREE_FIELDS,
                 lambda n: (st.enumerate_trees(n, 2), st.tree_text, st.tree_degree_histogram)),
    "trees0123": (12, 1, _TREE_FIELDS,
                  lambda n: (st.enumerate_trees(n, 3), st.tree_text, st.tree_degree_histogram)),
}


def _family_rows(family: str, n: int):
    """(fieldnames, iterator of row tuples) for one enumeration family."""
    _, _, fields, parts = _FAMILIES[family]
    return fields, _rows(n, *parts(n))


def _cmd_enumerate(args) -> int:
    limit, smallest, _, _ = _FAMILIES[args.family]
    if args.n < 0:
        raise _UsageError("--n must be nonnegative")
    if args.n < smallest:
        raise _UsageError(f"--n must be positive for {args.family}")
    _guard("--n", args.n, args.family, limit, args.force)
    fields, rows = _family_rows(args.family, args.n)
    with _output(args.out) as out:
        _write_rows(args.format, fields, rows, out)
    return 0


def _write_rows(fmt: str, fields: list, rows, out) -> None:
    """Write each row tuple as it is produced; no format holds the whole
    stream."""
    with _writing(out):
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(fields)
            writer.writerows(rows)
        elif fmt == "json":
            # What JSONEncoder(separators=(",", ":")) writes for the row as a
            # dict: its keys in field order, ints as %d, the text escaped by the
            # encoder's own ASCII escaper.  Each item carries its leading comma.
            escape = json.encoder.encode_basestring_ascii
            template = ",{" + ",".join(f"{escape(name)}:%{'s' if i == 2 else 'd'}"
                                       for i, name in enumerate(fields)) + "}"
            items = (template % (row[0], row[1], escape(row[2]), *row[3:])
                     for row in rows)
            out.write("[" + next(items, ",")[1:])
            out.writelines(items)
            out.write("]\n")
        else:
            lines = (f"{row[2]}\n" for row in rows)
            out.write(next(lines, "\n"))  # an empty stream is one empty line
            out.writelines(lines)


def _table_pieces(name: str, n: int, table: dict):
    """What `json.dumps` writes for {"family": name, "n", "entries"}, where
    entries are {"i", "j", "k", "c": str(c)} rows in key order: the head,
    one row at a time, then the tail."""
    yield f'{{"family": {json.dumps(name)}, "n": {n}, "entries": ['
    sep = ""
    for (i, j, k), c in sorted(table.items()):
        yield f'{sep}{{"i": {i}, "j": {j}, "k": {k}, "c": "{c}"}}'
        sep = ", "
    yield "]}"


# name -> (family whose size limit guards --n, or None; n -> MVPoly;
# n -> the coefficient table `--format json` prints, or None for the
# polynomial itself).  Each entry looks its function up at call time.
_POLYS = {
    "An": ("perms", lambda n: pm.eulerian_xy(n).subst({"y": 1}), None),
    "Anxy": ("perms", lambda n: pm.eulerian_xy(n), None),
    "Anpq": ("perms", lambda n: pm.eulerian_xpq(n), None),
    "dn": ("perms", lambda n: pm.derangement_poly(n), None),
    "Bn": ("signed", lambda n: pm.b_poly(n), None),
    "dBn": ("signed", lambda n: pm.type_b_derangement_poly(n), None),
    "Mn": ("matchings", lambda n: mt.m_poly(n), None),
    "In": ("matchings", lambda n: mt.i_poly(n), None),
    "Cn": ("mwords", lambda n: wd.c_poly(n), None),
    "NCA": ("mwords", lambda n: wd.nca_poly(n), None),
    "NCR": ("mwords", lambda n: wd.ncr_poly(n), None),
    "Qn": ("stirling", lambda n: st.q_poly(n), None),
    "xi": (None, lambda n: st.xi_poly(n), lambda n: st.xi_table(n)),
    "gamma": (None, lambda n: st.gamma_poly(n), lambda n: st.gamma_table(n)),
}


def _cmd_poly(args) -> int:
    family, poly, table = _POLYS[args.name]
    if args.n < 1:
        raise _UsageError("--n must be positive")
    if family is not None:
        _guard("--n", args.n, family, _FAMILIES[family][0], args.force)
    with _output(args.out) as out:
        if args.format == "json" and table is not None:
            _emit(_table_pieces(args.name, args.n, table(args.n)), out)
        elif args.format == "json":
            _emit([json.dumps({"name": args.name, "n": args.n,
                               "poly": poly(args.n).render()},
                              separators=(",", ":"))], out)
        else:
            _emit(poly(args.n).render_pieces(), out)
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be a positive integer, got {args.jobs}")
    selection = "all" if args.checks.strip() == "all" else [
        part.strip() for part in args.checks.split(",") if part.strip()]
    if not selection:
        raise _UsageError(f"--checks {args.checks!r} names no check")
    bounds = (("--max-n", args.max_n), ("--egf-order", args.egf_order))
    for flag, value in bounds:
        if value is not None and value < 0:
            raise _UsageError(f"{flag} must be nonnegative, got {value}")
    for flag, value in bounds:
        _guard(flag, value, "verify", _VERIFY_MAX_N, args.force)
    order = checks.DEFAULT_EGF_ORDER if args.egf_order is None else args.egf_order
    try:
        reads = checks._reads(selection, args.max_n, order)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    limit = census.size(("block", _VERIFY_MAX_N))
    for check_id, keys in reads.items():
        for key in keys:
            objects = census.size(key)
            if objects > limit and not args.force:
                raise _UsageError(
                    f"{check_id} reads the {key[0]} census of n={key[1]} ({objects:,} "
                    f"objects), above the verify limit {limit:,} (pass --force to override)")
    with _output(args.out) as out:
        results = checks.run_checks(selection, max_n=args.max_n,
                                    egf_order=args.egf_order, jobs=args.jobs)
        report = checks.report_json if args.report == "json" else checks.report_table
        _emit([report(results)], out)
    return 1 if any(r.status == "fail" for r in results) else 0


def _cmd_grammar(args) -> int:
    try:
        with open(args.rules, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.rules}: {exc}") from None
    try:
        g = gr.parse_grammar(text)
    except ParseError as exc:
        raise _UsageError(f"{args.rules}: {exc}") from None
    try:
        seed = parse_poly(args.seed)
    except ParseError as exc:
        raise _UsageError(f"--seed: {exc}") from None
    if args.iterations < 0:
        raise _UsageError("--iterations must be nonnegative")
    with _output(args.out) as out:
        _emit(gr.d_iter(g, seed, args.iterations).render_pieces(), out)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help once printed, or a closed pipe
        return exc.code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
