"""Command-line front end.

Subcommands: `enumerate` (families with statistics as text/CSV/JSON),
`poly` (print a polynomial family member), `verify` (run the identity
suite) and `grammar` (iterate a formal derivative from a rule file).
Identical invocations produce byte-identical output; `--jobs` only changes
wall time.  Exit codes: 0 success, 1 any failing check, 2 usage errors
(an unwritable --out among them), 141 when the reader of stdout closes it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

from . import checks
from . import grammar as gr
from . import matchings as mt
from . import perms as pm
from . import stirling as st
from . import words as wd
from .algebra import MVPoly, ParseError, parse_poly
from .grammar import DuplicateRuleError

# Families whose enumeration explodes; overridable with --force.
_HARD_LIMITS = {
    "matchings": 10, "mwords": 10, "perms": 10, "signed": 8,
    "derangements": 10, "stirling": 10, "trees012": 12, "trees0123": 12,
}
# `verify --max-n` becomes every check's bound and `--egf-order` every series
# order; the checks that walk S_n and M_n default to at most 8 (M-EGF walks
# M_order), and one order more costs them minutes to hours.
_VERIFY_MAX_N = 8

_POLY_FAMILY = {
    "An": "perms", "Anxy": "perms", "Anpq": "perms", "dn": "perms",
    "Bn": "signed", "dBn": "signed",
    "Mn": "matchings", "In": "matchings", "Cn": "mwords",
    "NCA": "mwords", "NCR": "mwords", "Qn": "stirling",
    "xi": None, "gamma": None,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordlab",
        description="Exact enumeration of matchings and permutations, and "
                    "mechanical verification of their polynomial identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream a family with statistics")
    p_enum.add_argument("--family", required=True, choices=sorted(_HARD_LIMITS))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--force", action="store_true",
                        help="override the hard size limits")

    p_poly = sub.add_parser("poly", help="print a polynomial family member")
    p_poly.add_argument("--name", required=True, choices=sorted(_POLY_FAMILY))
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--format", choices=("text", "json"), default="text")
    p_poly.add_argument("--out", default=None)
    p_poly.add_argument("--force", action="store_true")

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--checks", default="all",
                          help="comma-separated check ids, or 'all'")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--egf-order", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: $CHORDLAB_JOBS, else 1)")
    p_verify.add_argument("--report", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--force", action="store_true",
                          help="allow --max-n and --egf-order above the verify limit")

    p_gram = sub.add_parser("grammar", help="apply a grammar derivative")
    p_gram.add_argument("--rules", required=True)
    p_gram.add_argument("--seed", required=True)
    p_gram.add_argument("--iterations", type=int, required=True)
    p_gram.add_argument("--out", default=None)

    return parser


class _OutputError(Exception):
    """--out cannot be opened for writing."""


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a command writes to: stdout, or `path`, opened on entry so
    that an unwritable path fails before any work is done."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _family_rows(family: str, n: int):
    """(fieldnames, iterator of row tuples) for one enumeration family.

    Each row holds its fields in `fields` order.  Field 2 is the object's
    text and every other field an int.  Kernels are looked up on their
    modules for every row, so a patched kernel reaches the output.
    """
    if family == "matchings":
        fields = ["n", "rank", "arcs", "fixb", "elblock", "olblock", "esblock",
                  "osblock", "cr", "ne", "al", "lne", "lcr", "nal", "lrp",
                  "rrp", "trace"]

        def rows():
            for rank, m in enumerate(mt.enumerate_matchings(n)):
                fixb, el, ol, es, os_, _ = mt.block_stats(m)
                cr, ne, al, lne, lcr, nal, _, _, lrp, rrp = mt.pairwise_stats(m)
                yield (n, rank, mt.arcs_text(m), fixb, el, ol, es, os_, cr, ne,
                       al, lne, lcr, nal, lrp, rrp, mt.trace(m))
        return fields, rows()
    if family == "mwords":
        fields = ["n", "rank", "word", "lne", "lcr", "nal", "rrp", "lrp",
                  "inv", "coinv", "rank_stat"]

        def rows():
            for rank, w in enumerate(wd.enumerate_words(n)):
                lne, lcr, nal, rrp, lrp = wd.neighbor_classify(w)
                yield (n, rank, wd.word_text(w), len(lne), len(lcr), len(nal),
                       len(rrp), len(lrp)) + wd.word_stats(w)
        return fields, rows()
    if family in ("perms", "derangements"):
        fields = ["n", "rank", "oneline", "exc", "drop", "fix", "cyc", "asc",
                  "des", "inv", "cda", "dd"]
        stream = (pm.enumerate_permutations(n) if family == "perms"
                  else pm.enumerate_derangements(n))

        def rows():
            for rank, pi in enumerate(stream):
                yield (n, rank, " ".join(map(str, pi))) + pm.perm_stats(pi)
        return fields, rows()
    if family == "signed":
        fields = ["n", "rank", "oneline", "exc", "drop", "fix", "cyc", "asc",
                  "des", "inv", "cda", "dd", "wexc", "single"]

        def rows():
            for rank, sigma in enumerate(pm.enumerate_signed(n)):
                wexc, exc, drop, fix, single, cyc = pm.signed_stats(sigma)
                asc, des, inv, dd = pm.oneline_stats(sigma)
                cda = pm.perm_stats(tuple(map(abs, sigma))).cda
                yield (n, rank, " ".join(map(str, sigma)), exc, drop, fix, cyc,
                       asc, des, inv, cda, dd, wexc, single)
        return fields, rows()
    if family == "stirling":
        fields = ["n", "rank", "word", "asc", "plat", "des"]

        def rows():
            for rank, word in enumerate(st.enumerate_stirling(n)):
                yield ((n, rank, " ".join(map(str, word)))
                       + st.stirling_word_stats(word))
        return fields, rows()
    if family in ("trees012", "trees0123"):
        degree = 2 if family == "trees012" else 3
        fields = ["n", "rank", "tree", "leaves", "deg1", "deg2", "deg3"]

        def rows():
            for rank, tree in enumerate(st.enumerate_trees(n, degree)):
                yield (n, rank, st.tree_text(tree)) + st.tree_degree_histogram(tree)
        return fields, rows()
    raise ValueError(f"unknown family {family!r}")


def _cmd_enumerate(args) -> int:
    limit = _HARD_LIMITS[args.family]
    if args.n < 0:
        print(f"error: --n must be nonnegative", file=sys.stderr)
        return 2
    if args.n == 0 and args.family.startswith("trees"):
        print(f"error: --n must be positive for {args.family}", file=sys.stderr)
        return 2
    if args.n > limit and not args.force:
        print(f"error: --n {args.n} exceeds the {args.family} limit {limit} "
              "(pass --force to override)", file=sys.stderr)
        return 2
    fields, rows = _family_rows(args.family, args.n)
    with _output(args.out) as out:
        _write_rows(args.format, fields, rows, out)
    return 0


def _write_rows(fmt: str, fields: list, rows, out) -> None:
    """Write each row tuple as it is produced; no format holds the whole
    stream."""
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


def _poly_by_name(name: str, n: int) -> MVPoly:
    if name == "An":
        return pm.eulerian_xy(n).subst({"y": 1})
    if name == "Anxy":
        return pm.eulerian_xy(n)
    if name == "Anpq":
        return pm.eulerian_xpq(n)
    if name == "Mn":
        return mt.m_poly(n)
    if name == "Bn":
        return pm.b_poly(n)
    if name == "dn":
        return pm.derangement_poly(n)
    if name == "dBn":
        return pm.type_b_derangement_poly(n)
    if name == "Cn":
        return wd.c_poly(n)
    if name == "NCA":
        return wd.nca_poly(n)
    if name == "NCR":
        return wd.ncr_poly(n)
    if name == "In":
        return mt.i_poly(n)
    if name == "Qn":
        return st.q_poly(n)
    if name == "xi":
        return st.xi_poly(n)
    if name == "gamma":
        return st.gamma_poly(n)
    raise ValueError(f"unknown polynomial {name!r}")


def _cmd_poly(args) -> int:
    family = _POLY_FAMILY[args.name]
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return 2
    if family is not None:
        limit = _HARD_LIMITS[family]
        if args.n > limit and not args.force:
            print(f"error: --n {args.n} exceeds the {family} limit {limit} "
                  "(pass --force to override)", file=sys.stderr)
            return 2
    with _output(args.out) as out:
        if args.format == "json" and args.name in ("xi", "gamma"):
            table = st.xi_table(args.n) if args.name == "xi" else st.gamma_table(args.n)
            _emit(table.to_json(args.name), out)
            return 0
        poly = _poly_by_name(args.name, args.n)
        if args.format == "json":
            _emit(json.dumps({"name": args.name, "n": args.n, "poly": poly.render()},
                             separators=(",", ":")), out)
        else:
            _emit(poly.render(), out)
    return 0


def _cmd_verify(args) -> int:
    source, raw = (("--jobs", args.jobs) if args.jobs is not None
                   else ("CHORDLAB_JOBS", os.environ.get("CHORDLAB_JOBS", "1")))
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        print(f"error: {source} must be a positive integer, got {raw!r}", file=sys.stderr)
        return 2
    selection = "all" if args.checks.strip() == "all" else [
        part.strip() for part in args.checks.split(",") if part.strip()]
    if not selection:
        print(f"error: --checks {args.checks!r} names no check", file=sys.stderr)
        return 2
    for flag, value in (("--max-n", args.max_n), ("--egf-order", args.egf_order)):
        if value is not None and value < 0:
            print(f"error: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return 2
    for flag, value in (("--max-n", args.max_n), ("--egf-order", args.egf_order)):
        if value is not None and value > _VERIFY_MAX_N and not args.force:
            print(f"error: {flag} {value} exceeds the verify limit {_VERIFY_MAX_N} "
                  "(pass --force to override)", file=sys.stderr)
            return 2
    with _output(args.out) as out:
        try:
            results = checks.run_checks(selection, max_n=args.max_n,
                                        egf_order=args.egf_order, jobs=jobs)
        except checks.UnknownCheckIdError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.report == "json":
            _emit(checks.report_json(results), out)
        else:
            _emit(checks.report_table(results), out)
    return 1 if any(r.status == "fail" for r in results) else 0


def _cmd_grammar(args) -> int:
    try:
        with open(args.rules, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.rules}: {exc}", file=sys.stderr)
        return 2
    try:
        g = gr.parse_grammar(text)
    except (ParseError, DuplicateRuleError) as exc:
        print(f"error: {args.rules}: {exc}", file=sys.stderr)
        return 2
    try:
        seed = parse_poly(args.seed)
    except ParseError as exc:
        print(f"error: --seed: {exc}", file=sys.stderr)
        return 2
    if args.iterations < 0:
        print("error: --iterations must be nonnegative", file=sys.stderr)
        return 2
    with _output(args.out) as out:
        _emit(gr.d_iter(g, seed, args.iterations).render(), out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = {
        "enumerate": _cmd_enumerate,
        "poly": _cmd_poly,
        "verify": _cmd_verify,
        "grammar": _cmd_grammar,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left (say `chordlab enumerate ... | head`): end as a
        # SIGPIPE death would, and keep the interpreter's final flush of
        # stdout from reporting the same broken pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
