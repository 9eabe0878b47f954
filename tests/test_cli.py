import errno
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import chordlab
import oracles
from chordlab import census, checks, cli
from chordlab import grammar as gr
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.cli import main
from chordlab.algebra import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoly:
    def test_m3_golden_text(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--name", "Mn", "--n", "3")
        assert code == 0
        assert out.strip() == "s^3*t^3 + 6*s*t^2*x*y + 4*t*x^2*y + 4*t*x*y^2"

    def test_nca_value(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--name", "NCA", "--n", "3")
        assert code == 0
        assert parse_poly(out.strip()) == parse_poly(
            "x^2 + 4*x*y + y^2 + 4*x*z + 4*y*z + z^2")

    def test_xi_json(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--name", "xi", "--n", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "family": "xi", "n": 2,
            "entries": [{"i": 0, "j": 1, "k": 0, "c": "2"},
                        {"i": 2, "j": 0, "k": 0, "c": "1"}]}

    def test_poly_json(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--name", "Qn", "--n", "1",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"name": "Qn", "n": 1, "poly": "x*y*z"}

    def test_guardrail(self, capsys):
        code, _, err = run_cli(capsys, "poly", "--name", "Mn", "--n", "11")
        assert code == 2
        assert "limit" in err


class TestEnumerate:
    def test_matchings_csv(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "matchings",
                               "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("n,rank,arcs,fixb,elblock,olblock,esblock,osblock,"
                            "cr,ne,al,lne,lcr,nal,lrp,rrp,trace")
        assert lines[1] == '2,0,"(1,2)(3,4)",2,0,0,0,0,0,0,1,0,0,1,2,0,2'
        assert len(lines) == 4

    def test_words_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "mwords",
                               "--n", "2")
        assert code == 0
        assert out.splitlines() == ["1 1' 2 2'", "1 2 1' 2'", "2 1 1' 2'"]

    def test_perm_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "perms",
                               "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,rank,oneline,exc,drop,fix,cyc,asc,des,inv,cda,dd"

    def test_signed_csv_extra_columns(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "signed",
                               "--n", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("wexc,single")
        assert len(lines) == 3

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "stirling",
                               "--n", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["word"] for row in rows] == ["2 2 1 1", "1 2 2 1", "1 1 2 2"]

    def test_trees_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--family", "trees012",
                               "--n", "3")
        assert code == 0
        assert sorted(out.splitlines()) == ["1(2(3))", "1(2,3)", "1(3,2)"]

    def test_guardrail_and_force_flag(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--family", "matchings",
                               "--n", "11")
        assert code == 2
        assert "--force" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "enumerate", "--family", "perms",
                               "--n", "2", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,rank,oneline")

    def test_byte_identical_repeats(self, capsys):
        _, first, _ = run_cli(capsys, "enumerate", "--family", "matchings",
                              "--n", "3", "--format", "csv")
        _, second, _ = run_cli(capsys, "enumerate", "--family", "matchings",
                               "--n", "3", "--format", "csv")
        assert first == second


class TestVerify:
    def test_small_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "GOLDEN,A-RISING",
                               "--max-n", "3", "--report", "json")
        assert code == 0
        blob = json.loads(out)
        assert [r["id"] for r in blob["results"]] == ["GOLDEN", "A-RISING"]
        assert all(r["status"] == "pass" for r in blob["results"])

    def test_verify_table(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "STIRLING1-ID",
                               "--max-n", "4")
        assert code == 0
        assert "STIRLING1-ID" in out
        assert out.strip().endswith("1/1 checks passed")

    def test_repeated_check_id_is_one_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "M-SYM,M-SYM",
                               "--max-n", "2")
        assert code == 0
        assert out.count("M-SYM") == 1
        assert out.strip().endswith("1/1 checks passed")

    def test_unknown_check_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "BOGUS")
        assert code == 2
        assert "unknown check id" in err

    def test_help_lists_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        listing = out.split("checks:\n", 1)[1].splitlines()
        assert [line.split()[0] for line in listing] == checks.check_ids()
        for line, check_id in zip(listing, checks.check_ids()):
            assert line.split(None, 1)[1] == checks._REGISTRY[check_id].description

    def test_jobs_do_not_change_output(self, capsys):
        argv = ["verify", "--checks", "A-RISING,XI-GAMMA", "--max-n", "3",
                "--report", "json"]
        _, serial, _ = run_cli(capsys, *argv)
        _, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")

        def normalize(text):
            blob = json.loads(text)
            for r in blob["results"]:
                r["ms"] = 0
            return blob

        assert normalize(serial) == normalize(parallel)

    def test_egf_order_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "A-EGF",
                               "--egf-order", "4", "--report", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["results"][0]["max_n"] == 4
        assert len(blob["results"][0]["per_n"]) == 5


class TestGrammar:
    def test_dumont_iteration(self, tmp_path, capsys):
        rules = tmp_path / "dumont.g"
        rules.write_text("a -> a*b\nb -> a*b\n")
        code, out, _ = run_cli(capsys, "grammar", "--rules", str(rules),
                               "--seed", "a", "--iterations", "2")
        assert code == 0
        assert parse_poly(out.strip()) == parse_poly("a*b^2 + a^2*b")
        assert out.strip() == "a^2*b + a*b^2"  # graded-lex rendering

    def test_seed_expression(self, tmp_path, capsys):
        rules = tmp_path / "g.g"
        rules.write_text("x -> x*y*z\ny -> x*y*z\nz -> x*y*z\n")
        code, out, _ = run_cli(capsys, "grammar", "--rules", str(rules),
                               "--seed", "x", "--iterations", "2")
        assert code == 0
        assert parse_poly(out.strip()) == parse_poly(
            "x^2*y^2*z + x^2*y*z^2 + x*y^2*z^2")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "grammar", "--rules", "/no/such/file.g",
                               "--seed", "a", "--iterations", "1")
        assert code == 2
        assert "/no/such/file.g" in err

    def test_rule_file_that_is_not_utf8(self, tmp_path, capsys):
        rules = tmp_path / "latin.g"
        rules.write_bytes(b"a -> a*b\n\xff\n")
        code, out, err = run_cli(capsys, "grammar", "--rules", str(rules),
                                 "--seed", "a", "--iterations", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {rules}: ") and err.count("\n") == 1

    def test_bad_rule_file(self, tmp_path, capsys):
        rules = tmp_path / "bad.g"
        rules.write_text("a -> a*\n")
        code, _, err = run_cli(capsys, "grammar", "--rules", str(rules),
                               "--seed", "a", "--iterations", "1")
        assert code == 2
        assert "bad.g" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_bad_family(self, capsys):
        assert main(["enumerate", "--family", "widgets", "--n", "2"]) == 2

    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "chordlab.cli", "poly", "--name", "Mn", "--n", "2"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "s^2*t^2 + 2*t*x*y"

    def test_import_leaves_heavy_stdlib_modules_unloaded(self):
        # Every start pays for what `import chordlab.cli` loads.
        probe = ("import sys, chordlab.cli; print(sorted(set(sys.modules) & {"
                 "'dataclasses', 'inspect', 'concurrent.futures', 'logging', 'pickle'}))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
        # A sharded census forks bare processes and pickles their counts
        # (B-MAIN at n = 6 reads B_6, 46,080 objects): no pool module loads.
        probe = ("import os, sys; from chordlab.cli import main; rc = main(["
                 "'verify', '--checks', 'B-MAIN', '--max-n', '6', '--jobs', '2', "
                 "'--out', os.devnull]); print(rc, sorted(set(sys.modules) & {"
                 "'concurrent.futures', 'multiprocessing', 'pickle'}))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0 ['pickle']"


class TestMisuse:
    """Every misuse exits 2 with a one-line message and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--jobs", "0"],
        ["verify", "--jobs", "-2"],
        ["verify", "--checks", ","],
        ["enumerate", "--family", "trees012", "--n", "0"],
        ["enumerate", "--family", "trees0123", "--n", "0"],
        ["verify", "--egf-order", "-1"],
        ["verify", "--max-n", "-2"],
        ["verify", "--max-n", "12", "--checks", "A-RISING"],
        ["verify", "--max-n", "12", "--egf-order", "3", "--report", "json"],
        ["verify", "--egf-order", "12", "--checks", "M-EGF"],
        ["verify", "--max-n", "3", "--egf-order", "9", "--report", "json"],
        # argparse's own errors: no usage block, one line
        ["verify", "--jobs", "x"],
        ["verify", "--no-such-flag"],
        ["enumerate", "--family", "widgets", "--n", "3"],
        ["enumerate", "--family", "perms"],
        ["poly", "--name", "Mn", "--n", "two"],
        [],
    ])
    def test_bad_arguments(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,message", [
        (["enumerate", "--family", "matchings", "--n", "-1"], "--n must be nonnegative"),
        (["enumerate", "--family", "trees012", "--n", "0"],
         "--n must be positive for trees012"),
        (["poly", "--name", "Mn", "--n", "0"], "--n must be positive"),
        (["poly", "--name", "xi", "--n", "0"], "--n must be positive"),
        (["poly", "--name", "Bn", "--n", "9"],
         "--n 9 exceeds the signed limit 8 (pass --force to override)"),
        (["grammar", "--rules", "{rules}", "--seed", "a", "--iterations", "-1"],
         "--iterations must be nonnegative"),
        (["grammar", "--rules", "{rules}", "--seed", "a+*", "--iterations", "1"],
         "--seed: 1:3: unexpected token '*'"),
        (["verify", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
        (["enumerate", "--family", "perms"], "the following arguments are required: --n"),
        (["verify", "--jobs", "0"], "--jobs must be a positive integer, got 0"),
    ])
    def test_exact_messages(self, tmp_path, capsys, argv, message):
        rules = tmp_path / "dumont.g"
        rules.write_text("a -> a*b\nb -> a*b\n")
        argv = [arg.replace("{rules}", str(rules)) for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("rules_text,seed", [
        # `str.isdigit` accepts a superscript two, which `int` cannot read
        ("a -> a*b\n", "a^\u00b2"),
        ("a -> a*b\n", "\u00b2"),
        ("a -> a*b\n", "1/\u00b2"),
        ("a -> a^\u00b2\n", "a"),
        # an identifier that no name token of a polynomial matches
        ("\u03b1 -> a\n", "a"),
    ])
    def test_text_outside_the_format(self, tmp_path, capsys, rules_text, seed):
        rules = tmp_path / "rules.g"
        rules.write_text(rules_text, encoding="utf-8")
        code, out, err = run_cli(capsys, "grammar", "--rules", str(rules),
                                 "--seed", seed, "--iterations", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_bounds_stay_valid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "M-MAIN,A-EGF",
                               "--max-n", "0", "--egf-order", "0")
        assert code == 0
        assert out.splitlines()[-1] == "1/1 checks passed, 1 skipped"

    def test_max_n_guard(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", "9")
        assert (code, out) == (2, "")
        assert err == ("error: --max-n 9 exceeds the verify limit 8 "
                       "(pass --force to override)\n")
        code, out, _ = run_cli(capsys, "verify", "--checks", "A-RISING",
                               "--max-n", "8")
        assert code == 0
        assert out.splitlines()[-1] == "1/1 checks passed"
        code, out, _ = run_cli(capsys, "verify", "--checks", "STIRLING1-ID",
                               "--max-n", "9", "--force")
        assert code == 0
        assert "max_n=9" in out and out.splitlines()[-1] == "1/1 checks passed"

    def test_declared_census_guard(self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(checks, "run_checks", lambda *args, **kwargs: ran.append(args) or [])
        limit = "above the verify limit 2,027,025 (pass --force to override)\n"
        for argv, census_read in [
                (["--max-n", "8"], "B-MAIN reads the signed census of n=8 (10,321,920 objects)"),
                (["--max-n", "8", "--checks", "A-RISING,C-GRAMMAR"],
                 "C-GRAMMAR reads the neighbor census of n=9 (34,459,425 objects)"),
                (["--max-n", "8", "--checks", "Q-DUMONT", "--out", str(tmp_path / "report")],
                 "Q-DUMONT reads the stirling census of n=9 (34,459,425 objects)")]:
            assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {census_read}, {limit}")
        assert not (tmp_path / "report").exists()
        # MP-BIJ reads the bij census of M_9, but the --max-n guard refuses first
        assert run_cli(capsys, "verify", "--max-n", "9", "--checks", "MP-BIJ") == (
            2, "", "error: --max-n 9 exceeds the verify limit 8 (pass --force to override)\n")
        assert ran == []
        # M_8, the largest census at the default bounds, is not refused
        for argv in (["--max-n", "8", "--checks", "M-EGF,MP-BIJ"], [],
                     ["--max-n", "8", "--force"]):
            assert run_cli(capsys, "verify", *argv) == (0, "0/0 checks passed\n", "")
        assert len(ran) == 3

    def test_egf_order_guard(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "M-EGF",
                                 "--egf-order", "9")
        assert (code, out) == (2, "")
        assert err == ("error: --egf-order 9 exceeds the verify limit 8 "
                       "(pass --force to override)\n")
        code, out, _ = run_cli(capsys, "verify", "--checks", "A-EGF",
                               "--egf-order", "8", "--report", "json")
        assert code == 0
        assert json.loads(out)["results"][0]["max_n"] == 8
        code, out, _ = run_cli(capsys, "verify", "--checks", "A-RISING",
                               "--max-n", "3", "--egf-order", "9", "--force")
        assert code == 0
        assert out.splitlines()[-1] == "1/1 checks passed"


GOLDEN_ENUMERATE = json.loads(
    (Path(__file__).parent / "golden" / "enumerate_small.json").read_text())


class TestStreamedOutput:
    """Rows are written as they are produced, byte for byte what the whole
    output rendered at once wrote (tests/golden/enumerate_small.json)."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_ENUMERATE))
    def test_stdout_is_byte_identical(self, capsys, case):
        family, n, fmt = case.split()
        code, out, _ = run_cli(capsys, "enumerate", "--family", family, "--n", n,
                               "--format", fmt)
        assert code == 0
        assert out == GOLDEN_ENUMERATE[case]

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_out_file_is_byte_identical(self, tmp_path, capsys, fmt):
        target = tmp_path / f"rows.{fmt}"
        code, out, _ = run_cli(capsys, "enumerate", "--family", "derangements",
                               "--n", "4", "--format", fmt, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == GOLDEN_ENUMERATE[f"derangements 4 {fmt}"].encode()


POLY_SIZES = ([(name, n) for name in sorted(cli._POLYS) for n in range(1, 6)]
              + [("xi", 60), ("gamma", 60)])
GRAMMAR_SEEDS = {"dumont_grammar": "a", "quadruple_statistic_grammar": "I",
                 "matching_statistic_grammar": "J", "neighbor_grammar": "I*y2*E",
                 "stirling_word_grammar": "x", "esym_w_grammar": "a",
                 "esym_uvw_grammar": "w"}


class TestRenderedOutput:
    """`poly` and `grammar` write their one line piece by piece, byte for
    byte what the whole string built at once wrote (tests/oracles.py)."""

    @pytest.mark.parametrize("name,n", POLY_SIZES)
    def test_poly_text(self, capsys, name, n):
        code, out, _ = run_cli(capsys, "poly", "--name", name, "--n", str(n))
        assert (code, out) == (0, oracles.render(cli._POLYS[name][1](n)) + "\n")

    @pytest.mark.parametrize("name,n", POLY_SIZES)
    def test_poly_json(self, capsys, name, n):
        _, poly, table = cli._POLYS[name]
        want = (oracles.table_json(table(n), name) if table is not None else
                json.dumps({"name": name, "n": n, "poly": oracles.render(poly(n))},
                           separators=(",", ":")))
        code, out, _ = run_cli(capsys, "poly", "--name", name, "--n", str(n),
                               "--format", "json")
        assert (code, out) == (0, want + "\n")

    def test_seeds_name_every_grammar(self):
        assert sorted(GRAMMAR_SEEDS) == sorted(
            name for name in vars(gr) if name.endswith("_grammar") and name != "parse_grammar")

    @pytest.mark.parametrize("name", sorted(GRAMMAR_SEEDS))
    def test_grammar(self, tmp_path, capsys, name):
        g = getattr(gr, name)()
        rules = tmp_path / f"{name}.g"
        rules.write_text("".join(f"{v} -> {oracles.render(rule)}\n"
                                 for v, rule in g.rules.items()))
        seed = GRAMMAR_SEEDS[name]
        code, out, _ = run_cli(capsys, "grammar", "--rules", str(rules),
                               "--seed", seed, "--iterations", "12")
        assert (code, out) == (0, oracles.render(gr.d_iter(g, parse_poly(seed), 12)) + "\n")

    @pytest.mark.parametrize("seed,iterations,text", [
        ("a", 1, "0"),  # a -> 0 takes a to the zero polynomial
        ("0", 0, "0"),
        ("b^2 - 3/2*a*b + 2/3 - a", 0, "-3/2*a*b + b^2 + -a + 2/3"),
    ], ids=["to-zero", "zero-seed", "signs-and-fractions"])
    def test_grammar_edge_terms(self, tmp_path, capsys, seed, iterations, text):
        rules = tmp_path / "zero.g"
        rules.write_text("a -> 0\n")
        code, out, _ = run_cli(capsys, "grammar", "--rules", str(rules),
                               "--seed", seed, "--iterations", str(iterations))
        assert (code, out) == (0, text + "\n")
        g = gr.parse_grammar("a -> 0\n")
        assert text == oracles.render(gr.d_iter(g, parse_poly(seed), iterations))

    def test_the_text_is_never_held_whole(self, tmp_path):
        st.xi_table(400)  # cached, so the table's own memory is not traced
        target = tmp_path / "xi-400.txt"
        tracemalloc.start()
        try:
            code = main(["poly", "--name", "xi", "--n", "400", "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < target.stat().st_size


FAMILY_SIZES = [(family, n) for family, (_, smallest, _, _) in sorted(cli._FAMILIES.items())
                for n in range(smallest, 6)]


def test_family_table_names_every_family():
    assert set(cli._FAMILIES) == {"matchings", "mwords", "perms", "signed",
                                  "derangements", "stirling", "trees012", "trees0123"}


class TestRowWriters:
    """The tuple rows and their direct writers give the bytes of the dict
    rows serialised by csv.DictWriter and JSONEncoder (tests/oracles.py)."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("family,n", FAMILY_SIZES)
    def test_same_bytes_as_dict_rows(self, family, n, fmt):
        want, got = io.StringIO(), io.StringIO()
        oracles.write_rows(fmt, family, *oracles.family_rows(family, n), want)
        cli._write_rows(fmt, *cli._family_rows(family, n), got)
        assert got.getvalue() == want.getvalue()

    def test_rows_are_tuples_in_field_order(self):
        fields, rows = cli._family_rows("matchings", 5)
        dict_fields, dict_rows = oracles.family_rows("matchings", 5)
        assert fields == dict_fields
        for row, want in zip(rows, dict_rows, strict=True):
            assert type(row) is tuple
            assert row == tuple(want[name] for name in fields)

    def test_json_escapes_the_text_field_like_json_encoder(self):
        fields = ["n", "rank", "word", "inv"]
        rows = [(3, 0, 'say "a\\b" caf\u00e9 \U0001d11e\n', 7), (3, 1, "", -2)]
        out = io.StringIO()
        cli._write_rows("json", fields, iter(rows), out)
        encode = json.JSONEncoder(separators=(",", ":")).encode
        items = [encode(dict(zip(fields, row))) for row in rows]
        assert out.getvalue() == "[" + ",".join(items) + "]\n"
        assert out.getvalue().isascii()

    @pytest.mark.parametrize("family,module,kernel", [
        ("matchings", mt, "pairwise_stats"),
        ("mwords", wd, "word_stats"),
        ("perms", pm, "perm_stats"),
        ("signed", pm, "cda"),
    ])
    def test_kernels_are_read_per_row(self, capsys, monkeypatch, family, module,
                                      kernel):
        argv = ("enumerate", "--family", family, "--n", "3", "--format", "csv")
        _, before, _ = run_cli(capsys, *argv)
        original = getattr(module, kernel)

        def perturbed(obj):
            stats = original(obj)
            if type(stats) is int:
                return stats + 100
            return stats._make(value + 100 for value in stats)

        monkeypatch.setattr(module, kernel, perturbed)
        code, after, _ = run_cli(capsys, *argv)
        assert code == 0
        assert after != before
        assert after.splitlines()[0] == before.splitlines()[0]


def _chordlab(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "chordlab.cli", *argv],
                          capture_output=True, text=True, **kwargs)


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--family", "perms", "--n", "3"],
        ["poly", "--name", "Mn", "--n", "3"],
        ["verify", "--checks", "A-RISING", "--max-n", "2"],
        ["grammar", "--rules", "{rules}", "--seed", "a", "--iterations", "2"],
    ])
    def test_unwritable_out_exits_2(self, tmp_path, argv):
        rules = tmp_path / "dumont.g"
        rules.write_text("a -> a*b\nb -> a*b\n")
        argv = [arg.replace("{rules}", str(rules)) for arg in argv]
        target = tmp_path / "missing" / "out.txt"
        result = _chordlab(*argv, "--out", str(target))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: cannot write {target}: "
                                 "No such file or directory\n")

    def test_out_is_opened_before_any_work(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("checks ran before --out was opened")

        monkeypatch.setattr(checks, "run_checks", forbidden)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("to_stdout", [False, True])
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--family", "perms", "--n", "3"],
        # fails inside the row stream, long before the final flush
        ["enumerate", "--family", "perms", "--n", "7", "--format", "csv"],
        ["poly", "--name", "Mn", "--n", "3"],
        ["verify", "--checks", "A-RISING", "--max-n", "2"],
        ["grammar", "--rules", "{rules}", "--seed", "a", "--iterations", "2"],
        # one 263,206-byte line, far past the write buffer
        ["poly", "--name", "xi", "--n", "120"],
    ])
    def test_full_device_exits_2(self, tmp_path, argv, to_stdout):
        rules = tmp_path / "dumont.g"
        rules.write_text("a -> a*b\nb -> a*b\n")
        argv = [arg.replace("{rules}", str(rules)) for arg in argv]
        if to_stdout:
            with open("/dev/full", "w") as full:
                result = subprocess.run([sys.executable, "-m", "chordlab.cli", *argv],
                                        stdout=full, stderr=subprocess.PIPE, text=True)
        else:
            result = _chordlab(*argv, "--out", "/dev/full")
            assert result.stdout == ""
        name = "standard output" if to_stdout else "/dev/full"
        assert result.returncode == 2
        assert result.stderr == f"error: cannot write {name}: No space left on device\n"

    def test_a_fork_that_fails_walks_serially(self, tmp_path, capsys, monkeypatch):
        def refuse():
            refused.append(None)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        refused = []
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(census, "SHARD_MIN", 12)  # shards S_4
        monkeypatch.setattr(census, "_cpus", lambda: 2)
        fds = os.listdir("/proc/self/fd")
        runs = []
        for jobs in ("1", "2"):
            chordlab.clear_caches()
            out = tmp_path / f"jobs{jobs}.json"
            code, stdout, err = run_cli(capsys, "verify", "--checks", "A-EQUIDIST", "--max-n",
                                        "4", "--jobs", jobs, "--report", "json", "--out", str(out))
            runs.append((code, stdout, err, re.sub(r'"ms": \d+', '"ms": 0', out.read_text())))
        assert refused == [None]  # --jobs 2 asked for one fork and no more
        assert runs[0] == runs[1] and runs[0][:3] == (0, "", "")
        assert os.listdir("/proc/self/fd") == fds  # the shard's pipe is closed

    def test_closed_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "chordlab.cli", "enumerate", "--family",
             "matchings", "--n", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14)\n"
        assert err == b""

    def test_closed_pipe_inside_a_line_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "chordlab.cli", "poly", "--name", "xi", "--n", "250"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"x^250 + 36185027"
        assert err == b""
