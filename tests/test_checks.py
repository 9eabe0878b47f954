import collections
import errno
import json
import os
import pickle
import signal
import time

import pytest

import chordlab
from chordlab import census as census_module
from chordlab import checks
from chordlab import matchings as mt
from chordlab import perms as pm
from chordlab import stirling as st
from chordlab import words as wd
from chordlab.algebra import NotSymmetricError, parse_poly
from chordlab.census import census
from chordlab.checks import (CheckResult, UnknownCheckIdError, check_ids,
                             report_json, report_table, run_checks)


@pytest.fixture
def fresh_caches():
    """Fault-injection tests patch statistics, so cached families must be
    rebuilt under the patch and discarded afterwards."""
    chordlab.clear_caches()
    yield
    chordlab.clear_caches()


@pytest.fixture
def forks(monkeypatch):
    """os.fork, counted: one entry per child the test forks."""
    forked = []
    real_fork = os.fork

    def counted():
        forked.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _normalized(results):
    out = []
    for r in results:
        d = r._asdict()
        d["ms"] = 0
        out.append(d)
    return out


class TestRunner:
    def test_m_main_small(self):
        results = run_checks(["M-MAIN"], max_n=3)
        assert len(results) == 1
        assert results[0].status == "pass"
        assert [row["status"] for row in results[0].per_n] == ["pass"] * 3

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckIdError):
            run_checks(["NO-SUCH-CHECK"])

    def test_bare_string_is_one_check_id(self):
        results = run_checks("M-SYM", max_n=2)
        assert [r.id for r in results] == ["M-SYM"]
        assert results[0].status == "pass"

    def test_repeated_id_runs_once(self):
        results = run_checks(["M-SYM", "A-RISING", "M-SYM"], max_n=2)
        assert [r.id for r in results] == ["M-SYM", "A-RISING"]

    def test_all_ids_registered(self):
        ids = check_ids()
        assert len(ids) == len(set(ids))
        required = {
            "A-EQUIDIST", "A-RISING", "A-EGF", "A-NEG", "M-MAIN", "M-SYM",
            "M-EGF", "TRACE-RISING", "STIRLING1-ID", "CONV", "COR2",
            "M-GAMMA", "DER-COUNT", "DNK", "B-MAIN", "B-DUAL", "COLORED",
            "CALLAN-EGF", "MP-BIJ", "I-STATS", "KZ-SYM", "KLAZAR-SYM",
            "C-GRAMMAR", "C-EPOS", "XI-TREE", "GAMMA-TREE", "XI-GAMMA",
            "Q-DUMONT", "Q-SYM", "Q-GRAMMAR", "Q-CHEN22", "C-Q-TRANSFORM",
            "Q-LNE", "Q-LRP", "NCA-RECU", "SIX-EULERIAN", "COUNT-CATALAN",
            "COUNT-NARAYANA", "COUNT-LNE-FACT", "FOATA-GAMMA",
        }
        assert required <= set(ids)

    def test_skip_status(self):
        results = run_checks(["M-MAIN"], max_n=0)
        assert results[0].status == "skip"
        assert results[0].per_n == []

    def test_report_json_schema(self):
        results = run_checks(["A-RISING"], max_n=3)
        blob = json.loads(report_json(results))
        assert set(blob) == {"results"}
        entry = blob["results"][0]
        assert set(entry) == {"id", "status", "max_n", "per_n", "witness", "ms"}
        assert entry["per_n"] == [{"n": 1, "status": "pass"},
                                  {"n": 2, "status": "pass"},
                                  {"n": 3, "status": "pass"}]

    def test_deterministic_across_runs(self):
        a = run_checks(["GOLDEN", "A-RISING", "TRACE-RISING"], max_n=3)
        b = run_checks(["GOLDEN", "A-RISING", "TRACE-RISING"], max_n=3)
        assert _normalized(a) == _normalized(b)

    def test_parallelism_does_not_change_results(self):
        serial = run_checks(["A-RISING", "STIRLING1-ID", "XI-GAMMA"], max_n=4)
        parallel = run_checks(["A-RISING", "STIRLING1-ID", "XI-GAMMA"],
                              max_n=4, jobs=2)
        assert _normalized(serial) == _normalized(parallel)

    def test_small_censuses_fork_nothing(self, monkeypatch):
        # --jobs bounds the shards of one census, not the processes of a run:
        # no census at max_n=2 reaches SHARD_MIN, so jobs=500 forks nothing.
        def refuse():
            raise AssertionError("a census below SHARD_MIN forked")

        monkeypatch.setattr(os, "fork", refuse)
        chordlab.clear_caches()
        results = run_checks(["A-RISING", "STIRLING1-ID", "A-EQUIDIST"], max_n=2, jobs=500)
        assert [r.status for r in results] == ["pass", "pass", "pass"]

    @pytest.mark.parametrize("name,args", [("perm", (4,)), ("neighbor", (3,)),
                                           ("signed", (3,)), ("stirling", (3,))])
    def test_a_census_of_k_shards_forks_k_children(
            self, fresh_caches, forks, monkeypatch, name, args):
        serial = list(census(name, *args).items())
        chordlab.clear_caches()
        monkeypatch.setattr(census_module, "SHARD_MIN", 1)
        monkeypatch.setattr(census_module, "_cpus", lambda: 3)
        with census_module.sharded(3, [(name, *args)]):
            sharded = list(census(name, *args).items())
        assert len(forks) == 3
        assert sharded == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_checks_do_not_abort_the_suite(self, fresh_caches, monkeypatch):
        real = mt.trace_indices
        monkeypatch.setattr(mt, "trace_indices", lambda m: real(m) - {1})
        chordlab.clear_caches()
        results = run_checks(["TRACE-RISING", "STIRLING1-ID"], max_n=3)
        assert [r.status for r in results] == ["fail", "pass"]

    def test_report_table_counts(self):
        results = run_checks(["A-RISING", "XI-GAMMA"], max_n=3)
        table = report_table(results)
        assert table.splitlines()[-1] == "2/2 checks passed"

    def test_report_table_counts_skips_apart(self):
        results = run_checks(["A-RISING", "M-MAIN", "A-EGF"], max_n=0, egf_order=2)
        assert [r.status for r in results] == ["skip", "skip", "pass"]
        assert report_table(results).splitlines()[-1] == "1/1 checks passed, 2 skipped"

    def test_exponent_transform_adds_colliding_images(self):
        p = parse_poly("x^2*y + 3*x*y^2 + y")
        assert checks._exponent_transform(
            p, ("x", "y"), ("t",), lambda v: (v[0] + v[1],)) == parse_poly("4*t^3 + t")
        with pytest.raises(NotSymmetricError,
                           match=r"^transform produced negative exponent t\^-1 from \(0, 1\)$"):
            checks._exponent_transform(p, ("x", "y"), ("t",), lambda v: (v[0] - 1,))


# One permutation in each half of S_4 in lexicographic order.
BAD_PERMS = [(1, 3, 2, 4), (4, 1, 3, 2)]


class TestProcesses:
    """--jobs forks children that walk census shards from the start of the
    run; none outlives run_checks, and none changes a result."""

    @pytest.fixture(autouse=True)
    def _small_shards(self, fresh_caches, monkeypatch):
        monkeypatch.setattr(census_module, "SHARD_MIN", 12)  # S_4 gets 2 shards at jobs=2
        monkeypatch.setattr(census_module, "_cpus", lambda: 2)

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_census_declared_but_never_read_is_reaped(self, forks, monkeypatch):
        check = checks._REGISTRY["A-RISING"]
        monkeypatch.setitem(checks._REGISTRY, "A-RISING",
                            check._replace(reads=lambda max_n, egf_order: [("block", 4)]))
        results = run_checks(["A-RISING"], max_n=3, jobs=2)
        assert [r.status for r in results] == ["pass"]
        assert len(forks) == 2 and ("block", 4) not in census_module._CACHE
        self._assert_no_child_left()

    def test_an_exception_out_of_a_check_kills_the_children(self, forks, monkeypatch):
        def stuck(pi):
            time.sleep(60)

        def interrupted(max_n, egf_order):
            raise KeyboardInterrupt("interrupted")

        monkeypatch.setattr(pm, "perm_stats", stuck)  # reaches the children
        monkeypatch.setitem(checks._REGISTRY, "GOLDEN", checks._REGISTRY["GOLDEN"]._replace(
            run=interrupted, reads=lambda max_n, egf_order: [("perm", 4)]))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt, match="interrupted"):
            run_checks(["GOLDEN"], jobs=2)
        assert len(forks) == 2 and time.monotonic() - started < 30
        self._assert_no_child_left()

    def test_a_shard_larger_than_the_pipe_buffer(self, forks, monkeypatch):
        # Each half of S_8 tallied by identity pickles to several pipe
        # buffers, so its child exits only once the parent has read its
        # whole pipe.
        monkeypatch.setattr(pm, "perm_stats", lambda pi: pi)
        monkeypatch.setattr(census_module, "SHARD_MIN", 20160)
        assert len(pickle.dumps(census_module._walk((("perm", 8),), 0, 20160))) > 4 * 65536
        with census_module.sharded(2, [("perm", 8)]):
            assert len(forks) == 2
            assert census("perm", 8) == collections.Counter(pm.enumerate_permutations(8))
        self._assert_no_child_left()

    def test_no_more_shards_than_jobs_or_cpus(self, forks, monkeypatch):
        monkeypatch.setattr(census_module, "SHARD_MIN", 1)
        with census_module.sharded(8, [("perm", 4), ("signed", 3)]):
            assert len(forks) == 4  # two halves of each group, all forked at once
            assert census("perm", 4) == collections.Counter(
                map(pm.perm_stats, pm.enumerate_permutations(4)))
            assert census("signed", 3) == collections.Counter(
                map(pm.signed_stats, pm.enumerate_signed(3)))
        self._assert_no_child_left()

    def test_children_run_at_lower_priority(self, forks, monkeypatch):
        monkeypatch.setattr(pm, "perm_stats", lambda pi: os.nice(0))
        with census_module.sharded(2, [("perm", 4)]):
            assert list(census("perm", 4)) == [min(os.nice(0) + 10, 19)]
        assert len(forks) == 2
        self._assert_no_child_left()

    def test_the_parent_never_walks_a_shard(self, monkeypatch):
        ranged = []
        real = census_module._walk

        def walk(keys, *rank_range):
            if rank_range:  # a child's walk appends to its own copy
                ranged.append((keys, rank_range))
            return real(keys, *rank_range)

        monkeypatch.setattr(census_module, "_walk", walk)
        monkeypatch.setattr(census_module, "SHARD_MIN", 30_000)  # cuts B_6, M_7 and Q_7
        results = run_checks("all", max_n=6, egf_order=6, jobs=2)
        assert {r.status for r in results} == {"pass"}
        assert ranged == []
        self._assert_no_child_left()

    def test_a_raising_shard_does_not_wait_for_the_others(self, forks, monkeypatch):
        # The first half of S_4 raises; the second half's child would sleep
        # for a minute.  The first half's child exits nonzero, so the census
        # is walked serially at once, the check fails as it does serially,
        # and the sleeping child is killed when the run ends.
        real, parent = pm.perm_stats, os.getpid()
        bad = BAD_PERMS[0]

        def raising(pi):
            if pi == bad:
                raise ValueError(f"no statistics for {pi}")
            if len(pi) == 4 and pi >= (3,) and os.getpid() != parent:
                time.sleep(60)
            return real(pi)

        monkeypatch.setattr(pm, "perm_stats", raising)
        started = time.monotonic()
        sharded = run_checks(["A-EQUIDIST"], max_n=4, jobs=2)
        assert len(forks) == 2 and time.monotonic() - started < 30
        self._assert_no_child_left()
        chordlab.clear_caches()
        serial = run_checks(["A-EQUIDIST"], max_n=4)
        assert serial[0].witness == f"exception: ValueError('no statistics for {bad}')"
        assert _normalized(sharded) == _normalized(serial)

    @pytest.mark.parametrize("bad", BAD_PERMS)
    def test_a_kernel_raising_in_a_prefetched_shard(self, forks, monkeypatch, bad):
        def raising(pi):
            if pi == bad:
                raise ValueError(f"no statistics for {pi}")
            return real(pi)

        real = pm.perm_stats
        monkeypatch.setattr(pm, "perm_stats", raising)
        sharded = run_checks(["A-EQUIDIST"], max_n=4, jobs=2)
        assert len(forks) == 2  # both halves of S_4, from the start of the run
        chordlab.clear_caches()
        serial = run_checks(["A-EQUIDIST"], max_n=4)
        assert serial[0].witness == f"exception: ValueError('no statistics for {bad}')"
        assert _normalized(sharded) == _normalized(serial)
        self._assert_no_child_left()

    # A shard that fails, however it fails, is walked serially: every check
    # at (4, 5), where 10 groups are cut in two, gives the serial results.
    def _assert_serial_results(self):
        """Run every check at (4, 5) serially, then with jobs=2, and require
        equal results with ms zeroed, no child left and no file left open.
        Returns the serial results."""
        chordlab.clear_caches()
        serial = _normalized(run_checks("all", max_n=4, egf_order=5))
        chordlab.clear_caches()
        fds = os.listdir("/proc/self/fd")
        assert _normalized(run_checks("all", max_n=4, egf_order=5, jobs=2)) == serial
        self._assert_no_child_left()
        assert os.listdir("/proc/self/fd") == fds
        return serial

    @pytest.mark.parametrize("call", ["first", "middle", "last"])
    def test_a_refused_fork_walks_serially(self, monkeypatch, call):
        def fork():
            calls.append(None)
            if len(calls) == refused:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        calls, refused, real = [], None, os.fork
        monkeypatch.setattr(os, "fork", fork)
        run_checks("all", max_n=4, egf_order=5, jobs=2)  # counts the forks
        refused = {"first": 1, "middle": len(calls) // 2, "last": len(calls)}[call]
        calls.clear()
        self._assert_serial_results()
        assert len(calls) == refused  # none after the refusal

    def test_a_killed_child_walks_serially(self, monkeypatch):
        def fork(keys, lo, hi):
            pid = real(keys, lo, hi)
            if keys[0][0] == "perm" and not killed:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            return pid

        def stuck(pi):  # so the killed child, on S_4, is still walking
            if len(pi) == 4 and os.getpid() != parent:
                time.sleep(60)
            return stats(pi)

        killed, real, stats, parent = [], census_module._fork, pm.perm_stats, os.getpid()
        monkeypatch.setattr(census_module, "_fork", fork)
        monkeypatch.setattr(pm, "perm_stats", stuck)
        started = time.monotonic()
        self._assert_serial_results()
        assert len(killed) == 1 and time.monotonic() - started < 30

    def test_a_child_that_exits_nonzero_walks_serially(self, forks, monkeypatch):
        def leaving(pi):
            if os.getpid() != parent:
                os._exit(3)
            return stats(pi)

        stats, parent = pm.perm_stats, os.getpid()
        monkeypatch.setattr(pm, "perm_stats", leaving)
        self._assert_serial_results()
        assert forks

    def test_a_kernel_raising_what_pickle_cannot_write(self, forks, monkeypatch):
        class Odd(Exception):  # a local class with a lambda in it
            pass

        def raising(pi):
            if pi == BAD_PERMS[0]:
                raise Odd(unpicklable)
            return stats(pi)

        stats, unpicklable = pm.perm_stats, lambda: 0
        monkeypatch.setattr(pm, "perm_stats", raising)
        serial = self._assert_serial_results()
        assert forks and any(r["witness"] == f"exception: Odd({unpicklable!r})"
                             for r in serial)

    def test_one_job_forks_nothing(self, monkeypatch):
        def refuse():
            raise AssertionError("jobs=1 forked")

        monkeypatch.setattr(os, "fork", refuse)
        results = run_checks("all", max_n=6, egf_order=6, jobs=1)
        assert {r.status for r in results} == {"pass"}


class TestFaultInjection:
    """Criterion: perturbing any single statistic implementation must make at
    least one named check fail, and failing results always carry a witness."""

    def _assert_some_failure(self, selection, max_n=None, expect=None):
        results = run_checks(selection, max_n=max_n)
        failing = [r for r in results if r.status == "fail"]
        assert failing, f"no check failed among {selection}"
        for r in failing:
            assert r.witness, f"{r.id} failed without a witness"
        if expect is not None:
            assert expect in {r.id for r in failing}
        return failing

    def test_flipped_lne_lcr_is_caught_by_the_transfer_check(
            self, fresh_caches, monkeypatch):
        # The six Eulerian sums and C_n survive a clean lne/lcr flip by
        # symmetry; the object-level transfer check is what catches it.
        real = wd.neighbor_classify

        def flipped(w):
            c = real(w)
            return wd.NeighborClassification(
                lne=c.lcr, lcr=c.lne, nal=c.nal, rrp=c.rrp, lrp=c.lrp)

        monkeypatch.setattr(wd, "neighbor_classify", flipped)
        chordlab.clear_caches()
        failing = self._assert_some_failure(
            ["MP-BIJ", "SIX-EULERIAN"], max_n=3, expect="MP-BIJ")
        witness = next(r.witness for r in failing if r.id == "MP-BIJ")
        assert "n=2" in witness  # smallest failing object

    def test_biased_nal_is_caught_by_an_aggregate_check(
            self, fresh_caches, monkeypatch):
        real = wd.neighbor_classify

        def biased(w):
            c = real(w)
            # shovel the left-crossing indices into the alignment class
            return wd.NeighborClassification(
                lne=c.lne, lcr=0, nal=c.nal + c.lcr, rrp=c.rrp, lrp=c.lrp)

        monkeypatch.setattr(wd, "neighbor_classify", biased)
        chordlab.clear_caches()
        failing = self._assert_some_failure(
            ["SIX-EULERIAN", "NCA-RECU"], max_n=3, expect="SIX-EULERIAN")
        witness = next(r.witness for r in failing if r.id == "SIX-EULERIAN")
        # the deficit comes from filtered-out words, so the witness here is
        # the polynomial difference itself
        assert "lhs - rhs" in witness

    def test_perturbed_trace(self, fresh_caches, monkeypatch):
        real = mt.trace_indices
        monkeypatch.setattr(mt, "trace_indices", lambda m: real(m) - {1})
        chordlab.clear_caches()
        self._assert_some_failure(["TRACE-RISING", "M-MAIN"], max_n=3,
                                  expect="TRACE-RISING")

    @staticmethod
    def _misclassify_blocks(monkeypatch):
        real = mt.block_stats

        def misclassified(m):
            bs = real(m)
            # count fixed blocks as even-larger blocks too
            return mt.BlockStats(fixb=bs.fixb, elblock=bs.elblock + bs.fixb,
                                 olblock=bs.olblock, esblock=bs.esblock,
                                 osblock=bs.osblock, even_to_odd=bs.even_to_odd)

        monkeypatch.setattr(mt, "block_stats", misclassified)
        chordlab.clear_caches()

    def test_perturbed_block_class(self, fresh_caches, monkeypatch):
        self._misclassify_blocks(monkeypatch)
        self._assert_some_failure(["M-MAIN"], max_n=3, expect="M-MAIN")

    def test_perturbed_block_class_in_shards(self, fresh_caches, forks, monkeypatch):
        self._misclassify_blocks(monkeypatch)
        monkeypatch.setattr(census_module, "SHARD_MIN", 100)  # M_4 has 105 matchings
        monkeypatch.setattr(census_module, "_cpus", lambda: 2)
        sharded = run_checks(["M-MAIN", "M-SYM"], max_n=4, jobs=2)
        assert forks, "M_4 was not sharded"
        chordlab.clear_caches()
        serial = run_checks(["M-MAIN", "M-SYM"], max_n=4)
        assert "fail" in {r.status for r in serial}
        assert [(r.id, r.status, r.witness) for r in sharded] == [
            (r.id, r.status, r.witness) for r in serial]

    def test_kernel_raising_in_a_group_walk(self, fresh_caches, monkeypatch):
        # GOLDEN's block and neighbor censuses of M_3 share one walk with
        # the pair, bij and word censuses of KZ-SYM, MP-BIJ and I-STATS; a
        # raising pairwise_stats, which both the pair and bij censuses read,
        # fails those three alone, each with the exception as its witness.
        real = mt.pairwise_stats

        def raising(m):
            if m == ((1, 3), (2, 5), (4, 6)):
                raise ValueError(f"no statistics for {m}")
            return real(m)

        monkeypatch.setattr(mt, "pairwise_stats", raising)
        results = run_checks(["GOLDEN", "M-MAIN", "KZ-SYM", "MP-BIJ", "I-STATS"], max_n=3)
        assert [(r.id, r.status) for r in results] == [
            ("GOLDEN", "pass"), ("M-MAIN", "pass"), ("KZ-SYM", "fail"),
            ("MP-BIJ", "fail"), ("I-STATS", "fail")]
        assert {r.witness for r in results[2:]} == {
            "exception: ValueError('no statistics for ((1, 3), (2, 5), (4, 6))')"}

    @pytest.mark.parametrize("module,kernel,field", [
        *((mt, "pairwise_stats", f)
          for f in ("lne", "lcr", "nal", "rrp", "lrp", "ne", "cr", "al")),
        *((wd, "neighbor_classify", f) for f in wd.NeighborClassification._fields),
        *((wd, "word_stats", f) for f in wd.WordStats._fields)])
    def test_mp_bij_compares_both_sides(self, fresh_caches, monkeypatch,
                                        module, kernel, field):
        # MP-BIJ compares each field of either side with its image on the
        # other, so one side perturbed on some objects fails it, whichever
        # side, however the walk shares its values; tuples of ints hash
        # alike under every hash seed.
        real = getattr(module, kernel)

        def perturbed(obj):
            value = real(obj)
            return value._replace(**{field: getattr(value, field) + 1}) if hash(obj) % 2 else value

        monkeypatch.setattr(module, kernel, perturbed)
        self._assert_some_failure(["MP-BIJ"], max_n=4)

    def test_weak_excedance(self, fresh_caches, monkeypatch):
        real = pm.perm_stats

        def weak(pi):
            s = real(pi)
            return pm.PermStats(exc=s.exc + s.fix, drop=s.drop, fix=s.fix,
                                cyc=s.cyc, asc=s.asc, des=s.des, inv=s.inv,
                                cda=s.cda, dd=s.dd)

        monkeypatch.setattr(pm, "perm_stats", weak)
        chordlab.clear_caches()
        self._assert_some_failure(["A-EQUIDIST", "M-MAIN"], max_n=3)

    def test_dropped_stirling_boundary(self, fresh_caches, monkeypatch):
        real = st.stirling_word_stats

        def no_final_zero(word):
            padded = (0,) + word
            asc = plat = des = 0
            for i in range(len(padded) - 1):
                a, b = padded[i], padded[i + 1]
                if a < b:
                    asc += 1
                elif a == b:
                    plat += 1
                else:
                    des += 1
            return asc, plat, des

        monkeypatch.setattr(st, "stirling_word_stats", no_final_zero)
        chordlab.clear_caches()
        self._assert_some_failure(["Q-GRAMMAR", "Q-LNE"], max_n=3,
                                  expect="Q-GRAMMAR")

    def test_perturbed_rank(self, fresh_caches, monkeypatch):
        real = wd.word_stats

        def bad_rank(w):
            s = real(w)
            return wd.WordStats(inv=s.inv, coinv=s.coinv, rank=s.rank + s.inv)

        monkeypatch.setattr(wd, "word_stats", bad_rank)
        chordlab.clear_caches()
        failing = self._assert_some_failure(["I-STATS"], max_n=3, expect="I-STATS")
        assert "first word in diff" in failing[0].witness

    def test_unrestricted_left_nesting(self, fresh_caches, monkeypatch):
        real = mt.pairwise_stats

        def all_nestings_left(m):
            ps = real(m)
            return mt.PairStats(cr=ps.cr, ne=ps.ne, al=ps.al, lne=ps.ne,
                                lcr=ps.lcr, nal=ps.nal, lrp=ps.lrp, rrp=ps.rrp)

        monkeypatch.setattr(mt, "pairwise_stats", all_nestings_left)
        chordlab.clear_caches()
        self._assert_some_failure(["COUNT-LNE-FACT", "Q-LNE"], max_n=4)

    def test_single_counted_as_fix(self, fresh_caches, monkeypatch):
        real = pm.signed_stats

        def confused(sigma):
            s = real(sigma)
            return pm.SignedStats(wexc=s.wexc, exc_B=s.exc_B, drop_B=s.drop_B,
                                  fix_B=s.fix_B + s.single, single=0,
                                  cyc_B=s.cyc_B)

        monkeypatch.setattr(pm, "signed_stats", confused)
        chordlab.clear_caches()
        failing = self._assert_some_failure(["B-MAIN"], max_n=3, expect="B-MAIN")
        assert "definitional mismatch" in failing[0].witness

    def test_perturbed_cda(self, fresh_caches, monkeypatch):
        real = pm.perm_stats

        def no_cda(pi):
            s = real(pi)
            return pm.PermStats(exc=s.exc, drop=s.drop, fix=s.fix, cyc=s.cyc,
                                asc=s.asc, des=s.des, inv=s.inv, cda=0, dd=s.dd)

        monkeypatch.setattr(pm, "perm_stats", no_cda)
        chordlab.clear_caches()
        self._assert_some_failure(["DNK"], max_n=4, expect="DNK")

    def test_perturbed_double_descent_boundary(self, fresh_caches, monkeypatch):
        real = pm.perm_stats

        def no_boundary(pi):
            s = real(pi)
            n = len(pi)
            dd = sum(1 for i in range(1, n - 1)
                     if pi[i - 1] > pi[i] > pi[i + 1])
            return pm.PermStats(exc=s.exc, drop=s.drop, fix=s.fix, cyc=s.cyc,
                                asc=s.asc, des=s.des, inv=s.inv, cda=s.cda, dd=dd)

        monkeypatch.setattr(pm, "perm_stats", no_boundary)
        chordlab.clear_caches()
        self._assert_some_failure(["FOATA-GAMMA"], max_n=4, expect="FOATA-GAMMA")
