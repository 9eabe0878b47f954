import itertools
import math
from fractions import Fraction

import pytest

from chordlab import perms as pm
from chordlab.algebra import MVPoly, parse_poly, rising_factorial


class TestEnumeration:
    def test_empty(self):
        assert list(pm.enumerate_permutations(0)) == [()]

    def test_s3(self):
        perms = list(pm.enumerate_permutations(3))
        assert len(perms) == 6
        assert perms == sorted(perms)

    def test_derangements_of_3(self):
        assert list(pm.enumerate_derangements(3)) == [(2, 3, 1), (3, 1, 2)]

    def test_signed_count(self):
        assert sum(1 for _ in pm.enumerate_signed(2)) == 8

    def test_signed_lex_order(self):
        windows = list(pm.enumerate_signed(2))
        assert windows == sorted(windows)

    def test_restart_matches_slice(self):
        full = list(pm.enumerate_permutations(4))
        for start in (0, 1, 5, 23, 24):
            assert list(pm.enumerate_permutations(4, start_rank=start)) == full[start:]
        signed = list(pm.enumerate_signed(2))
        for start in (0, 3, 7, 8):
            assert list(pm.enumerate_signed(2, start_rank=start)) == signed[start:]

    def test_every_start_rank_matches_itertools(self):
        for n in range(7):
            full = list(itertools.permutations(range(1, n + 1)))
            for start in range(math.factorial(n) + 2):
                assert list(pm.enumerate_permutations(n, start)) == full[start:], (n, start)

    def test_start_ranks_at_n7(self):
        full = list(itertools.permutations(range(1, 8)))
        for start in (1, 119, 720, 2519, 4319, 5038, 5039, 5040):
            head = list(itertools.islice(pm.enumerate_permutations(7, start), 800))
            assert head == full[start:start + 800]


class TestStats:
    def test_identity(self):
        s = pm.perm_stats((1, 2, 3))
        assert (s.exc, s.drop, s.fix, s.cyc, s.asc, s.des) == (0, 0, 3, 3, 2, 0)

    def test_cycle_polynomial_s3(self):
        counts = {}
        for pi in pm.enumerate_permutations(3):
            c = pm.perm_stats(pi).cyc
            counts[(c,)] = counts.get((c,), 0) + 1
        assert MVPoly.from_exponents(counts, ("q",)) == parse_poly("q^3 + 3*q^2 + 2*q")

    def test_alpha_counts_n4(self):
        # no-double-descent permutations by descent count
        alpha = {}
        for pi in pm.enumerate_permutations(4):
            s = pm.perm_stats(pi)
            if s.dd == 0:
                alpha[s.des] = alpha.get(s.des, 0) + 1
        assert alpha == {0: 1, 1: 8}

    def test_drop_identity(self):
        for pi in pm.enumerate_permutations(5):
            s = pm.perm_stats(pi)
            assert s.drop == 5 - s.exc - s.fix

    def test_cda(self):
        # 3 1 2: values 1,2 are drops, 3 at position 1; pi^{-1}(2)=3 > 2
        assert pm.perm_stats((3, 1, 2)).cda == 0
        # 2 3 1: i=2 has pi^{-1}(2)=1 < 2 < pi(2)=3
        assert pm.perm_stats((2, 3, 1)).cda == 1


class TestEulerianFamilies:
    def test_small_values(self):
        assert pm.eulerian_xy(1) == MVPoly.const(1)
        assert pm.eulerian_xy(2) == parse_poly("x + y")

    def test_symmetry(self):
        for n in range(1, 8):
            p = pm.eulerian_xy(n)
            assert p == p.subst({"x": MVPoly.var("y"), "y": MVPoly.var("x")})

    def test_negative_one_specializations(self):
        x = MVPoly.var("x")
        a4 = pm.eulerian_xpq(4)
        assert a4.subst({"p": 1, "q": -1}) == -((x - MVPoly.const(1)) ** 3)
        assert a4.subst({"p": 0, "q": -1}) == parse_poly("-x - x^2 - x^3")

    def test_rising(self):
        assert pm.eulerian_xpq(3).subst({"x": 1, "p": 1}) == rising_factorial(1, 3)


class TestDerangements:
    def test_d2(self):
        assert pm.derangement_poly(2) == parse_poly("q*x")

    def test_count_formula(self):
        assert pm.derangement_poly(4).evaluate({"x": 1, "q": 1}) == 9
        assert pm.derangement_count(4) == 9

    def test_dnk_reassembly_n4(self):
        x = MVPoly.var("x")
        rhs = MVPoly.zero()
        for k, qpoly in pm.dnk_table(4).items():
            rhs = rhs + qpoly * x ** k * (MVPoly.const(1) + x) ** (4 - 2 * k)
        assert rhs == pm.derangement_poly(4)


class TestSigned:
    def test_identity_window(self):
        s = pm.signed_stats((1, 2))
        assert (s.wexc, s.fix_B, s.cyc_B) == (0, 2, 2)

    def test_negated_singleton(self):
        s = pm.signed_stats((-1,))
        assert (s.wexc, s.fix_B, s.cyc_B) == (1, 0, 1)
        assert pm.b_poly(1) == parse_poly("q*p + q*x")

    def test_type_b_derangement_golden(self):
        assert pm.type_b_derangement_poly(1) == parse_poly("x")
        assert pm.type_b_derangement_poly(2) == parse_poly("4*x + x^2")
        assert pm.type_b_derangement_poly(3) == parse_poly("8*x + 20*x^2 + x^3")

    def test_b_equals_scaled_a(self):
        half = Fraction(1, 2) * (MVPoly.var("p") + MVPoly.var("x"))
        for n in range(1, 5):
            assert pm.b_poly(n) == pm.eulerian_xpq(n).subst({"p": half}) * 2 ** n


class TestColored:
    def test_r1_is_type_a(self):
        for n in range(1, 7):
            assert pm.colored_eulerian(n, 1) == pm.eulerian_xy(n).subst({"y": 1})

    def test_r2_is_type_b(self):
        for n in range(1, 5):
            assert pm.colored_eulerian(n, 2) == pm.b_poly(n).subst({"p": 1, "q": 1})
