import pytest

import oracles
from chordlab import matchings as mt
from chordlab import words as wd
from chordlab.algebra import parse_poly


class TestBijection:
    def test_figure_two(self):
        assert wd.word_text(wd.from_matching(((1, 2), (3, 4)))) == "1 1' 2 2'"
        assert wd.word_text(wd.from_matching(((1, 3), (2, 4)))) == "1 2 1' 2'"
        assert wd.word_text(wd.from_matching(((2, 3), (1, 4)))) == "2 1 1' 2'"

    def test_round_trip_m5(self):
        for m in mt.enumerate_matchings(5):
            assert wd.to_matching(wd.from_matching(m)) == m

    def test_words_are_valid(self):
        for w in wd.enumerate_words(4):
            wd.validate_word(w)

    def test_insertion_generator_agrees(self):
        for n in range(1, 6):
            via_matchings = set(wd.enumerate_words(n))
            via_insertion = set(oracles.insertion_words(n))
            assert via_matchings == via_insertion
            assert len(list(oracles.insertion_words(n))) == oracles.double_factorial(2 * n - 1)

    def test_validate_rejects_bad_words(self):
        with pytest.raises(ValueError):
            wd.validate_word(((1, True), (1, False)))  # closed before opened
        with pytest.raises(ValueError):
            # barred out of order
            wd.validate_word(((1, False), (2, False), (2, True), (1, True)))


class TestNeighborClassification:
    def test_worked_example(self):
        w = oracles.word_from_text("2 1 1' 3 4 2' 3' 4' 5 5'")
        lne, lcr, nal, rrp, lrp = oracles.neighbor_classify(w)
        assert sorted(lne) == [1]
        assert sorted(lcr) == [4]
        assert sorted(nal) == [3, 8]
        assert sorted(rrp) == [6, 7]
        assert sorted(lrp) == [2, 5, 9]
        assert wd.neighbor_classify(w) == wd.NeighborClassification(
            lne=1, lcr=1, nal=2, rrp=2, lrp=3)

    def test_simple_word(self):
        lne, lcr, nal, rrp, lrp = oracles.neighbor_classify(
            oracles.word_from_text("1 1' 2 2'"))
        assert sorted(lrp) == [1, 3]
        assert sorted(nal) == [2]

    def test_partition_property(self):
        for n in (2, 3):
            for w in wd.enumerate_words(n):
                sets = oracles.neighbor_classify(w)
                lne, lcr, nal, rrp, lrp = map(len, sets)
                union = set().union(*sets)
                assert union == set(range(1, 2 * n))
                assert sum(len(s) for s in sets) == 2 * n - 1
                assert rrp + lrp == n
                assert lne + lcr + nal == n - 1
                assert lrp >= 1


class TestWordStats:
    def test_aligned_pair(self):
        s = wd.word_stats(oracles.word_from_text("1 1' 2 2'"))
        # the ascending unbarred pair sits outside arc 1's span: an alignment
        assert (s.inv, s.coinv, s.rank) == (0, 0, 1)

    def test_crossing_pair(self):
        s = wd.word_stats(oracles.word_from_text("1 2 1' 2'"))
        assert (s.inv, s.coinv, s.rank) == (0, 1, 0)

    def test_nested_pair(self):
        s = wd.word_stats(oracles.word_from_text("2 1 1' 2'"))
        assert (s.inv, s.coinv, s.rank) == (1, 0, 0)

    def test_statistic_transfer_m4(self):
        for m in mt.enumerate_matchings(4):
            ps = mt.pairwise_stats(m)
            w = wd.from_matching(m)
            ws = wd.word_stats(w)
            assert (ws.inv, ws.coinv, ws.rank) == (ps.ne, ps.cr, ps.al)
            c = wd.neighbor_classify(w)
            assert (c.lne, c.lcr, c.nal, c.rrp, c.lrp) \
                == (ps.lne, ps.lcr, ps.nal, ps.rrp, ps.lrp)

    def test_word_polynomial_equals_i_poly(self):
        for n in range(1, 6):
            counts = {}
            for w in wd.enumerate_words(n):
                s = wd.word_stats(w)
                key = (s.inv, s.coinv, s.rank)
                counts[key] = counts.get(key, 0) + 1
            from chordlab.algebra import MVPoly
            assert MVPoly.from_exponents(counts, ("x", "y", "q")) == mt.i_poly(n)


class TestNeighborPolynomials:
    def test_c_poly_golden(self):
        assert wd.c_poly(1) == parse_poly("y2")
        assert wd.c_poly(2) == parse_poly("(x1 + x2)*y1*y2 + x3*y2^2")

    def test_nca_golden(self):
        assert wd.nca_poly(3) == parse_poly("x^2 + 4*x*y + y^2 + 4*x*z + 4*y*z + z^2")
        assert wd.nca_poly(4) == parse_poly(
            "x^3 + 11*x^2*y + 11*x*y^2 + y^3 + 11*x^2*z + 36*x*y*z"
            " + 11*y^2*z + 11*x*z^2 + 11*y*z^2 + z^3")

    def test_nca_equals_ncr(self):
        for n in range(1, 6):
            assert wd.nca_poly(n) == wd.ncr_poly(n)

    def test_word_text_round_trip(self):
        for w in wd.enumerate_words(3):
            assert oracles.word_from_text(wd.word_text(w)) == w
