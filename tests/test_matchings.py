import math

import pytest

import oracles
from chordlab import matchings as mt
from chordlab.algebra import MVPoly, parse_poly


class TestEnumeration:
    def test_small_counts(self):
        for n in range(6):
            expected = oracles.double_factorial(2 * n - 1)
            assert sum(1 for _ in mt.enumerate_matchings(n)) == expected

    def test_n1(self):
        assert list(mt.enumerate_matchings(1)) == [((1, 2),)]

    def test_n2_is_figure_one(self):
        got = list(mt.enumerate_matchings(2))
        assert set(got) == {(((1, 2)), ((3, 4))), ((1, 3), (2, 4)), ((2, 3), (1, 4))}
        assert len(got) == 3

    def test_standard_form_invariants(self):
        for m in mt.enumerate_matchings(4):
            oracles.validate_matching(m)

    def test_no_duplicates_n5(self):
        seen = set(mt.enumerate_matchings(5))
        assert len(seen) == 945

    def test_restart_matches_slice(self):
        full = list(mt.enumerate_matchings(3))
        for start in (0, 1, 7, 14, 15):
            assert list(mt.enumerate_matchings(3, start_rank=start)) == full[start:]


class TestBlockStats:
    def test_all_fixed(self):
        bs = mt.block_stats(((1, 2), (3, 4)))
        assert (bs.fixb, bs.elblock, bs.olblock) == (2, 0, 0)

    def test_mixed(self):
        bs = mt.block_stats(((2, 3), (1, 4)))
        assert (bs.olblock, bs.elblock, bs.esblock, bs.osblock) == (1, 1, 1, 1)

    def test_even_to_odd_free_counts(self):
        got = [mt.count_even_to_odd_free(n) for n in range(5)]
        assert got == [1, 1, 2, 7, 35]

    def test_partition_identities(self):
        for n in range(1, 6):
            for m in mt.enumerate_matchings(n):
                bs = mt.block_stats(m)
                assert bs.fixb + bs.elblock + bs.olblock == n
                assert bs.fixb + bs.osblock + bs.olblock == n
                assert bs.esblock == n - bs.fixb - bs.elblock


class TestPairwiseStats:
    def test_nesting(self):
        ps = mt.pairwise_stats(((2, 3), (1, 4)))
        assert (ps.ne, ps.lne, ps.cr, ps.al, ps.lrp) == (1, 1, 0, 0, 1)

    def test_crossing(self):
        ps = mt.pairwise_stats(((1, 3), (2, 4)))
        assert (ps.cr, ps.lcr, ps.ne, ps.lrp, ps.rrp) == (1, 1, 0, 1, 1)

    def test_noncrossing_narayana_row_n3(self):
        noncrossing = [m for m in mt.enumerate_matchings(3)
                       if mt.pairwise_stats(m).cr == 0]
        assert len(noncrossing) == 5
        by_adjacent = {}
        for m in noncrossing:
            k = sum(1 for a, b in m if b == a + 1)
            by_adjacent[k] = by_adjacent.get(k, 0) + 1
        assert by_adjacent == {1: 1, 2: 3, 3: 1}


class TestGeneration:
    def test_psi(self):
        assert oracles.extend_psi(((1, 2),)) == ((1, 2), (3, 4))

    def test_psi1(self):
        assert oracles.extend_psi1(((1, 2),), (1, 2)) == ((1, 3), (2, 4))

    def test_psi2(self):
        assert oracles.extend_psi2(((1, 2),), (1, 2)) == ((2, 3), (1, 4))

    def test_arc_not_found(self):
        with pytest.raises(oracles.ArcNotFoundError):
            oracles.extend_psi1(((1, 2),), (1, 3))

    def test_reduce_examples(self):
        assert oracles.reduce_step(((1, 2), (3, 4))) == (((1, 2),), "psi")
        assert oracles.reduce_step(((1, 3), (2, 4))) == (((1, 2),), "psi1")
        big = oracles.standard_form([(2, 4), (5, 7), (6, 8), (3, 9), (1, 10)])
        reduced, tag = oracles.reduce_step(big)
        assert reduced == oracles.standard_form([(1, 3), (2, 4), (5, 7), (6, 8)])
        assert tag == "psi2"

    def test_generation_bijectivity(self):
        # psi plus psi1/psi2 over all arcs hit M_{n+1} exactly once,
        # and reduce_step inverts the constructor that was used
        for n in range(1, 5):
            seen = {}
            for m in mt.enumerate_matchings(n):
                images = [(oracles.extend_psi(m), "psi", m)]
                for arc in m:
                    images.append((oracles.extend_psi1(m, arc), "psi1", m))
                    images.append((oracles.extend_psi2(m, arc), "psi2", m))
                for image, tag, source in images:
                    assert image not in seen
                    seen[image] = (source, tag)
                    assert oracles.reduce_step(image) == (source, tag)
            assert len(seen) == oracles.double_factorial(2 * n + 1)


class TestTrace:
    def test_paper_examples(self):
        m1 = oracles.standard_form([(1, 3), (2, 4), (6, 7), (5, 8), (9, 10)])
        assert sorted(mt.trace_indices(m1)) == [1, 5, 9]
        m2 = oracles.standard_form([(2, 4), (5, 7), (6, 8), (3, 9), (1, 10)])
        assert sorted(mt.trace_indices(m2)) == [1, 5]

    def test_all_fixed(self):
        assert sorted(mt.trace_indices(((1, 2), (3, 4), (5, 6)))) == [1, 3, 5]

    def test_one_is_always_a_trace_index(self):
        for m in mt.enumerate_matchings(5):
            assert 1 in mt.trace_indices(m)

    def test_chain_equivalence_small(self):
        # the incremental trace agrees with scanning every stage of the chain
        for m in mt.enumerate_matchings(5):
            stages = [m]
            while stages[-1]:
                stages.append(oracles.reduce_step(stages[-1])[0])
            scanned = {a for stage in stages for a, b in stage
                       if a % 2 == 1 and b == a + 1}
            assert mt.trace_indices(m) == scanned


class TestPolynomials:
    def test_m_poly_golden(self):
        assert mt.m_poly(1) == parse_poly("s*t")
        assert mt.m_poly(2) == parse_poly("s^2*t^2 + 2*t*x*y")
        assert mt.m_poly(3) == parse_poly("s^3*t^3 + 6*s*t^2*x*y + 4*t*x^2*y + 4*t*x*y^2")

    def test_i_poly_2(self):
        assert mt.i_poly(2) == parse_poly("x + y + q")

    def test_trace_distribution_n3(self):
        assert mt.trace_distribution(3) == parse_poly("q^3 + 6*q^2 + 8*q")


class TestSerialization:
    def test_text_round_trip(self):
        for m in mt.enumerate_matchings(3):
            assert oracles.arcs_from_text(mt.arcs_text(m)) == m

    def test_bad_text(self):
        with pytest.raises(ValueError):
            oracles.arcs_from_text("(1,2)(2,3)")
        with pytest.raises(ValueError):
            oracles.arcs_from_text("nonsense")
