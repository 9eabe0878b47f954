import inspect
import json
import math
import sys

import pytest

import oracles
from chordlab import algebra, cli
from chordlab import stirling as st
from chordlab.algebra import MVPoly, parse_poly


class TestStirlingPermutations:
    def test_q2_words(self):
        assert set(st.enumerate_stirling(2)) == {(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)}

    def test_counts(self):
        for n in range(1, 6):
            expected = 1
            for k in range(1, n + 1):
                expected *= 2 * k - 1
            assert sum(1 for _ in st.enumerate_stirling(n)) == expected

    def test_between_copies_invariant(self):
        for word in st.enumerate_stirling(4):
            for i in set(word):
                first = word.index(i)
                second = word.index(i, first + 1)
                assert all(v > i for v in word[first + 1:second])

    def test_restart_matches_slice(self):
        full = list(st.enumerate_stirling(3))
        for start in (0, 1, 7, 14, 15):
            assert list(st.enumerate_stirling(3, start_rank=start)) == full[start:]

    def test_boundary_statistics(self):
        assert st.stirling_word_stats((1, 1)) == (1, 1, 1)
        assert st.stirling_word_stats((1, 2, 2, 1)) == (2, 1, 2)

    def test_every_word_has_all_three(self):
        for n in range(1, 6):
            for word in st.enumerate_stirling(n):
                asc, plat, des = st.stirling_word_stats(word)
                assert asc >= 1 and plat >= 1 and des >= 1


class TestQPoly:
    def test_q1(self):
        assert st.q_poly(1) == parse_poly("x*y*z")

    def test_q2(self):
        assert st.q_poly(2) == parse_poly("x^2*y^2*z + x^2*y*z^2 + x*y^2*z^2")

    def test_second_order_eulerian_row(self):
        assert st.q_univariate(2) == parse_poly("x + 2*x^2")

    def test_dumont_recurrence(self):
        xyz = parse_poly("x*y*z")
        for n in range(1, 5):
            q = st.q_poly(n)
            assert st.q_poly(n + 1) == xyz * (q.partial("x") + q.partial("y") + q.partial("z"))


class TestTrees:
    def test_three_trees_on_3(self):
        trees = list(st.enumerate_trees(3, 2))
        assert len(trees) == 3

    def test_census_n3_maxdeg3(self):
        entries = st.degree_census(3, 3)
        assert entries == {(2, 0, 0): 1, (0, 1, 0): 2}

    def test_gamma_keyed_census_n3(self):
        # leaves/deg-1/deg-2 census of [3] gives y^2 z + 2 x z^2
        table = st.gamma_keyed_census(3)
        assert MVPoly.from_exponents(table, ("x", "y", "z")) == parse_poly("y^2*z + 2*x*z^2")

    def test_unbounded_small_counts(self):
        # with only 4 vertices the degree-3 bound never binds: (2n-3)!!
        assert sum(1 for _ in st.enumerate_trees(4, 3)) == 15

    def test_increasing_labels(self):
        for tree in st.enumerate_trees(5, 3):
            for v in range(1, 6):
                for child in tree[v]:
                    assert child > v


class TestTables:
    def test_xi_golden(self):
        assert st.xi_poly(1) == parse_poly("x")
        assert st.xi_poly(2) == parse_poly("x^2 + 2*y")

    def test_xi_4_and_6(self):
        assert MVPoly.from_exponents(st.xi_table(4), ("w1", "w2", "w3")) == parse_poly(
            "w1^4 + 22*w1^2*w2 + 16*w2^2 + 42*w1*w3")
        assert MVPoly.from_exponents(st.xi_table(6), ("w1", "w2", "w3")) == parse_poly(
            "w1^6 + 114*w1^4*w2 + 720*w1^2*w2^2 + 272*w2^3 + 732*w1^3*w3"
            " + 2304*w1*w2*w3 + 540*w3^2")

    def test_gamma_golden(self):
        assert st.gamma_poly(1) == parse_poly("z")
        assert st.gamma_poly(2) == parse_poly("y*z")
        assert st.gamma_poly(3) == parse_poly("y^2*z + 2*x*z^2")

    def test_key_invariants(self):
        for n in range(1, 8):
            assert all(i + 2 * j + 3 * k == n for i, j, k in st.xi_table(n))
            assert all(i + 2 * j + 3 * k == 2 * n + 1
                       for i, j, k in st.gamma_table(n))

    def test_gamma_support(self):
        # the tuple-keyed recurrence is nonzero exactly where gamma_table
        # iterates: k >= 1 and j + 2k >= n + 1
        for n in range(1, 61):
            target = 2 * n + 1
            support = {(target - 2 * j - 3 * k, j, k)
                       for k in range(1, target // 3 + 1)
                       for j in range(max(0, n + 1 - 2 * k), (target - 3 * k) // 2 + 1)}
            assert set(oracles.gamma_table(n)) == support, n

    def test_xi_census_agreement(self):
        for n in range(1, 6):
            assert st.xi_table(n) == st.degree_census(n + 1, 3)

    def test_xigamma_index_bijection(self):
        for n in range(1, 7):
            xi = st.xi_table(n)
            gamma = st.gamma_table(n + 1)
            assert {(j, i, n + 1 - i - j - k): c for (i, j, k), c in xi.items()} == gamma

    def test_json_schema(self):
        blob = json.loads("".join(cli._table_pieces("xi", 2, st.xi_table(2))))
        assert blob == {"family": "xi", "n": 2,
                        "entries": [{"i": 0, "j": 1, "k": 0, "c": "2"},
                                    {"i": 2, "j": 0, "k": 0, "c": "1"}]}
        entries = blob["entries"]
        assert entries == sorted(entries, key=lambda e: (e["i"], e["j"], e["k"]))


@pytest.fixture
def shallow_stack():
    """A recursion limit only a little above the current depth, restored
    afterwards."""
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    sys.setrecursionlimit(depth + 60)
    yield depth + 60
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("table", [st.xi_table, st.gamma_table])
def test_tables_do_not_recurse(shallow_stack, table):
    table.cache_clear()
    try:
        n = shallow_stack  # deeper than the stack allows, if each order recursed
        result = table(n)
        assert result
        assert table.cache_info().currsize == 1  # only the requested order
    finally:
        table.cache_clear()


@pytest.mark.parametrize("triangle,first_column", [
    (algebra.stirling1_unsigned, lambda n: math.factorial(n - 1)),
    (algebra.stirling2, lambda n: 1),
], ids=["stirling1_unsigned", "stirling2"])
def test_triangles_do_not_recurse(shallow_stack, triangle, first_column):
    n = shallow_stack  # deeper than the stack allows, if each row recursed
    assert triangle(n, 1) == first_column(n)
    assert (triangle(n, 0), triangle(n, n), triangle(n, n + 1)) == (0, 1, 0)
