"""chordlab: exact enumeration of matchings, matching permutations and
Eulerian-type polynomial families, with a mechanical verification suite."""

from .algebra import (MVPoly, TruncatedSeries, gamma_expand, esym_expand,
                      parse_poly, rising_factorial, stirling1_unsigned,
                      stirling2)
from .grammar import Grammar, d_apply, d_iter, parse_grammar
from .checks import run_checks, check_ids

__version__ = "0.1.0"

_CACHED_FUNCTIONS = None


def clear_caches() -> None:
    """Reset every memoized census, polynomial family and table.

    Mainly for tests that monkeypatch a statistic implementation and need the
    perturbation to reach the cached families.
    """
    global _CACHED_FUNCTIONS
    if _CACHED_FUNCTIONS is None:
        from . import matchings, perms, stirling, words
        _CACHED_FUNCTIONS = [
            matchings._matching_list, matchings.block_census,
            matchings.pair_census, matchings.m_poly, matchings.i_poly,
            perms.perm_census, perms.eulerian_xy, perms.eulerian_xpq,
            perms.derangement_poly, perms.b_poly,
            stirling.q_poly, stirling.xi_table, stirling.gamma_table,
            stirling.tree_census,
            words._word_list, words.neighbor_census, words.word_census,
            words.c_poly, words.nca_poly, words.ncr_poly,
        ]
    for fn in _CACHED_FUNCTIONS:
        fn.cache_clear()
