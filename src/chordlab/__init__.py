"""chordlab: exact enumeration of matchings, matching permutations and
Eulerian-type polynomial families, with a mechanical verification suite."""

from .algebra import (MVPoly, TruncatedSeries, gamma_expand, esym_expand,
                      parse_poly, rising_factorial, stirling1_unsigned,
                      stirling2)
from .grammar import d_apply, d_iter, parse_grammar
from .checks import run_checks, check_ids
from . import census, matchings, perms, stirling, words

__version__ = "0.1.0"


def clear_caches() -> None:
    """Reset every memoized census, polynomial family and table: the census
    dict and each function with a `cache_clear` in the enumeration modules.

    Mainly for tests that monkeypatch a statistic implementation and need the
    perturbation to reach the cached families.
    """
    census._CACHE.clear()
    for module in (matchings, perms, stirling, words):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
