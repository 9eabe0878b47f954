"""Which chordlab functions the traced run wraps, and the per-layer metrics
derived from their spans.

Targets are public functions of each module (plus the two private entry
points the CLI and the check runner go through).  A target that a later
refactor removes is reported as absent; its metrics then read 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import spans


def _n_start(*args, **kwargs):
    """Walk key and start rank of an enumerator called as (n, start_rank=0)."""
    n = args[0] if args else kwargs.get("n")
    start = args[1] if len(args) > 1 else kwargs.get("start_rank", 0)
    return str(n), start


def _n_degree(*args, **kwargs):
    """Walk key of enumerate_trees(n, max_degree); trees have no start rank."""
    n = args[0] if args else kwargs.get("n")
    degree = args[1] if len(args) > 1 else kwargs.get("max_degree")
    return f"{n}:deg{degree}", 0


@dataclass(frozen=True)
class Span:
    target: str                  # 'module.attr' or 'module.Class.attr' in chordlab
    layer: str                   # the per-layer bucket its self time counts toward
    kind: str = "call"           # call | gen | rows
    family: str | None = None    # gen only: the family whose objects are counted
    key: Callable = _n_start

    def make(self, rec, fn):
        if self.kind == "gen":
            return spans.wrap_generator(rec, self.target, fn, self.family, self.key)
        if self.kind == "rows":
            return spans.wrap_rows(rec, self.target, fn)
        return spans.wrap_call(rec, self.target, fn)


def _calls(layer, *targets):
    return [Span(t, layer) for t in targets]


_POLY_METHODS = ("from_exponents", "__add__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__pow__", "__eq__", "partial", "subst", "evaluate",
                 "coefficients_in", "coefficient")
_SERIES_METHODS = ("from_egf_values", "exponential", "linear", "__add__",
                   "__sub__", "__mul__", "scale", "exp", "log", "pow", "inverse",
                   "__eq__")

SPANS: list[Span] = [
    Span("matchings.enumerate_matchings", "matchings.enum", "gen", "matchings"),
    *_calls("matchings.block_stats", "matchings.block_stats"),
    *_calls("matchings.pairwise_stats", "matchings.pairwise_stats"),
    # trace() is len(trace_indices()); wrapping only the latter covers both
    # paths without two spans per object.
    *_calls("matchings.trace", "matchings.trace_indices"),
    *_calls("matchings.tally", "matchings.m_poly", "matchings.i_poly",
            "matchings.count_even_to_odd_free", "matchings.trace_distribution"),

    Span("words.enumerate_words", "words.enum", "gen", "words"),
    Span("words.words", "words.enum", "gen", "words"),
    *_calls("words.kernel", "words.from_matching", "words.neighbor_classify",
            "words.word_stats"),
    *_calls("words.tally", "words.c_poly", "words.nca_poly", "words.ncr_poly"),

    Span("perms.enumerate_permutations", "perms.enum", "gen", "perms"),
    Span("perms.enumerate_signed", "perms.enum", "gen", "signed"),
    # A filter over enumerate_permutations: timed, but its objects are
    # already counted as permutations.
    Span("perms.enumerate_derangements", "perms.enum", "gen", None),
    *_calls("perms.kernel", "perms.perm_stats", "perms.signed_stats"),
    *_calls("perms.tally", "perms.eulerian_xy", "perms.eulerian_xpq",
            "perms.derangement_poly", "perms.dnk_table", "perms.b_poly",
            "perms.type_b_derangement_poly", "perms.colored_eulerian"),

    Span("stirling.enumerate_stirling", "stirling.enum", "gen", "stirling"),
    Span("stirling.enumerate_trees", "stirling.enum", "gen", "trees", _n_degree),
    *_calls("stirling.kernel", "stirling.stirling_word_stats",
            "stirling.tree_degree_histogram"),
    *_calls("stirling.tally", "stirling.q_poly", "stirling.q_univariate",
            "stirling.degree_census", "stirling.gamma_keyed_census"),
    *_calls("stirling.table", "stirling.xi_table", "stirling.gamma_table",
            "stirling.xi_poly", "stirling.gamma_poly"),

    *_calls("algebra.poly", *(f"algebra.MVPoly.{m}" for m in _POLY_METHODS),
            "algebra.gamma_expand", "algebra.esym_expand", "algebra.esym_assemble",
            "algebra.rising_factorial", "algebra.stirling1_unsigned",
            "algebra.stirling2", "algebra.parse_poly"),
    *_calls("algebra.series", *(f"algebra.TruncatedSeries.{m}" for m in _SERIES_METHODS)),
    *_calls("algebra.render", "algebra.MVPoly.render"),

    *_calls("grammar", "grammar.d_apply", "grammar.d_iter", "grammar.parse_grammar"),

    *_calls("checks", "checks._run_single"),
    # With --jobs the parent spends this span waiting on the pool; a layer
    # of its own keeps that wait out of cli.self_s.  No metric reports it.
    *_calls("checks.run", "checks.run_checks"),
    *_calls("cli", "cli.main"),
    Span("cli._family_rows", "cli", "rows"),
]

# Families whose walks each module's enum_objects and enum_redundancy cover.
FAMILIES = {
    "matchings": ("matchings",),
    "words": ("words",),
    "perms": ("perms", "signed"),
    "stirling": ("stirling", "trees"),
}

# Per-layer metrics: (name, unit, better).  The traced run reports exactly
# these; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("matchings.enum_objects", "count", "lower"),
    ("matchings.enum_redundancy", "ratio", "lower"),
    ("matchings.enum_self_s", "s", "lower"),
    ("matchings.block_stats_calls", "count", "lower"),
    ("matchings.block_stats_self_s", "s", "lower"),
    ("matchings.pairwise_stats_self_s", "s", "lower"),
    ("matchings.trace_self_s", "s", "lower"),
    ("matchings.tally_self_s", "s", "lower"),
    ("matchings.m_poly_cache_hits", "count", "higher"),
    ("matchings.m_poly_cache_misses", "count", "lower"),
    ("words.enum_objects", "count", "lower"),
    ("words.enum_redundancy", "ratio", "lower"),
    ("words.kernel_self_s", "s", "lower"),
    ("words.tally_self_s", "s", "lower"),
    ("perms.enum_objects", "count", "lower"),
    ("perms.enum_redundancy", "ratio", "lower"),
    ("perms.enum_self_s", "s", "lower"),
    ("perms.kernel_self_s", "s", "lower"),
    ("perms.tally_self_s", "s", "lower"),
    ("stirling.enum_objects", "count", "lower"),
    ("stirling.enum_redundancy", "ratio", "lower"),
    ("stirling.enum_self_s", "s", "lower"),
    ("stirling.kernel_self_s", "s", "lower"),
    ("stirling.tally_self_s", "s", "lower"),
    ("stirling.table_self_s", "s", "lower"),
    ("algebra.calls", "count", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("algebra.series_self_s", "s", "lower"),
    ("algebra.render_self_s", "s", "lower"),
    ("grammar.d_apply_calls", "count", "lower"),
    ("grammar.self_s", "s", "lower"),
    ("checks.self_s", "s", "lower"),
    ("checks.sum_check_s", "s", "lower"),
    ("checks.longest_check_s", "s", "lower"),
    ("checks.pool_util", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.bytes_out", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.absent", "count", "lower"),
]


def span_metrics(by_name: dict, walks: dict, caches: dict) -> dict:
    """The per-layer metrics that come from spans, walks and cache counters.

    `by_name` maps target -> [calls, self_s]; `walks` maps (family, key) ->
    [[start, yielded], ...]; `caches` maps target -> cache_info dict.
    """
    layer_of = {s.target: s.layer for s in SPANS}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for target, (n_calls, seconds) in by_name.items():
        layer = layer_of.get(target)
        self_s[layer] = self_s.get(layer, 0.0) + seconds
        calls[layer] = calls.get(layer, 0) + n_calls

    def layer_s(*layers):
        return sum(self_s.get(layer, 0.0) for layer in layers)

    out = {}
    for module, families in FAMILIES.items():
        yielded = distinct = 0
        for (family, _), records in walks.items():
            if family in families:
                yielded += sum(r[1] for r in records)
                distinct += spans.distinct_objects(records)
        out[f"{module}.enum_objects"] = yielded
        out[f"{module}.enum_redundancy"] = yielded / distinct if distinct else 0.0
    m_poly = caches.get("matchings.m_poly", {})
    algebra = ("algebra.poly", "algebra.series", "algebra.render")
    out.update({
        "matchings.enum_self_s": layer_s("matchings.enum"),
        "matchings.block_stats_calls": by_name.get("matchings.block_stats", [0])[0],
        "matchings.block_stats_self_s": layer_s("matchings.block_stats"),
        "matchings.pairwise_stats_self_s": layer_s("matchings.pairwise_stats"),
        "matchings.trace_self_s": layer_s("matchings.trace"),
        "matchings.tally_self_s": layer_s("matchings.tally"),
        "matchings.m_poly_cache_hits": m_poly.get("hits", 0),
        "matchings.m_poly_cache_misses": m_poly.get("misses", 0),
        "words.kernel_self_s": layer_s("words.kernel"),
        "words.tally_self_s": layer_s("words.tally"),
        "perms.enum_self_s": layer_s("perms.enum"),
        "perms.kernel_self_s": layer_s("perms.kernel"),
        "perms.tally_self_s": layer_s("perms.tally"),
        "stirling.enum_self_s": layer_s("stirling.enum"),
        "stirling.kernel_self_s": layer_s("stirling.kernel"),
        "stirling.tally_self_s": layer_s("stirling.tally"),
        "stirling.table_self_s": layer_s("stirling.table"),
        "algebra.calls": sum(calls.get(layer, 0) for layer in algebra),
        "algebra.self_s": layer_s(*algebra),
        "algebra.series_self_s": layer_s("algebra.series"),
        "algebra.render_self_s": layer_s("algebra.render"),
        "grammar.d_apply_calls": by_name.get("grammar.d_apply", [0])[0],
        "grammar.self_s": layer_s("grammar"),
        "checks.self_s": layer_s("checks"),
        "cli.self_s": layer_s("cli"),
        "cli.rows": sum(r[1] for (family, _), records in walks.items()
                        if family == "cli._family_rows" for r in records),
    })
    return out
