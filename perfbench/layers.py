"""Per-layer counters read from objects the program already exposes."""

from __future__ import annotations

from typing import Any, Dict, Iterable

from stats import INF, ratio
from tracing import SELF_TIME_METRICS


def snapshot(stats: Any) -> Dict[str, int]:
    """Integer counters of an ``ExecutionStats`` or ``PruningCounters``
    (``None``, before a lazily built index exists, has none)."""
    if stats is None:
        return {}
    return {k: v for k, v in stats.as_dict().items() if isinstance(v, int) and not isinstance(v, bool)}


def delta(before: Iterable[Dict[str, int]], after: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Summed ``after - before`` over several counter sets (one per worker)."""
    out: Dict[str, int] = {}
    for old, new in zip(before, after):
        for key, value in new.items():
            out[key] = out.get(key, 0) + value - old.get(key, 0)
    return out


def counter_metrics(
    execution: Dict[str, int], pruning: Dict[str, int], bases: Dict[str, Any]
) -> Dict[str, float]:
    """Ratio metrics from counter deltas; their bases go into ``bases``."""

    def share(name: str, numerator: str, num: int, denominator: str, den: int) -> float:
        bases[name] = {numerator: num, denominator: den}
        return ratio(num, den)

    hits = execution.get("statement_cache_hits", 0)
    misses = execution.get("statement_cache_misses", 0)
    return {
        "sqldb.analyzer.cache_hit_rate": share(
            "sqldb.analyzer.cache_hit_rate",
            "preflight_cache_hits", execution.get("preflight_cache_hits", 0),
            "preflight_checks", execution.get("preflight_checks", 0),
        ),
        "sqldb.executor.statement_cache_hit_rate": share(
            "sqldb.executor.statement_cache_hit_rate",
            "statement_cache_hits", hits,
            "statement_lookups", hits + misses,
        ),
        "sqldb.executor.rows_scanned_per_output": share(
            "sqldb.executor.rows_scanned_per_output",
            "rows_scanned", execution.get("rows_scanned", 0),
            "rows_output", execution.get("rows_output", 0),
        ),
        "sqldb.columnar.vectorized_share": share(
            "sqldb.columnar.vectorized_share",
            "vectorized", execution.get("vectorized", 0),
            "table_scans", execution.get("full_scans", 0) + execution.get("index_scans", 0),
        ),
        "core.schema_index.pruning_ratio": share(
            "core.schema_index.pruning_ratio",
            "pruned", pruning.get("considered", 0) - pruning.get("scored", 0),
            "considered", pruning.get("considered", 0),
        ),
    }


def schema_index_build_s(context: Any, clock) -> float:
    """Seconds to build a fresh context's schema index (lexicon and
    fuzzy-value buckets), through its public accessors."""
    start = clock()
    index = context.schema_index
    if index is not None:
        index.metadata_targets  # noqa: B018  (forces the lexicon build)
        index.fuzzy_value_pool("warm")
    return clock() - start


def closed_loop_metrics(
    tracer: Any,
    plain: Any,
    traced: Any,
    execution: Dict[str, int],
    pruning: Dict[str, int],
    bases: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer metrics of a closed loop: ``traced`` replayed ``plain``'s
    requests on a fresh set-up with ``tracer`` installed."""
    n = len(traced.latencies)
    metrics = tracer.layer_self_ms(n)
    metrics.update(counter_metrics(execution, pruning, bases))
    latency = sum(lat for lat in traced.latencies if lat != INF)
    covered = sum(metrics[name] for name in SELF_TIME_METRICS) * n / 1000
    bases["trace.coverage"] = {"layer_self_s": covered, "latency_s": latency}
    bases["trace.overhead_pct"] = {"traced_wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s}
    metrics["trace.coverage"] = ratio(covered, latency)
    metrics["trace.overhead_pct"] = (traced.wall_s - plain.wall_s) / plain.wall_s * 100
    metrics["error_share"] = ratio(traced.failed, n)
    return metrics
