"""Performance layer: shared caches, per-stage profiling, parallel eval.

``cache`` and ``profiler`` are dependency-free leaves imported eagerly —
the NLP, pipeline and SQL layers use them directly.  ``parallel`` sits on
*top* of the bench harness (which imports core, which imports nlp, which
imports :mod:`repro.perf.cache`), so importing it here eagerly would
create a cycle; its symbols resolve lazily via module ``__getattr__``.
"""

from __future__ import annotations

from typing import Any

from .cache import (
    MISSING,
    CacheStats,
    EvaluationCache,
    InterpretationCache,
    LRUCache,
    all_cache_stats,
    memoize,
    normalize_question,
    reset_cache_stats,
    stats_for,
)
from .profiler import (
    STAGE_ORDER,
    StageProfiler,
    StageStat,
    active_profiler,
    profile_span,
    profile_stage,
)

_PARALLEL_EXPORTS = {
    "ContextSpec",
    "ParallelReport",
    "default_jobs",
    "parallel_compare_systems",
    "parallel_evaluate_system",
    "partition_examples",
}

__all__ = [
    "MISSING",
    "CacheStats",
    "EvaluationCache",
    "InterpretationCache",
    "LRUCache",
    "all_cache_stats",
    "memoize",
    "normalize_question",
    "reset_cache_stats",
    "stats_for",
    "STAGE_ORDER",
    "StageProfiler",
    "StageStat",
    "active_profiler",
    "profile_span",
    "profile_stage",
    *sorted(_PARALLEL_EXPORTS),
]


def __getattr__(name: str) -> Any:
    if name in _PARALLEL_EXPORTS:
        from . import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
