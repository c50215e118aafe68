"""Performance layer: shared caches and per-stage profiling.

``cache`` and ``profiler`` are dependency-free leaves — the NLP,
pipeline and SQL layers use them directly.
"""

from __future__ import annotations

from .cache import (
    MISSING,
    CacheStats,
    EvaluationCache,
    InterpretationCache,
    LRUCache,
    all_cache_stats,
    memoize,
    normalize_question,
    stats_for,
)
from .profiler import (
    STAGE_ORDER,
    StageProfiler,
    StageStat,
    profile_span,
    profile_stage,
)

__all__ = [
    "MISSING",
    "CacheStats",
    "EvaluationCache",
    "InterpretationCache",
    "LRUCache",
    "all_cache_stats",
    "memoize",
    "normalize_question",
    "stats_for",
    "STAGE_ORDER",
    "StageProfiler",
    "StageStat",
    "profile_span",
    "profile_stage",
]
