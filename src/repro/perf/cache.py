"""Shared caches for the evaluation/answer hot path.

The survey's central artifact is a *comparison* — many systems swept
over many benchmark workloads — and real NLIDB traffic repeats itself
(query logs are heavily skewed, which is the premise TEMPLAR [4] builds
on).  Both facts make interpretation memoization profitable: the same
normalized question against the same database state always produces the
same ranked interpretation list, so re-running tokenization, candidate
matching and ranking is pure waste.

Everything here is keyed on the database's monotonic ``data_version``
counter, so any catalog or row mutation invalidates by construction —
a stale entry can never be served, it simply stops being reachable.

Three layers share one bookkeeping vocabulary (:class:`CacheStats`):

- :func:`memoize` — ``functools.lru_cache`` memoization for pure NLP
  primitives (lemmatizer, string similarity), whose hits and misses the
  registry reads from ``cache_info()``; per-instance caches (embeddings,
  thesaurus similarity) report into the same registry via
  :func:`stats_for`.
- :class:`InterpretationCache` — normalized NLQ + system + data version
  → ranked interpretation list, read by the benchmark harness (the
  answer path does not cache interpretations).
- :class:`EvaluationCache` — the harness-side bundle: interpretations
  plus gold-result, match-verdict and static-analysis memos.

This module deliberately imports nothing from the rest of the package so
the NLP layer can depend on it without cycles.
"""

from __future__ import annotations

import copy
import functools
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, TypeVar


@dataclass
class CacheStats:
    """Hit/miss/eviction counters shared by every perf-layer cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before the first lookup)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy (used to compute per-task deltas)."""
        return CacheStats(self.hits, self.misses, self.evictions, self.puts)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``since`` was snapshotted."""
        return CacheStats(
            self.hits - since.hits,
            self.misses - since.misses,
            self.evictions - since.evictions,
            self.puts - since.puts,
        )

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for JSON reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Ordered-dict LRU with :class:`CacheStats` bookkeeping.

    ``None`` is a legal cached value; :meth:`get` returns the ``missing``
    sentinel (default ``None``) on a miss, so callers that cache ``None``
    should pass their own sentinel.
    """

    __slots__ = ("maxsize", "stats", "_data")

    def __init__(self, maxsize: int = 1024, stats: Optional[CacheStats] = None):
        self.maxsize = maxsize
        self.stats = stats if stats is not None else CacheStats()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable, missing: Any = None) -> Any:
        try:
            value = self._data.pop(key)
        except KeyError:
            self.stats.misses += 1
            return missing
        self._data[key] = value
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        self._data.pop(key, None)
        self._data[key] = value
        self.stats.puts += 1
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


# -- memoization registry -----------------------------------------------------

#: name → stats for every registered memo/cache in this process
_STATS_REGISTRY: Dict[str, CacheStats] = {}


def stats_for(name: str) -> CacheStats:
    """The process-wide :class:`CacheStats` registered under ``name``.

    Created on first use; per-instance caches (embeddings, thesaurus)
    share one stats object per name so the perf report aggregates them.
    A :func:`memoize` name's stats read hits and misses from the
    function's ``cache_info()``.
    """
    stats = _STATS_REGISTRY.get(name)
    if stats is None:
        stats = _STATS_REGISTRY[name] = CacheStats()
    return stats


def all_cache_stats() -> Dict[str, CacheStats]:
    """Every registered stats object, keyed by name (live references)."""
    return dict(_STATS_REGISTRY)


class _LruStats(CacheStats):
    """Hits and misses of one ``functools.lru_cache``, read live from its
    ``cache_info()`` (so ``cache_clear()`` zeroes them); evictions and
    puts are not counted."""

    def __init__(self, cache_info: Callable[[], Any]):
        self._info = cache_info

    hits = property(lambda self: self._info().hits)  # type: ignore[assignment]
    misses = property(lambda self: self._info().misses)  # type: ignore[assignment]


F = TypeVar("F", bound=Callable[..., Any])

#: public miss sentinel for callers whose caches store falsy values
MISSING = object()
_MISS = MISSING


def memoize(name: str, maxsize: int = 16384) -> Callable[[F], F]:
    """Bounded LRU memoization (``functools.lru_cache``) for a pure
    function of hashable args.

    ``stats_for(name)`` reads the cache's hits and misses from its
    ``cache_info()``.  The wrapped function keeps ``cache_info()`` and
    ``cache_clear()`` and gains ``cache_stats``, that same stats object.
    """

    def wrap(fn: F) -> F:
        wrapper = functools.lru_cache(maxsize)(fn)
        stats = _STATS_REGISTRY[name] = _LruStats(wrapper.cache_info)
        wrapper.cache_stats = stats  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return wrap


# -- interpretation cache -----------------------------------------------------

_WS = re.compile(r"\s+")


def normalize_question(question: str) -> str:
    """Canonical cache form of an NLQ: trimmed, whitespace collapsed.

    Case is deliberately *not* folded — quoted values and proper nouns
    can be case-sensitive for value matching, and conflating two
    questions that interpret differently would poison the cache.
    """
    return _WS.sub(" ", question.strip())


class InterpretationCache:
    """LRU of ranked interpretation lists.

    Keyed on ``(system name, normalized question, data version)`` —
    the data version folds catalog shape and row contents into one
    monotonic counter, so an INSERT or a new table can never serve a
    stale reading.  Entries are deep-copied both on put and on get:
    interpretations are mutable (ranking rescoring, static-analysis
    penalties, lazy SQL compilation), and a shared object would let one
    caller's mutation corrupt every later hit.
    """

    def __init__(self, maxsize: int = 2048, stats: Optional[CacheStats] = None):
        self.stats = stats if stats is not None else CacheStats()
        self._lru = LRUCache(maxsize, self.stats)

    @staticmethod
    def key(system: str, question: str, version: int) -> Tuple[str, str, int]:
        """The cache key for one lookup."""
        return (system, normalize_question(question), version)

    def get(self, system: str, question: str, version: int) -> Optional[List[Any]]:
        """Cached interpretation list, or ``None`` on a miss.

        An empty list is a valid cached value (the system abstained).
        """
        value = self._lru.get(self.key(system, question, version), _MISS)
        if value is _MISS:
            return None
        return copy.deepcopy(value)

    def put(
        self, system: str, question: str, version: int, interpretations: List[Any]
    ) -> None:
        """Store a snapshot of ``interpretations``."""
        self._lru.put(self.key(system, question, version), copy.deepcopy(interpretations))

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)


# -- harness-side bundle ------------------------------------------------------


@dataclass
class EvaluationCache:
    """Every memo the benchmark harness shares across examples.

    Besides interpretations, evaluation repeats two pure computations
    per example: executing the *gold* SQL (identical for every system
    under comparison and for every epoch of a repeated workload) and the
    execution-match verdict for a (predicted, gold) pair.  Both are
    deterministic functions of the SQL texts and the database state, so
    they are memoized under the same ``data_version`` key discipline as
    interpretations.
    """

    interpretations: InterpretationCache = field(
        default_factory=lambda: InterpretationCache(maxsize=4096)
    )
    gold_results: LRUCache = field(default_factory=lambda: LRUCache(maxsize=4096))
    match_verdicts: LRUCache = field(default_factory=lambda: LRUCache(maxsize=8192))
    static_analysis: LRUCache = field(default_factory=lambda: LRUCache(maxsize=4096))

    def stats(self) -> Dict[str, CacheStats]:
        """Per-layer stats, keyed by layer name."""
        return {
            "interpretations": self.interpretations.stats,
            "gold_results": self.gold_results.stats,
            "match_verdicts": self.match_verdicts.stats,
            "static_analysis": self.static_analysis.stats,
        }

    def stats_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready nested stats dict."""
        return {name: s.as_dict() for name, s in self.stats().items()}

    def snapshot(self) -> Dict[str, CacheStats]:
        """Copies of every layer's counters (for per-run deltas)."""
        return {name: s.snapshot() for name, s in self.stats().items()}

    def delta(self, since: Dict[str, CacheStats]) -> Dict[str, CacheStats]:
        """Per-layer counters accumulated since ``since``."""
        return {
            name: s.delta(since[name]) for name, s in self.stats().items()
        }

    def clear(self) -> None:
        self.interpretations.clear()
        self.gold_results.clear()
        self.match_verdicts.clear()
        self.static_analysis.clear()
