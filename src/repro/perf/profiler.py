"""Per-stage wall-clock profiling for the interpret/answer pipeline.

The pipeline decomposes into the stages every surveyed system shares —
tokenize → parse → match → rank → compile → execute — each marked with
:func:`profile_stage(name)`.  Other timed work (schema-index builds,
columnar kernels, the harness aggregates ``interpret`` and ``score``)
uses :func:`profile_span(name)`.  When no profiler is active either
span is a shared no-op, so nothing is ever recorded.

Activation is scoped, not global: ``with profiler.activate(): ...``
binds the profiler to the current context (via :mod:`contextvars`, so
concurrent threads/tasks don't interleave their spans).

The two differ only in the **stage hook** seam used by the resilient
serving layer (:mod:`repro.serve`): ``with stage_hook(fn):`` makes
every :func:`profile_stage` in the block call ``fn(stage_name)`` before
timing, while :func:`profile_span` only times.  Hooks may raise (fault
injection), sleep (latency injection) or check a deadline; with no hook
bound the cost is one contextvar lookup.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

#: canonical display order; unknown stages sort after these, alphabetically
STAGE_ORDER: List[str] = [
    "tokenize",
    "schema_index",
    "parse",
    "match",
    "rank",
    "compile",
    "execute",
    "interpret",
    "score",
]


@dataclass
class StageStat:
    """Accumulated calls and seconds for one stage."""

    calls: int = 0
    seconds: float = 0.0


class StageProfiler:
    """Accumulates wall-clock spans per named stage."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageStat] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one block under ``name`` (nesting is fine; a nested span
        records into its own stage, so sibling stages stay additive but a
        parent stage overlaps its children)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            stat = self.stages.get(name)
            if stat is None:
                stat = self.stages[name] = StageStat()
            stat.calls += 1
            stat.seconds += time.perf_counter() - start

    @contextmanager
    def activate(self) -> Iterator["StageProfiler"]:
        """Bind this profiler as the ambient target for
        :func:`profile_stage` within the block."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> Dict[str, StageStat]:
        """Independent copies of the current per-stage counters."""
        return {n: StageStat(s.calls, s.seconds) for n, s in self.stages.items()}

    def delta(self, since: Dict[str, StageStat]) -> "StageProfiler":
        """A profiler holding only spans recorded since ``since``."""
        out = StageProfiler()
        for name, stat in self.stages.items():
            before = since.get(name, StageStat())
            calls = stat.calls - before.calls
            seconds = stat.seconds - before.seconds
            if calls or seconds > 0:
                out.stages[name] = StageStat(calls, seconds)
        return out

    def seconds(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0.0 if never entered)."""
        stat = self.stages.get(name)
        return stat.seconds if stat is not None else 0.0

    def _ordered(self) -> List[str]:
        known = [n for n in STAGE_ORDER if n in self.stages]
        extra = sorted(n for n in self.stages if n not in STAGE_ORDER)
        return known + extra

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Machine-readable report: stage → {calls, seconds, ms_per_call}."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in self._ordered():
            stat = self.stages[name]
            out[name] = {
                "calls": stat.calls,
                "seconds": round(stat.seconds, 6),
                "ms_per_call": round(1000.0 * stat.seconds / stat.calls, 4)
                if stat.calls
                else 0.0,
            }
        return out

    def report(self, title: str = "per-stage profile") -> str:
        """Aligned text table of the recorded stages."""
        lines = [title]
        if not self.stages:
            lines.append("(no spans recorded)")
            return "\n".join(lines)
        width = max(len(n) for n in self.stages)
        lines.append(f"{'stage'.ljust(width)}  {'calls':>7}  {'total s':>9}  {'ms/call':>8}")
        for name in self._ordered():
            stat = self.stages[name]
            per = 1000.0 * stat.seconds / stat.calls if stat.calls else 0.0
            lines.append(
                f"{name.ljust(width)}  {stat.calls:>7}  {stat.seconds:>9.4f}  {per:>8.3f}"
            )
        return "\n".join(lines)


_ACTIVE: ContextVar[Optional[StageProfiler]] = ContextVar(
    "repro_active_profiler", default=None
)


_NOOP = nullcontext()


_STAGE_HOOK: ContextVar[Optional[Callable[[str], None]]] = ContextVar(
    "repro_stage_hook", default=None
)


@contextmanager
def stage_hook(hook: Callable[[str], None]) -> Iterator[None]:
    """Bind ``hook`` to run at every :func:`profile_stage` in the block.

    A hook that raises aborts the stage before it starts.  Hooks nest:
    inside a block that already has one, the outer hook fires first,
    then ``hook`` (an outer raise skips it), so the concurrent front's
    request deadline outranks the service's per-attempt hook.
    """
    outer = _STAGE_HOOK.get()

    def nested(stage: str) -> None:
        outer(stage)
        hook(stage)

    token = _STAGE_HOOK.set(hook if outer is None else nested)
    try:
        yield
    finally:
        _STAGE_HOOK.reset(token)


def profile_stage(name: str):
    """A stage boundary: fire the bound :func:`stage_hook`, then time.

    Usage at the six pipeline stage sites::

        with profile_stage("rank"):
            ...

    The hook fires first (and may raise), so injected faults surface
    even when nothing is being profiled.
    """
    hook = _STAGE_HOOK.get()
    if hook is not None:
        hook(name)
    return profile_span(name)


def profile_span(name: str):
    """A timing span on the ambient profiler, or a shared no-op.

    Never fires the stage hook: which request pays for amortized work
    (the schema-index build) is a scheduling accident, and a fault
    landing there would make a request's faults depend on cache state.
    """
    profiler = _ACTIVE.get()
    if profiler is None:
        return _NOOP
    return profiler.span(name)


def active_profiler() -> Optional[StageProfiler]:
    """The profiler bound to the current context, if any."""
    return _ACTIVE.get()
