"""Deterministic, seed-driven fault injection for the serving layer.

The survey's open challenges (§6) call for NLIDBs that *degrade
gracefully* — which is only credible if degradation is testable.  This
module makes failure reproducible: a :class:`FaultPlan` describes which
pipeline stages fail, how, and how often; a :class:`FaultInjector`
executes the plan as a stage hook (:func:`repro.perf.profiler.stage_hook`),
so faults land at exactly the stage boundaries every system already
marks with :func:`~repro.perf.profiler.profile_stage` — tokenize,
parse, match, rank, compile, execute — without any system-specific
plumbing.  A plan naming any other stage is rejected at parse time.

Three fault kinds are supported:

- ``error`` — raise :class:`FaultInjected` (a *transient* fault: the
  serving layer retries it with backoff before failing over);
- ``latency`` — sleep a fixed amount at the stage boundary (trips the
  service's cooperative deadline when one is configured);
- ``corrupt`` — poison the interpretation list after ``interpret()``
  returns, so compilation of the top candidate raises.  This models the
  "confidently wrong parse" failure mode neural systems exhibit.

Plans are textual so they can ride in CLI flags and CI configs::

    execute:error:0.5,match:latency:0.2:0.05,*:corrupt:0.1

Each comma-separated entry is ``stage:kind:rate[:param]`` where
``stage`` may be ``*`` (every stage), ``rate`` is the per-boundary
injection probability, and ``param`` is the sleep seconds for
``latency``.  Determinism: all draws come from one ``random.Random``
seeded at injector construction, so the same plan, seed and workload
produce the same fault sequence.

**Concurrency.**  One shared RNG is only deterministic when requests
draw from it in a fixed order — exactly what a worker pool destroys.
For concurrent serving, :meth:`FaultInjector.for_request` derives a
*child* injector whose seed is a pure function of ``(plan seed,
request_id)`` (:func:`child_seed`): each request owns its RNG, so the
fault sequence a request sees depends only on its id, never on how the
scheduler interleaved the workers — concurrent fault runs replay
exactly, at any pool size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

#: stages a plan may name — the boundaries that fire the stage hook
#: (:func:`repro.perf.profiler.profile_stage`); ``*`` matches all of them
KNOWN_STAGES: Tuple[str, ...] = ("tokenize", "parse", "match", "rank", "compile", "execute")

_KINDS = ("error", "latency", "corrupt")

#: splitmix64 constants — the standard finalizer gives well-spread,
#: platform-stable child seeds from sequential request ids
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def child_seed(seed: int, request_id: int) -> int:
    """Deterministic per-request RNG seed, stable across runs/platforms.

    A splitmix64 finalizer over ``seed + (request_id+1) * gamma``:
    sequential request ids map to decorrelated seeds, and the same
    ``(seed, request_id)`` pair always yields the same child — the
    property the concurrent front's replayability rests on.
    """
    z = (seed + (request_id + 1) * _SM64_GAMMA) & _U64
    z = ((z ^ (z >> 30)) * _SM64_MIX1) & _U64
    z = ((z ^ (z >> 27)) * _SM64_MIX2) & _U64
    return (z ^ (z >> 31)) & _U64


class FaultInjected(Exception):
    """An injected, transient fault raised at a pipeline stage boundary.

    The serving layer treats this (and timeout) as retryable; anything
    else fails the attempt immediately.
    """

    def __init__(self, stage: str, kind: str = "error"):
        super().__init__(f"injected {kind} fault at stage {stage!r}")
        self.stage = stage
        self.kind = kind


class CorruptedInterpretation:
    """Stand-in for an interpretation mangled in flight.

    Keeps the ``confidence`` attribute (so ranking still works) but
    raises on compilation — the point where a real corrupted parse would
    produce unexecutable SQL.
    """

    def __init__(self, stage: str = "rank"):
        self.confidence = 1.0
        self.oql = None
        self._stage = stage

    def to_sql(self, ontology: Any, mapping: Any) -> Any:
        raise FaultInjected(self._stage, "corrupt")

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return "<corrupted interpretation>"


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan: inject ``kind`` at ``stage`` with
    probability ``rate`` (``param`` is the latency seconds)."""

    stage: str  # a pipeline stage name, or "*" for every stage
    kind: str  # "error" | "latency" | "corrupt"
    rate: float  # per-boundary injection probability in [0, 1]
    param: float = 0.0

    def matches(self, stage: str) -> bool:
        return self.stage == "*" or self.stage == stage

    def spec_text(self) -> str:
        base = f"{self.stage}:{self.kind}:{self.rate:g}"
        return f"{base}:{self.param:g}" if self.param else base


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable set of fault rules plus the RNG seed."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``stage:kind:rate[:param]`` entries (comma/semicolon
        separated); a ``seed=N`` entry overrides ``seed``."""
        specs: List[FaultSpec] = []
        for raw in text.replace(";", ",").split(","):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed=") :])
                continue
            parts = entry.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"bad fault spec {entry!r}: want stage:kind:rate[:param]"
                )
            stage, kind, rate = parts[0].strip(), parts[1].strip(), float(parts[2])
            if stage != "*" and stage not in KNOWN_STAGES:
                raise ValueError(
                    f"unknown stage {stage!r}; known: {', '.join(KNOWN_STAGES)} or '*'"
                )
            if kind not in _KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; known: {', '.join(_KINDS)}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate must be in [0, 1], got {rate}")
            param = float(parts[3]) if len(parts) == 4 else 0.0
            specs.append(FaultSpec(stage, kind, rate, param))
        return cls(tuple(specs), seed)

    def spec_text(self) -> str:
        """Canonical textual form (round-trips through :meth:`parse`)."""
        return ",".join(s.spec_text() for s in self.specs)


@dataclass
class FaultEvent:
    """One injected fault, recorded into the serve result's trace."""

    stage: str
    kind: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"stage": self.stage, "kind": self.kind, "detail": self.detail}


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically.

    Bind :meth:`on_stage` as the stage hook around a pipeline call::

        injector = FaultInjector(FaultPlan.parse("execute:error:0.5", seed=7))
        with stage_hook(injector.on_stage):
            context.interpret(system, question)   # may raise FaultInjected

    Every injected fault is appended to :attr:`events` whether or not
    the caller survives it, so a serve report can show the full fault
    sequence.  An empty plan (``FaultInjector(FaultPlan())``) injects
    nothing and never draws from its RNG: that is the disabled path.
    ``sleep`` is injectable for tests.
    """

    def __init__(self, plan: FaultPlan, sleep=time.sleep):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._sleep = sleep
        self.events: List[FaultEvent] = []

    def for_request(self, request_id: int) -> "FaultInjector":
        """A child injector seeded from ``(plan seed, request_id)``.

        The child executes the same plan with its own RNG, so a request
        sees the same faults no matter which worker runs it or in what
        order requests complete — the unit of replayability for the
        concurrent serving front.
        """
        plan = FaultPlan(self.plan.specs, child_seed(self.plan.seed, request_id))
        return FaultInjector(plan, sleep=self._sleep)

    # -- stage hook -----------------------------------------------------------

    def on_stage(self, stage: str) -> None:
        """Fire at one stage boundary: latency first, then errors."""
        for spec in self.plan.specs:
            if spec.kind == "corrupt" or not spec.matches(stage):
                continue
            if self._rng.random() >= spec.rate:
                continue
            if spec.kind == "latency":
                delay = spec.param or 0.01
                self.events.append(
                    FaultEvent(stage, "latency", f"slept {delay:g}s")
                )
                self._sleep(delay)
            else:
                self.events.append(FaultEvent(stage, "error", "raised FaultInjected"))
                raise FaultInjected(stage)

    # -- interpretation corruption -------------------------------------------

    def maybe_corrupt(self, interpretations: Sequence[Any]) -> List[Any]:
        """Apply any matching ``corrupt`` rule to an interpretation list.

        A hit replaces the top-ranked interpretation with a
        :class:`CorruptedInterpretation`, whose compilation raises — the
        serving layer detects the failure and falls back.
        """
        out = list(interpretations)
        if not out:
            return out
        for spec in self.plan.specs:
            if spec.kind != "corrupt" or not spec.matches("rank"):
                continue
            if self._rng.random() < spec.rate:
                self.events.append(
                    FaultEvent("rank", "corrupt", "top interpretation poisoned")
                )
                out[0] = CorruptedInterpretation()
                break
        return out

    def drain_events(self) -> List[FaultEvent]:
        """Return and clear the recorded events."""
        events, self.events = self.events, []
        return events

