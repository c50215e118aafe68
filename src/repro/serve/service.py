"""Resilient NLQ serving: timeouts, retries, breakers, fallback chains.

The survey's systems are evaluated as batch pipelines, but an NLIDB in
front of users is a *service*, and services fail partially: a matcher
hangs, a ranker throws, an execution times out.  :class:`ResilientService`
wraps any registered system so a question always produces a typed
:class:`ServeResult` instead of an exception:

1. each attempt runs under a cooperative deadline, checked at every
   instrumented stage boundary (tokenize/parse/match/rank/compile/
   execute) via the profiler's stage-hook seam;
2. transient faults (:class:`~repro.serve.faults.FaultInjected`,
   :class:`StageTimeout`) are retried with exponential backoff;
3. a per-system :class:`~repro.serve.breaker.CircuitBreaker` stops
   sending questions to a system that keeps raising or faulting (an
   abstention is a verdict, not a failure, and never trips it);
4. when a system is down, exhausted, or answerless, the service degrades
   along a fallback chain — by default ontology-driven ATHENA, then
   pattern-based SQAK, then keyword-based SODA — recording every skipped
   system in ``degraded_from``.

With no fault injector and a healthy primary, ``ask()`` returns exactly
what ``system.answer(question, context)`` would: an attempt interprets
and then hands the candidates to the same
:meth:`repro.core.pipeline.NLIDBContext.run_best` (static-analysis
pruning → execute best) that ``NLIDBSystem.answer`` calls.

For concurrent use (:mod:`repro.serve.concurrent`), ``ask()`` accepts a
per-call injector (each request owns its fault RNG) and the breaker
registry can be shared across service instances — breakers lock their
transitions, so many workers feeding one registry stay consistent.  A
:class:`RequestCancelled` raised by the front's request-deadline hook
aborts the *whole chain*, not just the current system: the request's
deadline is gone, so trying fallbacks would only burn pool capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import NoAnswer
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import create
from repro.perf.profiler import stage_hook
from repro.sqldb.relation import Relation

from .breaker import CircuitBreaker
from .faults import FaultEvent, FaultInjected, FaultInjector, FaultPlan

#: default graceful-degradation order: ontology-driven interpretation,
#: then SQL-aware keyword patterns, then bare keyword search — each link
#: needs strictly less machinery than the one before it.
DEFAULT_FALLBACK_CHAIN: Tuple[str, ...] = ("athena", "sqak", "soda")

#: exception types the service retries (anything else fails over at once)
_TRANSIENT: Tuple[type, ...]

# -- typed request verdicts ---------------------------------------------------
#: answered by the requested system on a clean path
VERDICT_ANSWERED = "answered"
#: answered, but by a fallback system or after retries
VERDICT_DEGRADED = "degraded"
#: every system in the chain failed or abstained
VERDICT_FAILED = "failed"
#: admission control refused the request: the queue was full
VERDICT_OVERLOAD = "rejected_overload"
#: admission control refused the request: its deadline passed in queue
VERDICT_DEADLINE = "rejected_deadline"
#: the request's deadline passed mid-flight; the chain was abandoned
VERDICT_CANCELLED = "cancelled"


class StageTimeout(Exception):
    """The attempt's deadline expired at a stage boundary.

    Cooperative: the pipeline is single-threaded pure Python, so the
    deadline is checked whenever a stage span opens rather than by
    preemption.  A stage that never reaches the next boundary cannot be
    interrupted — acceptable here because every surveyed stage is
    bounded work over in-memory structures.
    """

    def __init__(self, stage: str, budget_s: float):
        super().__init__(f"deadline ({budget_s:g}s) exceeded entering stage {stage!r}")
        self.stage = stage
        self.budget_s = budget_s


class RequestCancelled(Exception):
    """The request's end-to-end deadline passed at a stage boundary.

    Raised by the concurrent front's request-deadline stage hook.
    Unlike :class:`StageTimeout` — a per-attempt budget that fails over
    to the next system — this aborts the whole fallback chain: the
    caller's deadline is already gone.
    """

    def __init__(self, stage: str, reason: str):
        super().__init__(f"request cancelled entering stage {stage!r}: {reason}")
        self.stage = stage
        self.reason = reason


_TRANSIENT = (FaultInjected, StageTimeout)


@dataclass
class ServeResult:
    """What serving a question produced — returned even on total failure."""

    question: str
    requested_system: str
    ok: bool = False
    #: name of the system that actually answered (None if none could)
    system: Optional[str] = None
    answer: Optional[Relation] = None
    #: compiled SQL text of the executed interpretation, when available
    sql: Optional[str] = None
    #: one-line natural-language reading of the executed interpretation
    explanation: Optional[str] = None
    #: systems tried (or skipped) before the answering one, with reasons
    degraded_from: List[Tuple[str, str]] = field(default_factory=list)
    #: injected faults plus service-level events, in order of occurrence
    fault_trace: List[FaultEvent] = field(default_factory=list)
    #: total retry attempts across all systems tried
    retries: int = 0
    elapsed_s: float = 0.0
    #: typed outcome classification (see the VERDICT_* constants)
    verdict: str = VERDICT_FAILED
    #: admission-assigned id (drives fault-RNG child seeding; None when
    #: served directly by a ResilientService)
    request_id: Optional[int] = None
    #: seconds spent waiting in the admission queue (concurrent front)
    queued_s: float = 0.0
    #: True when the answer came from the serve-layer answer cache
    cached: bool = False

    @property
    def degraded(self) -> bool:
        """True when the answer did not come from the requested system
        on a clean first attempt path."""
        return bool(self.degraded_from)

    @property
    def rejected(self) -> bool:
        """True when admission control refused the request outright."""
        return self.verdict in (VERDICT_OVERLOAD, VERDICT_DEADLINE)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready report row (answer summarized, not serialized)."""
        return {
            "question": self.question,
            "requested_system": self.requested_system,
            "ok": self.ok,
            "verdict": self.verdict,
            "system": self.system,
            "sql": self.sql,
            "explanation": self.explanation,
            "rows": len(self.answer.rows) if self.answer is not None else None,
            "degraded": self.degraded,
            "degraded_from": [
                {"system": name, "reason": reason} for name, reason in self.degraded_from
            ],
            "fault_trace": [event.as_dict() for event in self.fault_trace],
            "retries": self.retries,
            "elapsed_s": round(self.elapsed_s, 6),
            "queued_s": round(self.queued_s, 6),
            "request_id": self.request_id,
            "cached": self.cached,
        }


class ResilientService:
    """Serve NLQ answers with retries, breakers, and graceful degradation.

    Each attempt answers through :meth:`NLIDBContext.run_best`, the path
    ``NLIDBSystem.answer`` and ``repro ask`` take; an abstention arrives
    as its :class:`~repro.core.errors.NoAnswer`.

    Parameters mirror the failure model:

    - ``retries`` / ``backoff_s`` / ``backoff_factor`` — transient faults
      are retried up to ``retries`` times per system, sleeping
      ``backoff_s * backoff_factor**n`` between attempts;
    - ``timeout_s`` — per-attempt deadline, enforced cooperatively at
      stage boundaries (``None`` disables it);
    - ``failure_threshold`` / ``recovery_s`` — circuit-breaker tuning,
      one breaker per system name;
    - ``injector`` — a :class:`~repro.serve.faults.FaultInjector` to
      exercise the machinery; the default injects nothing and adds no
      behavior, so serve results match direct system calls exactly;
    - ``breakers`` — an externally owned ``{system: CircuitBreaker}``
      registry; pass one registry to many services (one per pool worker)
      so breaker state is shared across the pool;
    - ``sleep`` / ``clock`` — injectable for tests (no real sleeping).
    """

    def __init__(
        self,
        context: NLIDBContext,
        fallback_chain: Sequence[str] = DEFAULT_FALLBACK_CHAIN,
        *,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        timeout_s: Optional[float] = None,
        failure_threshold: int = 3,
        recovery_s: float = 30.0,
        injector: Optional[FaultInjector] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not fallback_chain:
            raise ValueError("fallback_chain must name at least one system")
        self.context = context
        self.fallback_chain = tuple(fallback_chain)
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        self.timeout_s = timeout_s
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.injector = injector or FaultInjector(FaultPlan())
        self._sleep = sleep
        self._clock = clock
        self._systems: Dict[str, NLIDBSystem] = {}
        self._breakers: Dict[str, CircuitBreaker] = breakers if breakers is not None else {}

    # -- plumbing -------------------------------------------------------------

    def system(self, name: str) -> NLIDBSystem:
        """The (cached) system instance registered under ``name``."""
        instance = self._systems.get(name)
        if instance is None:
            instance = self._systems[name] = create(name)
        return instance

    def breaker(self, name: str) -> CircuitBreaker:
        """The circuit breaker guarding ``name`` (created on first use).

        With a shared registry the creation is guarded by ``setdefault``
        so two workers racing on first use agree on one breaker object.
        """
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers.setdefault(
                name,
                CircuitBreaker(self.failure_threshold, self.recovery_s, clock=self._clock),
            )
        return breaker

    def breaker_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Point-in-time state of every breaker (for health reports)."""
        return {name: b.snapshot() for name, b in sorted(self._breakers.items())}

    def _chain_for(self, requested: Optional[str]) -> List[str]:
        if requested is None:
            return list(self.fallback_chain)
        rest = [name for name in self.fallback_chain if name != requested]
        return [requested, *rest]

    # -- serving --------------------------------------------------------------

    def ask(
        self,
        question: str,
        system: Optional[str] = None,
        *,
        injector: Optional[FaultInjector] = None,
        request_id: Optional[int] = None,
    ) -> ServeResult:
        """Serve ``question``, degrading along the fallback chain.

        Never raises: every failure mode — injected fault, timeout, open
        breaker, deadline cancellation, unanswerable question, even a chain
        where all systems fail — lands in the returned
        :class:`ServeResult`.

        ``injector`` overrides the service-level injector for this call
        only; the concurrent front passes a per-request child injector so
        fault draws never interleave across workers.
        """
        active = injector if injector is not None else self.injector
        chain = self._chain_for(system)
        result = ServeResult(
            question=question, requested_system=chain[0], request_id=request_id
        )
        started = self._clock()
        for name in chain:
            breaker = self.breaker(name)
            if not breaker.allow():
                result.fault_trace.append(
                    FaultEvent("serve", "breaker_open", f"skipped {name}")
                )
                result.degraded_from.append((name, "circuit breaker open"))
                continue
            try:
                outcome = self._serve_one(name, question, result, active, breaker)
            except RequestCancelled as exc:
                # The request's end-to-end deadline is gone: charge the
                # breaker and stop — fallbacks would also be cancelled.
                breaker.record_failure()
                result.fault_trace.extend(active.drain_events())
                result.fault_trace.append(
                    FaultEvent(exc.stage, "cancelled", f"{name}: {exc.reason}")
                )
                result.degraded_from.append((name, str(exc)))
                result.verdict = VERDICT_CANCELLED
                result.elapsed_s = self._clock() - started
                return result
            if outcome is not None:
                # Survived (latency/corruption) faults still belong in
                # the trace even though the attempt succeeded.
                result.fault_trace.extend(active.drain_events())
                breaker.record_success()
                result.ok = True
                result.system = name
                result.answer, result.sql, result.explanation = outcome
                break
        result.verdict = (
            (VERDICT_DEGRADED if result.degraded or result.retries else VERDICT_ANSWERED)
            if result.ok
            else VERDICT_FAILED
        )
        result.elapsed_s = self._clock() - started
        return result

    def _serve_one(
        self,
        name: str,
        question: str,
        result: ServeResult,
        injector: FaultInjector,
        breaker: CircuitBreaker,
    ) -> Optional[Tuple[Relation, Optional[str], Optional[str]]]:
        """Try one system with retries; ``None`` means it failed or
        abstained, and the reason has been recorded on ``result``.

        A raised error or an exhausted transient fault charges
        ``breaker``.  An abstention (:class:`NoAnswer`) does not: the
        system ran to a verdict, so its breaker records a success, which
        also resolves a half-open probe.
        """
        delay = self.backoff_s
        reason = "unknown failure"
        for attempt in range(self.retries + 1):
            try:
                return self._attempt(name, question, injector)
            except _TRANSIENT as exc:
                result.fault_trace.extend(injector.drain_events())
                reason = str(exc)
                if attempt < self.retries:
                    result.retries += 1
                    result.fault_trace.append(
                        FaultEvent(
                            "serve",
                            "retry",
                            f"{name} attempt {attempt + 1}: {reason}; backing off {delay:g}s",
                        )
                    )
                    self._sleep(delay)
                    delay *= self.backoff_factor
                    continue
                break
            except NoAnswer as exc:
                result.fault_trace.extend(injector.drain_events())
                breaker.record_success()
                result.degraded_from.append((name, exc.reason))
                return None
            except RequestCancelled:
                result.fault_trace.extend(injector.drain_events())
                raise  # chain-level: handled (and recorded) by ask()
            except Exception as exc:  # non-transient: fail over immediately
                result.fault_trace.extend(injector.drain_events())
                reason = f"{type(exc).__name__}: {exc}"
                result.fault_trace.append(FaultEvent("serve", "error", f"{name}: {reason}"))
                break
        breaker.record_failure()
        result.degraded_from.append((name, reason))
        return None

    def _attempt(
        self,
        name: str,
        question: str,
        injector: FaultInjector,
    ) -> Tuple[Relation, Optional[str], Optional[str]]:
        """One end-to-end attempt through ``NLIDBContext.run_best``.

        The only differences from a direct ``answer()`` call are the
        bound stage hook (faults + deadline — inert when the plan is
        empty and no timeout is set), the injector's chance to corrupt
        the candidate list, and that failures raise instead of
        collapsing to ``None``, so the caller can classify them.
        The hook nests inside any hook already bound, so the concurrent
        front's request deadline keeps firing first.
        """
        system = self.system(name)
        deadline = (
            None if self.timeout_s is None else self._clock() + self.timeout_s
        )

        def hook(stage: str) -> None:
            injector.on_stage(stage)
            if deadline is not None and self._clock() > deadline:
                raise StageTimeout(stage, self.timeout_s)

        with stage_hook(hook):
            interpretations = self.context.interpret(system, question)
            interpretations = injector.maybe_corrupt(interpretations)
            top, answer = self.context.run_best(system, interpretations)
        explanation: Optional[str] = None
        try:
            if top.oql is not None:
                explanation = top.oql.to_english()
        except Exception:
            pass
        return answer, top.sql.to_sql(), explanation
