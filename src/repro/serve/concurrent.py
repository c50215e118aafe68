"""Concurrent serving front: worker-pool dispatch over ResilientService.

:class:`~repro.serve.service.ResilientService` is deliberately
single-threaded — one question at a time, cooperative deadlines.  In
front of users that is a head-of-line blockade: one slow question stalls
the whole workload.  :class:`ConcurrentFront` turns the service into a
bounded pool whose requests carry deadlines:

- **dispatch** — ``pool_size`` worker threads, each owning its *own*
  service (and interpretation context), drain one shared admission
  queue.  Per-worker contexts mean no pipeline state is shared between
  requests; what *is* shared is deliberately small and locked: the
  circuit-breaker registry, the answer cache, and the admission
  counters.
- **admission control & backpressure** — the queue is bounded
  (``queue_depth``).  A non-blocking submit over a full queue is
  *rejected immediately* with a typed ``rejected_overload`` verdict
  (the HTTP facade maps it to 429); blocking submits apply backpressure
  instead.  Every submitted request resolves to exactly one
  :class:`~repro.serve.service.ServeResult` — rejected, cancelled, or
  served — never silently dropped.
- **per-request deadlines** — each request carries an end-to-end
  deadline from admission.  A request still queued past its deadline
  is rejected unrun (``rejected_deadline``).  A running request is
  served under one more stage hook, bound with the profiler's
  ``stage_hook`` *around* the service call: the first stage boundary
  past the deadline raises :class:`RequestCancelled`, which aborts
  the remaining stages and the rest of the fallback chain (verdict
  ``cancelled``) instead of timing out per attempt and then crawling
  through every fallback.
- **replayable faults** — each request derives a child fault injector
  from ``(plan seed, request_id)``
  (:meth:`~repro.serve.faults.FaultInjector.for_request`), so a
  concurrent fault run is byte-identical to a serial replay of the same
  request ids, at any pool size (:func:`replay_serial` is that serial
  reference).
- **answer cache** — clean, fault-free results are memoized in an
  :class:`AnswerCache` keyed on ``(normalized question, data_version)``
  — the key discipline (and staleness-by-construction invalidation)
  the interpretation layer already proved out.  The cache
  spans the whole fallback chain: a degraded-but-deterministic answer
  (primary abstained, fallback answered) is cached with its
  ``degraded_from`` trail intact.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.perf.cache import LRUCache, normalize_question
from repro.perf.profiler import stage_hook
from repro.sqldb.relation import Relation

from .breaker import CircuitBreaker
from .faults import FaultEvent, FaultInjector, FaultPlan
from .report import ServeSummary
from .service import (
    VERDICT_ANSWERED,
    VERDICT_CANCELLED,
    VERDICT_DEADLINE,
    VERDICT_DEGRADED,
    VERDICT_FAILED,
    VERDICT_OVERLOAD,
    RequestCancelled,
    ResilientService,
    ServeResult,
)

#: queue sentinel telling a worker to exit
_SENTINEL = object()


def _request_deadline(deadline: Optional[float]) -> ContextManager[None]:
    """Bind a stage hook that cancels the request at the first stage
    boundary past ``deadline`` (a :func:`time.monotonic` instant); a
    no-op without a deadline."""
    if deadline is None:
        return nullcontext()

    def hook(stage: str) -> None:
        if time.monotonic() > deadline:
            raise RequestCancelled(stage, "request deadline exceeded")

    return stage_hook(hook)


class AnswerCache:
    """Serve-layer memo of clean end-of-chain answers.

    A locked :class:`~repro.perf.cache.LRUCache` keyed on ``(requested
    system, normalized question, data_version)``: a question asked with
    a different chain head may degrade differently, so the entries must
    not alias.  Values are the full reconstruction recipe for a
    :class:`ServeResult` (answer columns/rows, sql, explanation,
    degradation trail), deep-copied on put and on get so entries are
    immune to caller mutation.  The lock guards the LRU's move-to-front
    and eviction sequences, which workers sharing the cache would
    otherwise interleave.

    Only *deterministic* results are cached: ``ok`` results with no
    injected faults and no retries.  Anything fault-shaped depends on
    the request's RNG, and caching it would break replayability.
    """

    def __init__(self, maxsize: int = 2048):
        self._lru = LRUCache(maxsize)
        self._lock = threading.Lock()
        self.stats = self._lru.stats

    @staticmethod
    def _key(question: str, version: int, requested_system: Optional[str]) -> Tuple:
        return (requested_system or "", normalize_question(question), version)

    @staticmethod
    def cacheable(result: ServeResult) -> bool:
        """May this result be memoized? (clean, deterministic, answered)"""
        return bool(
            result.ok
            and not result.fault_trace
            and not result.retries
            and result.answer is not None
        )

    def get(
        self, question: str, version: int, requested_system: Optional[str] = None
    ) -> Optional[ServeResult]:
        """A reconstructed hit (marked ``cached=True``), or ``None``."""
        with self._lock:
            payload = self._lru.get(self._key(question, version, requested_system))
        if payload is None:
            return None
        payload = copy.deepcopy(payload)
        return ServeResult(
            question=question,
            requested_system=payload["requested_system"],
            ok=True,
            system=payload["system"],
            answer=Relation(payload["columns"], payload["rows"]),
            sql=payload["sql"],
            explanation=payload["explanation"],
            degraded_from=payload["degraded_from"],
            verdict=VERDICT_DEGRADED if payload["degraded_from"] else VERDICT_ANSWERED,
            cached=True,
        )

    def put(
        self,
        question: str,
        version: int,
        result: ServeResult,
        requested_system: Optional[str] = None,
    ) -> None:
        """Memoize a cacheable result (no-op for anything else)."""
        if not self.cacheable(result):
            return
        assert result.answer is not None
        payload = copy.deepcopy({
            "requested_system": result.requested_system,
            "system": result.system,
            "columns": result.answer.columns,
            "rows": result.answer.rows,
            "sql": result.sql,
            "explanation": result.explanation,
            "degraded_from": result.degraded_from,
        })
        with self._lock:
            self._lru.put(self._key(question, version, requested_system), payload)

    def __len__(self) -> int:
        return len(self._lru)


class ServeTicket:
    """Handle for one admitted (or rejected) request.

    Always resolves to exactly one :class:`ServeResult`; :meth:`wait`
    blocks until it does.  Rejected submissions come back pre-resolved.
    """

    __slots__ = (
        "request_id",
        "question",
        "system",
        "enqueued_at",
        "deadline",
        "result",
        "_done",
    )

    def __init__(
        self,
        request_id: int,
        question: str,
        system: Optional[str],
        enqueued_at: float,
        deadline: Optional[float],
    ):
        self.request_id = request_id
        self.question = question
        self.system = system
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.result: Optional[ServeResult] = None
        self._done = threading.Event()

    def resolve(self, result: ServeResult) -> None:
        result.request_id = self.request_id
        self.result = result
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> ServeResult:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} unresolved after {timeout}s"
            )
        assert self.result is not None
        return self.result


class ConcurrentFront:
    """Bounded worker-pool serving front over per-worker resilient services.

    Construction is lazy: :meth:`start` (or entering the context
    manager) spins up the pool.  Each worker calls ``service_factory``
    once — by default that builds a fresh context via
    ``context_factory`` and wraps it in a
    :class:`~repro.serve.service.ResilientService` sharing this front's
    breaker registry.  Custom factories (e.g. scripted services in
    tests) receive the shared ``{system: CircuitBreaker}`` dict and
    must return an object with the service's ``ask(question, system,
    *, injector, request_id)`` signature.

    Parameters:

    - ``pool_size`` — worker threads (1 degenerates to serial dispatch);
    - ``queue_depth`` — admission bound; non-blocking submits beyond it
      are rejected with ``rejected_overload``;
    - ``deadline_s`` — per-request end-to-end budget measured from
      admission; ``None`` disables deadlines;
    - ``fault_plan`` — a :class:`~repro.serve.faults.FaultPlan` executed
      via per-request child injectors (replayable at any pool size);
    - ``cache_answers`` — memoize clean answers in an
      :class:`AnswerCache`.  Consulted only for fault-free requests:
      cached answers under an active fault plan would shadow the
      injected faults;
    - ``service_kwargs`` — forwarded to every worker's
      :class:`~repro.serve.service.ResilientService` (retries,
      backoff_s, timeout_s, failure_threshold, ...).
    """

    def __init__(
        self,
        context_factory: Optional[Callable[[], Any]] = None,
        *,
        service_factory: Optional[
            Callable[[Dict[str, CircuitBreaker]], Any]
        ] = None,
        pool_size: int = 4,
        queue_depth: int = 32,
        deadline_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        fault_sleep: Callable[[float], None] = time.sleep,
        cache_answers: bool = True,
        **service_kwargs: Any,
    ):
        if (context_factory is None) == (service_factory is None):
            raise ValueError(
                "provide exactly one of context_factory or service_factory"
            )
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.pool_size = pool_size
        self.queue_depth = queue_depth
        self.deadline_s = deadline_s
        self.fault_plan = fault_plan
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.answer_cache = AnswerCache() if cache_answers else None
        self._template = FaultInjector(fault_plan or FaultPlan(), sleep=fault_sleep)
        if service_factory is not None:
            self._service_factory = service_factory
        else:
            assert context_factory is not None
            self._service_factory = self._default_factory(
                context_factory, service_kwargs
            )
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_depth)
        self._workers: List[threading.Thread] = []
        self._inflight = 0
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._next_id = 0
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "rejected_overload": 0,
            "rejected_deadline": 0,
            "cancelled": 0,
            "cache_hits": 0,
            "worker_errors": 0,
        }

    @staticmethod
    def _default_factory(
        context_factory: Callable[[], Any],
        service_kwargs: Dict[str, Any],
    ) -> Callable[[Dict[str, CircuitBreaker]], Any]:
        def factory(breakers: Dict[str, CircuitBreaker]) -> ResilientService:
            return ResilientService(context_factory(), breakers=breakers, **service_kwargs)

        return factory

    # -- lifecycle ------------------------------------------------------------

    @property
    def started(self) -> bool:
        """Has :meth:`start` been called? (stays True after stop)"""
        with self._lock:
            return self._started

    @property
    def running(self) -> bool:
        """Started and not yet stopped — accepting submissions."""
        with self._lock:
            return self._started and not self._closed

    def start(self) -> "ConcurrentFront":
        """Spin up the worker pool."""
        with self._lock:
            if self._started:
                raise RuntimeError("front already started")
            self._started = True
        for i in range(self.pool_size):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        return self

    def stop(self) -> None:
        """Drain and shut down: outstanding requests finish (or cancel),
        then workers exit.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "ConcurrentFront":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- admission ------------------------------------------------------------

    def submit(
        self, question: str, system: Optional[str] = None, *, block: bool = False
    ) -> ServeTicket:
        """Admit one request.

        ``block=False`` (the default, what the HTTP facade uses) applies
        admission control: a full queue rejects the ticket immediately
        with verdict ``rejected_overload``.  ``block=True`` applies
        backpressure instead, waiting for queue space.  Either way the
        returned ticket always resolves — no request is silently
        dropped.
        """
        with self._lock:
            if not self._started or self._closed:
                raise RuntimeError("front is not running (start() it first)")
            request_id = self._next_id
            self._next_id += 1
            self.counters["submitted"] += 1
        now = time.monotonic()
        deadline = None if self.deadline_s is None else now + self.deadline_s
        ticket = ServeTicket(request_id, question, system, now, deadline)
        try:
            self._queue.put(ticket, block=block)
        except queue.Full:
            result = self._rejection(
                ticket, VERDICT_OVERLOAD, f"admission queue full ({self.queue_depth})"
            )
            with self._lock:
                self.counters["rejected_overload"] += 1
            ticket.resolve(result)
        return ticket

    def ask(self, question: str, system: Optional[str] = None) -> ServeResult:
        """Blocking convenience: submit with backpressure and wait."""
        return self.submit(question, system, block=True).wait()

    def serve_many(
        self, questions: Sequence[str], system: Optional[str] = None
    ) -> Tuple[List[ServeResult], ServeSummary]:
        """Serve a workload through the pool; results come back in input
        order (request ids are assigned in input order, so a fault plan
        replays identically regardless of worker interleaving)."""
        tickets = [self.submit(q, system, block=True) for q in questions]
        results = [t.wait() for t in tickets]
        summary = ServeSummary()
        for result in results:
            summary.add(result)
        return results, summary

    def _rejection(
        self, ticket: ServeTicket, verdict: str, reason: str
    ) -> ServeResult:
        result = ServeResult(
            question=ticket.question,
            requested_system=ticket.system or "",
            verdict=verdict,
        )
        result.queued_s = max(0.0, time.monotonic() - ticket.enqueued_at)
        result.fault_trace.append(FaultEvent("admission", "rejected", reason))
        return result

    # -- workers --------------------------------------------------------------

    def _worker_loop(self) -> None:
        service = self._service_factory(self.breakers)
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            try:
                self._run_ticket(service, item)
            except Exception as exc:
                # A worker must never die with a ticket in hand: the
                # ticket resolves with the failure and the loop goes on.
                with self._lock:
                    self.counters["worker_errors"] += 1
                result = self._rejection(
                    item, VERDICT_FAILED, f"worker error: {type(exc).__name__}: {exc}"
                )
                item.resolve(result)

    def _run_ticket(self, service: Any, ticket: ServeTicket) -> None:
        now = time.monotonic()
        queued_s = max(0.0, now - ticket.enqueued_at)
        if ticket.deadline is not None and now > ticket.deadline:
            result = self._rejection(
                ticket,
                VERDICT_DEADLINE,
                f"deadline ({self.deadline_s:g}s) passed after {queued_s:.3f}s in queue",
            )
            with self._lock:
                self.counters["rejected_deadline"] += 1
            ticket.resolve(result)
            return
        injector = self._template.for_request(ticket.request_id)
        clean = not injector.plan.specs
        version = self._data_version(service)
        if self.answer_cache is not None and clean and version is not None:
            hit = self.answer_cache.get(ticket.question, version, ticket.system)
            if hit is not None:
                hit.queued_s = queued_s
                with self._lock:
                    self.counters["cache_hits"] += 1
                    self.counters["completed"] += 1
                ticket.resolve(hit)
                return
        with self._lock:
            self._inflight += 1
        try:
            with _request_deadline(ticket.deadline):
                result = service.ask(
                    ticket.question,
                    ticket.system,
                    injector=injector,
                    request_id=ticket.request_id,
                )
        except RequestCancelled as exc:
            # ResilientService converts the cancellation itself; this
            # catches it escaping simpler (e.g. scripted) services.
            result = self._rejection(ticket, VERDICT_CANCELLED, str(exc))
        finally:
            with self._lock:
                self._inflight -= 1
        result.queued_s = queued_s
        if self.answer_cache is not None and clean and version is not None:
            self.answer_cache.put(ticket.question, version, result, ticket.system)
        with self._lock:
            self.counters["completed"] += 1
            if result.verdict == VERDICT_CANCELLED:
                self.counters["cancelled"] += 1
        ticket.resolve(result)

    @staticmethod
    def _data_version(service: Any) -> Optional[int]:
        """The served database's data version (None for scripted stubs)."""
        context = getattr(service, "context", None)
        database = getattr(context, "database", None)
        return getattr(database, "data_version", None)

    # -- health ---------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """Operator snapshot: pool, queue, breakers, counters, caches."""
        with self._lock:
            counters = dict(self.counters)
            inflight = self._inflight
            started, closed = self._started, self._closed
        breakers = {name: b.snapshot() for name, b in sorted(self.breakers.items())}
        open_count = sum(1 for b in breakers.values() if b["state"] != "closed")
        if not started:
            status = "starting"
        elif closed:
            status = "stopped"
        elif open_count:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "pool_size": self.pool_size,
            "queue": {"depth": self._queue.qsize(), "capacity": self.queue_depth},
            "inflight": inflight,
            "deadline_s": self.deadline_s,
            "fault_plan": self.fault_plan.spec_text() if self.fault_plan else "",
            "breakers": breakers,
            "counters": counters,
            "answer_cache": (
                self.answer_cache.stats.as_dict()
                if self.answer_cache is not None
                else None
            ),
        }


def replay_serial(
    service: Any,
    questions: Sequence[str],
    system: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    fault_sleep: Callable[[float], None] = time.sleep,
) -> List[ServeResult]:
    """The serial reference for concurrent byte-identity.

    Serves ``questions`` one by one through ``service`` with the *same*
    per-request child injectors the front derives (request id = input
    position), so its results are what a pool of any size must
    reproduce.
    """
    template = FaultInjector(fault_plan or FaultPlan(), sleep=fault_sleep)
    results = []
    for request_id, question in enumerate(questions):
        results.append(
            service.ask(
                question,
                system,
                injector=template.for_request(request_id),
                request_id=request_id,
            )
        )
    return results
