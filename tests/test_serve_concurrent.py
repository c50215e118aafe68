"""Concurrency battery for the serving front (repro.serve.concurrent).

Proves the PR-8 contract:

- the :class:`CircuitBreaker` is thread-safe — hammered from 16 threads
  its failure count never exceeds the threshold and at most one
  half-open probe is ever admitted;
- fault injection is replayable under concurrency — per-request child
  seeds make the fault sequence a function of the request id alone;
- the concurrent front is **byte-identical** to the serial
  :class:`ResilientService` baseline at pool sizes 1/4/16, with and
  without a fault plan;
- admission control is conservative — the queue bound is never
  exceeded, rejections carry typed verdicts, and no request is ever
  silently dropped (hypothesis-driven interleavings);
- a blown request deadline cancels the request at the next stage
  boundary;
- the serve-layer answer cache returns exactly what recomputation
  would, and is bypassed whenever faults are active.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.domains import ContextSpec
from repro.bench.workloads import WorkloadGenerator
from repro.perf.profiler import profile_stage
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    VERDICT_ANSWERED,
    VERDICT_CANCELLED,
    VERDICT_DEADLINE,
    VERDICT_FAILED,
    VERDICT_OVERLOAD,
    AnswerCache,
    CircuitBreaker,
    ConcurrentFront,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    ResilientService,
    ServeResult,
    child_seed,
    latency_percentiles,
    replay_serial,
)
from repro.sqldb.relation import Relation

SPEC = ContextSpec("university", seed=3)
FAULT_PLAN = FaultPlan.parse(
    "*:error:0.15,*:latency:0.15:0.0005,*:corrupt:0.1", seed=11
)
PLANS = {"clean": None, "faults": FAULT_PLAN}
BIG = 10**9  # failure threshold that never trips (identity runs)


def _no_sleep(seconds: float) -> None:
    return None


def project(result: ServeResult):
    """Canonical comparison form: everything except wall-clock noise and
    cache provenance (a cached answer must *equal* a computed one)."""
    return (
        result.question,
        result.ok,
        result.verdict,
        result.system,
        result.sql,
        tuple(result.answer.columns) if result.answer is not None else None,
        tuple(map(tuple, result.answer.rows)) if result.answer is not None else None,
        tuple(result.degraded_from),
        result.retries,
        tuple((e.stage, e.kind, e.detail) for e in result.fault_trace),
    )


def make_front(pool_size: int, plan: FaultPlan | None, **kwargs) -> ConcurrentFront:
    kwargs.setdefault("failure_threshold", BIG)
    kwargs.setdefault("backoff_s", 0.0)
    kwargs.setdefault("sleep", _no_sleep)
    return ConcurrentFront(
        SPEC.build,
        pool_size=pool_size,
        fault_plan=plan,
        fault_sleep=_no_sleep,
        **kwargs,
    )


@pytest.fixture(scope="module")
def uni_questions():
    ctx = SPEC.build()
    questions = [
        e.question
        for e in WorkloadGenerator(ctx.database, seed=3).generate_mixed(2)
    ]
    return questions * 2  # duplicates exercise the answer cache


@pytest.fixture(scope="module")
def serial_baselines(uni_questions):
    """Per-plan serial reference projections (the identity ground truth)."""
    out = {}
    for key, plan in PLANS.items():
        service = ResilientService(
            SPEC.build(), failure_threshold=BIG, backoff_s=0.0, sleep=_no_sleep
        )
        results = replay_serial(
            service, uni_questions, "athena", plan, fault_sleep=_no_sleep
        )
        out[key] = [project(r) for r in results]
    return out


# ---------------------------------------------------------------------------
# Scripted services (no interpretation pipeline — admission tests must be fast)
# ---------------------------------------------------------------------------


class EchoService:
    """Instant deterministic answers; counts concurrent callers."""

    def __init__(self, breakers, delay_s: float = 0.0):
        self.breakers = breakers
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0

    def ask(self, question, system=None, *, injector=None, request_id=None):
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            if self.delay_s:
                time.sleep(self.delay_s)
            return ServeResult(
                question=question,
                requested_system=system or "echo",
                ok=True,
                system="echo",
                answer=Relation(["echo"], [(question,)]),
                verdict=VERDICT_ANSWERED,
            )
        finally:
            with self._lock:
                self.inflight -= 1


class BlockingService:
    """Holds every request until released (fills the pool on demand)."""

    def __init__(self, breakers):
        self.release = threading.Event()
        self.entered = threading.Semaphore(0)

    def ask(self, question, system=None, *, injector=None, request_id=None):
        self.entered.release()
        self.release.wait(timeout=30)
        return ServeResult(
            question=question,
            requested_system=system or "blocking",
            ok=True,
            verdict=VERDICT_ANSWERED,
        )


class StagedSlowService:
    """Sleeps through many instrumented stage boundaries — cancellable."""

    def __init__(self, breakers, step_s: float = 0.005, steps: int = 100):
        self.step_s = step_s
        self.steps = steps

    def ask(self, question, system=None, *, injector=None, request_id=None):
        for _ in range(self.steps):
            with profile_stage("execute"):
                time.sleep(self.step_s)
        return ServeResult(
            question=question,
            requested_system=system or "slow",
            ok=True,
            verdict=VERDICT_ANSWERED,
        )


class FaultyService:
    """Raises on every call (worker containment test)."""

    def __init__(self, breakers):
        self.calls = 0

    def ask(self, question, system=None, *, injector=None, request_id=None):
        self.calls += 1
        raise RuntimeError("scripted service bug")


# ---------------------------------------------------------------------------
# CircuitBreaker thread-safety
# ---------------------------------------------------------------------------


def _hammer(breaker: CircuitBreaker, threads: int, iterations: int) -> None:
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(iterations):
            if breaker.allow():
                breaker.record_failure()

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


class TestCircuitBreakerThreadSafety:
    def test_hammered_failure_count_never_exceeds_threshold(self):
        breaker = CircuitBreaker(failure_threshold=5, recovery_s=1e9)
        _hammer(breaker, threads=16, iterations=200)
        assert breaker.state == OPEN
        # the increment and the trip are one locked step, so admitted
        # stragglers land while open and are not counted: zero overshoot
        assert breaker.failures <= 5

    def test_hammered_repeatedly_stays_within_bound(self):
        for round_ in range(5):
            breaker = CircuitBreaker(failure_threshold=3, recovery_s=1e9)
            _hammer(breaker, threads=16, iterations=50)
            assert breaker.failures <= 3, f"overshoot in round {round_}"

    def test_half_open_admits_exactly_one_probe_under_contention(self):
        clock_now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_s=5.0, clock=lambda: clock_now[0]
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock_now[0] = 6.0
        admitted = []
        barrier = threading.Barrier(16)

        def probe():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        pool = [threading.Thread(target=probe) for _ in range(16)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(admitted) == 1
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes_probe_failure_reopens(self):
        clock_now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_s=5.0, clock=lambda: clock_now[0]
        )
        breaker.record_failure()
        clock_now[0] = 6.0
        assert breaker.allow() and not breaker.allow()  # single probe
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.record_failure()  # trips again (threshold 1)
        clock_now[0] = 12.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN and not breaker.allow()

    def test_straggler_failures_while_open_are_not_counted(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_s=1e9)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == OPEN and breaker.failures == 3
        for _ in range(10):  # admitted-before-trip stragglers reporting in
            breaker.record_failure()
        assert breaker.failures == 3

    def test_mixed_concurrent_traffic_state_always_valid(self):
        breaker = CircuitBreaker(failure_threshold=4, recovery_s=0.0)
        barrier = threading.Barrier(12)

        def worker(succeeds: bool):
            barrier.wait()
            for _ in range(100):
                if breaker.allow():
                    if succeeds:
                        breaker.record_success()
                    else:
                        breaker.record_failure()
                snap = breaker.snapshot()
                assert snap["state"] in (CLOSED, OPEN, HALF_OPEN)
                assert 0 <= snap["failures"] <= 4

        pool = [threading.Thread(target=worker, args=(i % 2 == 0,)) for i in range(12)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

    def test_snapshot_reports_tuning_and_state(self):
        breaker = CircuitBreaker(failure_threshold=7, recovery_s=2.5)
        snap = breaker.snapshot()
        assert snap == {
            "state": CLOSED,
            "failures": 0,
            "failure_threshold": 7,
            "recovery_s": 2.5,
        }


# ---------------------------------------------------------------------------
# Per-request fault seeding
# ---------------------------------------------------------------------------


class TestChildSeeding:
    def test_child_seed_is_deterministic(self):
        assert child_seed(11, 42) == child_seed(11, 42)

    def test_child_seed_varies_with_request_id_and_seed(self):
        seeds = {child_seed(11, rid) for rid in range(100)}
        assert len(seeds) == 100
        assert child_seed(11, 0) != child_seed(12, 0)

    def _fault_trace(self, injector: FaultInjector, draws: int = 30):
        outcomes = []
        for _ in range(draws):
            try:
                injector.on_stage("execute")
                outcomes.append("pass")
            except FaultInjected:
                outcomes.append("fault")
        return outcomes

    def test_for_request_replays_identically(self):
        plan = FaultPlan.parse("execute:error:0.4", seed=9)
        first = self._fault_trace(FaultInjector(plan).for_request(5))
        second = self._fault_trace(FaultInjector(plan).for_request(5))
        assert first == second
        assert "fault" in first and "pass" in first

    def test_for_request_is_independent_of_sibling_execution_order(self):
        plan = FaultPlan.parse("execute:error:0.4", seed=9)
        serial = {
            rid: self._fault_trace(FaultInjector(plan).for_request(rid))
            for rid in range(8)
        }
        template = FaultInjector(plan)
        shuffled_order = [3, 7, 0, 5, 1, 6, 2, 4]
        for rid in shuffled_order:
            assert self._fault_trace(template.for_request(rid)) == serial[rid]

    def test_for_request_children_differ_from_each_other(self):
        plan = FaultPlan.parse("execute:error:0.5", seed=9)
        traces = {
            tuple(self._fault_trace(FaultInjector(plan).for_request(rid)))
            for rid in range(10)
        }
        assert len(traces) > 1

    def test_noop_children_are_noops(self):
        child = FaultInjector(FaultPlan()).for_request(3)
        assert child.plan.specs == ()
        child.on_stage("execute")  # must not raise
        assert child.drain_events() == []

    def test_concurrent_fault_run_is_replayable(self, uni_questions):
        def run():
            with make_front(4, FAULT_PLAN, cache_answers=False) as front:
                results, _ = front.serve_many(uni_questions, "athena")
            return [project(r) for r in results]

        assert run() == run()


# ---------------------------------------------------------------------------
# Concurrent-vs-serial byte identity
# ---------------------------------------------------------------------------


class TestConcurrentByteIdentity:
    @pytest.mark.parametrize("pool_size", [1, 4, 16])
    @pytest.mark.parametrize("plan_key", ["clean", "faults"])
    def test_pool_matches_serial_baseline(
        self, pool_size, plan_key, uni_questions, serial_baselines
    ):
        with make_front(pool_size, PLANS[plan_key]) as front:
            results, summary = front.serve_many(uni_questions, "athena")
        assert [project(r) for r in results] == serial_baselines[plan_key]
        assert summary.total == len(uni_questions)
        assert summary.rejected == 0  # blocking submits: backpressure, not drops

    def test_identity_with_default_chain_head(self, uni_questions):
        service = ResilientService(
            SPEC.build(), failure_threshold=BIG, backoff_s=0.0, sleep=_no_sleep
        )
        baseline = [project(r) for r in replay_serial(service, uni_questions)]
        with make_front(4, None) as front:
            results, _ = front.serve_many(uni_questions)
        assert [project(r) for r in results] == baseline

    def test_answer_cache_hits_match_computation(self, uni_questions):
        with make_front(4, None) as front:
            results, summary = front.serve_many(uni_questions, "athena")
            counters = dict(front.counters)
        assert counters["cache_hits"] > 0, "duplicated workload must hit the cache"
        assert summary.cached == counters["cache_hits"]
        by_question = {}
        for result in results:
            by_question.setdefault(result.question, []).append(project(result))
        for question, projections in by_question.items():
            assert len(set(projections)) == 1, f"cache diverged on {question!r}"


# ---------------------------------------------------------------------------
# Admission control (hypothesis-driven interleavings)
# ---------------------------------------------------------------------------


TYPED_VERDICTS = {
    VERDICT_ANSWERED,
    "degraded",
    VERDICT_FAILED,
    VERDICT_OVERLOAD,
    VERDICT_DEADLINE,
    VERDICT_CANCELLED,
}


class TestAdmissionControl:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_requests=st.integers(min_value=1, max_value=32),
        pool_size=st.integers(min_value=1, max_value=4),
        queue_depth=st.integers(min_value=1, max_value=8),
        delay_ms=st.sampled_from([0.0, 0.5, 2.0]),
    )
    def test_no_request_is_silently_dropped(
        self, n_requests, pool_size, queue_depth, delay_ms
    ):
        front = ConcurrentFront(
            service_factory=lambda breakers: EchoService(
                breakers, delay_s=delay_ms / 1000.0
            ),
            pool_size=pool_size,
            queue_depth=queue_depth,
            cache_answers=False,
        )
        with front:
            tickets = [front.submit(f"q{i}") for i in range(n_requests)]
            results = [t.wait(timeout=30) for t in tickets]
        # conservation: every submission resolves, with a typed verdict
        assert len(results) == n_requests
        assert front.healthz()["inflight"] == 0
        assert all(r.verdict in TYPED_VERDICTS for r in results)
        counters = front.counters
        assert counters["submitted"] == n_requests
        assert (
            counters["completed"] + counters["rejected_overload"]
            + counters["rejected_deadline"] == n_requests
        )
        # rejections are exactly the non-ok, rejected-verdict results
        rejected = [r for r in results if r.verdict == VERDICT_OVERLOAD]
        assert counters["rejected_overload"] == len(rejected)
        assert all(not r.ok for r in rejected)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        pool_size=st.integers(min_value=1, max_value=4),
        queue_depth=st.integers(min_value=1, max_value=6),
    )
    def test_pool_bound_is_never_exceeded(self, pool_size, queue_depth):
        service_holder = {}

        def factory(breakers):
            # one shared service so max_inflight aggregates across workers
            service = service_holder.setdefault(
                "service", EchoService(breakers, delay_s=0.002)
            )
            return service

        front = ConcurrentFront(
            service_factory=factory,
            pool_size=pool_size,
            queue_depth=queue_depth,
            cache_answers=False,
        )
        with front:
            tickets = [front.submit(f"q{i}", block=True) for i in range(24)]
            for t in tickets:
                t.wait(timeout=30)
        assert service_holder["service"].max_inflight <= pool_size

    def test_overload_rejection_is_typed_and_immediate(self):
        holder = {}

        def factory(breakers):
            return holder.setdefault("service", BlockingService(breakers))

        front = ConcurrentFront(
            service_factory=factory,
            pool_size=1,
            queue_depth=1,
            cache_answers=False,
        )
        with front:
            first = front.submit("held")  # occupies the worker...
            assert holder["service"].entered.acquire(timeout=5)  # ...for sure
            assert front.healthz()["inflight"] == 1
            second = front.submit("queued")  # fills the queue
            third = front.submit("rejected")  # no room: typed rejection
            assert third.done, "overload rejection must resolve synchronously"
            result = third.wait(timeout=1)
            assert result.verdict == VERDICT_OVERLOAD and not result.ok
            assert result.rejected
            assert any(e.stage == "admission" for e in result.fault_trace)
            # release the held requests so stop() drains cleanly
            holder["service"].release.set()
            assert first.wait(timeout=30).ok and second.wait(timeout=30).ok

    def test_blocking_submit_applies_backpressure_not_rejection(self):
        front = ConcurrentFront(
            service_factory=lambda breakers: EchoService(breakers, delay_s=0.001),
            pool_size=2,
            queue_depth=2,
            cache_answers=False,
        )
        with front:
            tickets = [front.submit(f"q{i}", block=True) for i in range(16)]
            results = [t.wait(timeout=30) for t in tickets]
        assert all(r.ok for r in results)
        assert front.counters["rejected_overload"] == 0

    def test_queued_past_deadline_is_rejected_unrun(self):
        holder = {}

        def factory(breakers):
            return holder.setdefault("service", BlockingService(breakers))

        front = ConcurrentFront(
            service_factory=factory,
            pool_size=1,
            queue_depth=4,
            deadline_s=0.05,
            cache_answers=False,
        )
        with front:
            held = front.submit("held")
            assert holder["service"].entered.acquire(timeout=5)
            queued = [front.submit(f"queued{i}") for i in range(3)]
            time.sleep(0.15)  # let every queued deadline lapse
            holder["service"].release.set()
            held_result = held.wait(timeout=30)
            queued_results = [t.wait(timeout=30) for t in queued]
        assert {r.verdict for r in queued_results} == {VERDICT_DEADLINE}
        assert all(r.rejected and not r.ok for r in queued_results)
        assert held_result.verdict in (VERDICT_ANSWERED, VERDICT_CANCELLED)
        assert front.counters["rejected_deadline"] == 3

    def test_submit_requires_running_front(self):
        front = ConcurrentFront(
            service_factory=EchoService, pool_size=1, cache_answers=False
        )
        with pytest.raises(RuntimeError):
            front.submit("too early")
        front.start()
        front.stop()
        with pytest.raises(RuntimeError):
            front.submit("too late")

    def test_stop_drains_submitted_requests(self):
        front = ConcurrentFront(
            service_factory=lambda breakers: EchoService(breakers, delay_s=0.002),
            pool_size=2,
            queue_depth=16,
            cache_answers=False,
        )
        front.start()
        tickets = [front.submit(f"q{i}", block=True) for i in range(10)]
        front.stop()  # must not abandon queued tickets
        results = [t.wait(timeout=1) for t in tickets]
        assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# Request deadlines, checked at the next stage boundary
# ---------------------------------------------------------------------------


class TestStageGuard:
    def test_guard_cancels_request_mid_flight(self):
        front = ConcurrentFront(
            service_factory=lambda breakers: StagedSlowService(breakers, 0.005, 200),
            pool_size=1,
            deadline_s=0.05,
            cache_answers=False,
        )
        started = time.monotonic()
        with front:
            result = front.ask("slow question")
        elapsed = time.monotonic() - started
        assert result.verdict == VERDICT_CANCELLED and not result.ok
        assert front.counters["cancelled"] == 1
        # preemption point: nowhere near the 1s the full run would take
        assert elapsed < 0.8

    def test_resilient_service_converts_cancellation_to_verdict(self):
        # a latency fault stretches the attempt past the request deadline;
        # the guard fires at the next boundary and the chain is abandoned
        plan = FaultPlan.parse("*:latency:1.0:0.03", seed=1)
        front = ConcurrentFront(
            SPEC.build,
            pool_size=1,
            deadline_s=0.05,
            fault_plan=plan,
            cache_answers=False,
            retries=0,
            backoff_s=0.0,
            sleep=_no_sleep,
        )
        with front:
            result = front.ask(
                "which instructors have salary above the average salary", "athena"
            )
        assert result.verdict == VERDICT_CANCELLED
        assert result.degraded_from, "the cancelled system must be recorded"
        assert any(e.kind == "cancelled" for e in result.fault_trace)


# ---------------------------------------------------------------------------
# Serve-layer answer cache
# ---------------------------------------------------------------------------


class TestAnswerCache:
    def _answered(self, **overrides) -> ServeResult:
        base = dict(
            question="salary of Ada",
            requested_system="athena",
            ok=True,
            system="athena",
            answer=Relation(["salary"], [(120.0,)]),
            sql="SELECT salary FROM emp",
            explanation="the salary of Ada",
            verdict=VERDICT_ANSWERED,
        )
        base.update(overrides)
        return ServeResult(**base)

    def test_roundtrip_reconstructs_everything(self):
        cache = AnswerCache()
        cache.put("salary of Ada", 7, self._answered(), "athena")
        hit = cache.get("salary of Ada", 7, "athena")
        assert hit is not None and hit.cached
        assert project(hit) == project(self._answered())

    def test_normalized_question_keys_alias(self):
        cache = AnswerCache()
        cache.put("salary of Ada", 7, self._answered(), "athena")
        assert cache.get("  salary   of Ada ", 7, "athena") is not None

    def test_data_version_invalidates(self):
        cache = AnswerCache()
        cache.put("salary of Ada", 7, self._answered(), "athena")
        assert cache.get("salary of Ada", 8, "athena") is None

    def test_requested_system_slots_do_not_alias(self):
        cache = AnswerCache()
        cache.put("salary of Ada", 7, self._answered(), "athena")
        assert cache.get("salary of Ada", 7, "soda") is None
        assert cache.get("salary of Ada", 7, None) is None

    def test_only_clean_deterministic_results_are_cacheable(self):
        from repro.serve import FaultEvent

        assert AnswerCache.cacheable(self._answered())
        degraded = self._answered(degraded_from=[("athena", "no interpretation")])
        assert AnswerCache.cacheable(degraded)  # deterministic degradation
        assert not AnswerCache.cacheable(self._answered(ok=False, answer=None))
        assert not AnswerCache.cacheable(self._answered(retries=1))
        faulted = self._answered(
            fault_trace=[FaultEvent("execute", "latency", "slept")]
        )
        assert not AnswerCache.cacheable(faulted)

    def test_cached_entries_are_isolated_from_caller_mutation(self):
        cache = AnswerCache()
        cache.put("salary of Ada", 7, self._answered(), "athena")
        hit = cache.get("salary of Ada", 7, "athena")
        hit.answer.rows.append(("poison",))
        hit.degraded_from.append(("x", "y"))
        again = cache.get("salary of Ada", 7, "athena")
        assert again.answer.rows == [(120.0,)]
        assert again.degraded_from == []

    def test_front_bypasses_cache_under_fault_plan(self, uni_questions):
        with make_front(4, FAULT_PLAN) as front:
            front.serve_many(uni_questions, "athena")
            counters = dict(front.counters)
        assert counters["cache_hits"] == 0

    def test_concurrent_put_get_hammer(self):
        cache = AnswerCache(maxsize=64)
        errors = []

        def worker(worker_id: int):
            try:
                for i in range(200):
                    question = f"q{(worker_id + i) % 40}"
                    cache.put(question, 1, self._answered(question=question), "athena")
                    hit = cache.get(question, 1, "athena")
                    if hit is not None:
                        assert hit.question == question
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert errors == []


# ---------------------------------------------------------------------------
# Front lifecycle, health, reporting
# ---------------------------------------------------------------------------


class TestFrontLifecycle:
    def test_requires_exactly_one_factory(self):
        with pytest.raises(ValueError):
            ConcurrentFront()
        with pytest.raises(ValueError):
            ConcurrentFront(SPEC.build, service_factory=EchoService)

    def test_validates_pool_and_queue(self):
        with pytest.raises(ValueError):
            ConcurrentFront(SPEC.build, pool_size=0)
        with pytest.raises(ValueError):
            ConcurrentFront(SPEC.build, queue_depth=0)

    def test_double_start_raises_stop_is_idempotent(self):
        front = ConcurrentFront(
            service_factory=EchoService, pool_size=1, cache_answers=False
        )
        front.start()
        with pytest.raises(RuntimeError):
            front.start()
        front.stop()
        front.stop()  # idempotent
        assert front.started and not front.running

    def test_results_come_back_in_input_order(self):
        def factory(breakers):
            # later requests finish *sooner*: order must still hold
            class Skewed(EchoService):
                def ask(self, question, system=None, *, injector=None, request_id=None):
                    time.sleep(0.02 / (1 + (request_id or 0)))
                    return super().ask(
                        question, system, injector=injector, request_id=request_id
                    )

            return Skewed(breakers)

        front = ConcurrentFront(
            service_factory=factory, pool_size=4, cache_answers=False
        )
        questions = [f"q{i}" for i in range(12)]
        with front:
            results, _ = front.serve_many(questions)
        assert [r.question for r in results] == questions
        assert [r.request_id for r in results] == list(range(12))

    def test_worker_survives_service_exceptions(self):
        holder = {}

        def factory(breakers):
            return holder.setdefault("service", FaultyService(breakers))

        front = ConcurrentFront(
            service_factory=factory, pool_size=1, cache_answers=False
        )
        with front:
            first = front.ask("boom")
            second = front.ask("boom again")
        assert first.verdict == VERDICT_FAILED and not first.ok
        assert second.verdict == VERDICT_FAILED
        assert holder["service"].calls == 2, "the worker must keep serving"
        assert front.counters["worker_errors"] == 2

    def test_healthz_shape_and_status(self):
        front = ConcurrentFront(
            service_factory=EchoService,
            pool_size=2,
            queue_depth=5,
            deadline_s=1.5,
            cache_answers=False,
        )
        with front:
            front.ask("hello")
            health = front.healthz()
        assert health["status"] == "ok"
        assert health["pool_size"] == 2
        assert health["queue"]["capacity"] == 5
        assert health["deadline_s"] == 1.5
        assert health["counters"]["completed"] == 1
        assert front.healthz()["status"] == "stopped"

    def test_healthz_reports_open_breakers_as_degraded(self):
        front = ConcurrentFront(
            service_factory=EchoService, pool_size=1, cache_answers=False
        )
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=1e9)
        breaker.record_failure()
        front.breakers["athena"] = breaker
        with front:
            health = front.healthz()
        assert health["status"] == "degraded"
        assert health["breakers"]["athena"]["state"] == OPEN

    def test_shared_breakers_across_workers(self, uni_questions):
        plan = FaultPlan.parse("*:error:1.0", seed=2)
        with make_front(
            4, plan, failure_threshold=3, retries=0, cache_answers=False
        ) as front:
            front.serve_many(uni_questions[:8], "athena")
            snapshots = {n: b.snapshot() for n, b in front.breakers.items()}
        # every system in the chain failed everywhere: with the registry
        # shared, each breaker tripped once for the whole pool
        assert snapshots, "breakers must exist in the shared registry"
        for name, snap in snapshots.items():
            assert snap["state"] == OPEN, name
            assert snap["failures"] <= 3, name


class TestLatencyPercentiles:
    def test_empty_results(self):
        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_nearest_rank_on_known_distribution(self):
        results = [
            ServeResult(question="q", requested_system="x", elapsed_s=ms / 1000.0)
            for ms in range(1, 101)
        ]
        pct = latency_percentiles(results)
        assert pct["p50"] == pytest.approx(0.050)
        assert pct["p95"] == pytest.approx(0.095)
        assert pct["p99"] == pytest.approx(0.099)

    def test_queue_time_counts_toward_latency(self):
        result = ServeResult(
            question="q", requested_system="x", elapsed_s=0.01, queued_s=0.09
        )
        assert latency_percentiles([result])["p50"] == pytest.approx(0.1)
