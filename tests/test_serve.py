"""Tests for the resilient serving layer (repro.serve)."""

from __future__ import annotations

import pytest

import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.domains import ContextSpec
from repro.bench.workload_gen import build_telemetry_db
from repro.bench.workloads import WorkloadGenerator
from repro.core.registry import create
from repro.perf.profiler import StageProfiler, stage_hook
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjected,
    FaultInjector,
    FaultPlan,
    ResilientService,
    ServeResult,
    serve_workload,
)
from repro.serve.faults import KNOWN_STAGES, CorruptedInterpretation
from repro.sqldb.executor import Executor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("execute:error:0.5,match:latency:0.2:0.05")
        assert len(plan.specs) == 2
        assert plan.specs[0].stage == "execute"
        assert plan.specs[1].param == 0.05
        assert FaultPlan.parse(plan.spec_text()) == plan

    def test_parse_seed_entry_and_wildcard(self):
        plan = FaultPlan.parse("*:corrupt:0.3,seed=99")
        assert plan.seed == 99
        assert plan.specs[0].matches("rank")
        assert plan.specs[0].matches("anything")

    @pytest.mark.parametrize(
        "text",
        [
            "bogus:error:0.5",  # unknown stage
            "execute:frobnicate:0.5",  # unknown kind
            "execute:error:1.5",  # rate out of range
            "execute:error",  # too few fields
            # timed, but never a stage-hook boundary
            "schema_index:error:1.0",
            "interpret:error:1.0",
            "score:error:1.0",
        ],
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultPlan.parse(text)

    def test_empty_plan(self):
        assert FaultPlan.parse("").specs == ()


class TestFaultInjector:
    def test_error_injection_is_deterministic(self):
        def run():
            injector = FaultInjector(FaultPlan.parse("execute:error:0.5", seed=7))
            hits = []
            for i in range(20):
                try:
                    injector.on_stage("execute")
                    hits.append(False)
                except FaultInjected:
                    hits.append(True)
            return hits

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_latency_injection_sleeps_and_records(self):
        slept = []
        injector = FaultInjector(
            FaultPlan.parse("match:latency:1.0:0.25", seed=1), sleep=slept.append
        )
        injector.on_stage("match")
        assert slept == [0.25]
        assert injector.events[0].kind == "latency"

    def test_non_matching_stage_is_untouched(self):
        injector = FaultInjector(FaultPlan.parse("execute:error:1.0", seed=1))
        injector.on_stage("tokenize")  # must not raise
        assert injector.events == []

    def test_corrupt_poisons_top_interpretation(self):
        injector = FaultInjector(FaultPlan.parse("*:corrupt:1.0", seed=1))
        out = injector.maybe_corrupt(["real-a", "real-b"])
        assert isinstance(out[0], CorruptedInterpretation)
        assert out[1] == "real-b"
        with pytest.raises(FaultInjected):
            out[0].to_sql(None, None)

    def test_noop_injector_never_changes_anything(self):
        noop = FaultInjector(FaultPlan())
        state = noop._rng.getstate()
        noop.on_stage("execute")
        assert noop.maybe_corrupt(["x"]) == ["x"]
        assert noop.drain_events() == []
        assert noop._rng.getstate() == state  # nothing drawn

    def test_only_known_stages_fire_the_hook(self):
        # Cold asks on a fresh context build the schema index, and the
        # telemetry scan runs the columnar kernels: both are timed, but
        # only the six stage boundaries may reach a hook.
        seen = set()
        profiler = StageProfiler()
        service = ResilientService(ContextSpec("retail", seed=0).build())
        executor = Executor(build_telemetry_db(2_000, seed=0))
        with profiler.activate(), stage_hook(seen.add):
            for question in ("how many customers are there", "total price of all products"):
                service.ask(question)
            executor.execute_sql("SELECT COUNT(*) FROM telemetry WHERE duration_ms > 100")
        assert executor.last_stats.vectorized == 1
        assert {"schema_index", "columnar-scan"} <= set(profiler.stages)
        assert seen and seen <= set(KNOWN_STAGES)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_s=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()

    def test_half_open_probe_and_recovery(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 11.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 6.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed: re-trip immediately
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=5.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED


# ---------------------------------------------------------------------------
# ResilientService
# ---------------------------------------------------------------------------

QUESTION = "salary of Ada"


def make_service(emp_ctx, **kwargs):
    kwargs.setdefault("backoff_s", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return ResilientService(emp_ctx, **kwargs)


class TestResilientService:
    def test_clean_serve_matches_direct_call(self, emp_ctx):
        """Injection-disabled serving is byte-identical to the system."""
        service = make_service(emp_ctx)
        direct = create("athena").answer(QUESTION, emp_ctx)
        result = service.ask(QUESTION)
        assert result.ok and not result.degraded and result.retries == 0
        assert result.system == "athena"
        assert result.fault_trace == []
        assert direct is not None and result.answer is not None
        assert result.answer.columns == direct.columns
        assert result.answer.rows == direct.rows

    def test_never_raises_under_full_injection(self, emp_ctx):
        injector = FaultInjector(FaultPlan.parse("*:error:1.0", seed=3))
        service = make_service(emp_ctx, retries=1, injector=injector)
        result = service.ask(QUESTION)
        assert isinstance(result, ServeResult)
        assert not result.ok and result.answer is None
        # every chain system was tried and recorded with its reason
        assert [name for name, _ in result.degraded_from] == [
            "athena",
            "sqak",
            "soda",
        ]
        assert all("injected" in reason for _, reason in result.degraded_from)

    def test_degraded_answer_records_failed_primary(self, emp_ctx):
        """A failing primary is served by a fallback, with the fall
        recorded in degraded_from."""

        class FailFirstN:
            """Inject an error on the first N execute boundaries only."""

            def __init__(self, n):
                self.remaining = n
                self.events = []

            def on_stage(self, stage):
                if stage == "execute" and self.remaining > 0:
                    self.remaining -= 1
                    raise FaultInjected(stage)

            def maybe_corrupt(self, interps):
                return list(interps)

            def drain_events(self):
                return []

        injector = FailFirstN(3)  # athena: initial try + 2 retries
        service = make_service(emp_ctx, retries=2, injector=injector)
        result = service.ask(QUESTION)
        assert result.ok and result.degraded
        assert result.system in ("sqak", "soda")
        assert result.degraded_from[0][0] == "athena"
        assert result.retries == 2

    def test_retries_then_succeeds(self, emp_ctx):
        class FailOnce:
            def __init__(self):
                self.fired = False
                self.events = []

            def on_stage(self, stage):
                if stage == "execute" and not self.fired:
                    self.fired = True
                    raise FaultInjected(stage)

            def maybe_corrupt(self, interps):
                return list(interps)

            def drain_events(self):
                return []

        service = make_service(emp_ctx, retries=2, injector=FailOnce())
        result = service.ask(QUESTION)
        assert result.ok and result.system == "athena"
        assert result.retries == 1
        assert not result.degraded

    def test_backoff_is_exponential(self, emp_ctx):
        sleeps = []
        injector = FaultInjector(FaultPlan.parse("*:error:1.0", seed=1))
        service = ResilientService(
            emp_ctx,
            fallback_chain=("athena",),
            retries=3,
            backoff_s=0.1,
            backoff_factor=2.0,
            injector=injector,
            sleep=sleeps.append,
        )
        result = service.ask(QUESTION)
        assert not result.ok
        assert sleeps == [0.1, 0.2, 0.4]

    def test_timeout_trips_at_stage_boundary(self, emp_ctx):
        clock = FakeClock()
        injector = FaultInjector(
            FaultPlan.parse("*:latency:1.0:5.0", seed=1), sleep=clock.sleep
        )
        service = ResilientService(
            emp_ctx,
            retries=0,
            backoff_s=0.0,
            timeout_s=1.0,
            injector=injector,
            sleep=clock.sleep,
            clock=clock,
        )
        result = service.ask(QUESTION)
        assert not result.ok
        assert all("deadline" in reason for _, reason in result.degraded_from)

    def test_breaker_opens_and_skips_system(self, emp_ctx):
        clock = FakeClock()
        injector = FaultInjector(FaultPlan.parse("*:error:1.0", seed=2))
        service = ResilientService(
            emp_ctx,
            retries=0,
            backoff_s=0.0,
            failure_threshold=2,
            recovery_s=100.0,
            injector=injector,
            sleep=lambda s: None,
            clock=clock,
        )
        service.ask(QUESTION)
        service.ask(QUESTION)
        assert service.breaker("athena").state == OPEN
        third = service.ask(QUESTION)
        assert ("athena", "circuit breaker open") in third.degraded_from
        # after the recovery window the probe goes through again
        clock.now = 200.0
        assert service.breaker("athena").allow()

    def test_abstentions_never_open_a_breaker(self, emp_ctx):
        # An abstention is a verdict, not a fault: however many in a row,
        # the next answerable question still reaches the primary.
        service = make_service(emp_ctx)
        for _ in range(service.failure_threshold + 1):
            assert not service.ask("flibbertigibbet quux zorp").ok
        states = {name: s["state"] for name, s in service.breaker_snapshots().items()}
        assert states == {"athena": CLOSED, "sqak": CLOSED, "soda": CLOSED}
        result = service.ask(QUESTION)
        assert result.ok and result.system == "athena"
        assert result.degraded_from == []

    def test_unknown_question_degrades_not_raises(self, emp_ctx):
        service = make_service(emp_ctx)
        result = service.ask("flibbertigibbet quux zorp")
        assert isinstance(result, ServeResult)
        assert not result.ok
        assert len(result.degraded_from) == 3

    def test_corruption_is_survived(self, emp_ctx):
        # Corrupt every interpretation list: the poisoned top candidate
        # fails compilation, and retries re-poison, so the chain exhausts
        # — but it must never raise.
        injector = FaultInjector(FaultPlan.parse("*:corrupt:1.0", seed=4))
        service = make_service(emp_ctx, retries=1, injector=injector)
        result = service.ask(QUESTION)
        assert isinstance(result, ServeResult)
        assert not result.ok
        assert any(e.kind == "corrupt" for e in result.fault_trace)

    def test_requested_system_heads_the_chain(self, emp_ctx):
        service = make_service(emp_ctx)
        result = service.ask(QUESTION, system="soda")
        assert result.requested_system == "soda"
        assert result.ok and result.system == "soda"

    def test_sql_recorded_on_success(self, emp_ctx):
        service = make_service(emp_ctx)
        result = service.ask(QUESTION)
        assert result.sql and "SELECT" in result.sql.upper()

    def test_as_dict_is_json_ready(self, emp_ctx):
        import json

        injector = FaultInjector(FaultPlan.parse("*:error:0.5", seed=5))
        service = make_service(emp_ctx, retries=1, injector=injector)
        payload = service.ask(QUESTION).as_dict()
        json.dumps(payload)  # must not raise
        assert payload["question"] == QUESTION
        assert "degraded_from" in payload and "fault_trace" in payload

    def test_empty_fallback_chain_rejected(self, emp_ctx):
        with pytest.raises(ValueError):
            ResilientService(emp_ctx, fallback_chain=())


class TestServeWorkload:
    def test_summary_aggregates(self, emp_ctx):
        service = make_service(emp_ctx)
        questions = [QUESTION, "flibbertigibbet quux zorp"]
        results, summary = serve_workload(service, questions)
        assert summary.total == 2
        assert summary.ok == 1 and summary.failed == 1
        assert summary.availability == 0.5
        assert len(results) == 2

    def test_full_injection_never_raises_and_counts_faults(self, emp_ctx):
        injector = FaultInjector(FaultPlan.parse("*:error:1.0", seed=6))
        service = make_service(
            emp_ctx, retries=1, injector=injector, failure_threshold=1000
        )
        results, summary = serve_workload(service, [QUESTION] * 5)
        assert summary.availability == 0.0
        assert summary.faults > 0
        assert all(isinstance(r, ServeResult) for r in results)

    def test_deterministic_under_seed(self, emp_ctx):
        def run():
            injector = FaultInjector(FaultPlan.parse("*:error:0.3", seed=11))
            service = make_service(
                emp_ctx, retries=1, injector=injector, failure_threshold=1000
            )
            _, summary = serve_workload(service, [QUESTION] * 8)
            return summary.as_dict()

        first, second = run(), run()
        first.pop("elapsed_s"), second.pop("elapsed_s")
        assert first == second


#: every stage, every fault kind
MIXED_FAULT_PLAN = "*:error:0.2,*:latency:0.2:0.0005,*:corrupt:0.2"


@pytest.fixture(scope="module")
def uni_workload():
    context = ContextSpec("university", seed=3).build()
    examples = WorkloadGenerator(context.database, seed=3).generate_mixed(3)
    return context, [example.question for example in examples]


def uni_service(context, plan=None):
    injector = FaultInjector(FaultPlan.parse(plan, seed=3)) if plan else None
    # a huge threshold: measure degradation, not breaker trips
    return make_service(context, retries=2, injector=injector, failure_threshold=10_000)


class TestServeMixedWorkload:
    def test_clean_serving_equals_direct_answers(self, uni_workload):
        context, questions = uni_workload
        results, summary = serve_workload(uni_service(context), questions, system="athena")
        assert summary.ok > 0 and summary.retries == 0 and summary.faults == 0
        primary = create("athena")
        for result in results:
            direct = primary.answer(result.question, context)
            if result.ok:
                assert result.system == "athena" and direct is not None, result.question
                assert result.answer.columns == direct.columns, result.question
                assert result.answer.rows == direct.rows, result.question
            else:
                assert direct is None, result.question

    def test_mixed_faults_degrade_retry_and_replay(self, uni_workload):
        context, questions = uni_workload

        def run():
            return serve_workload(
                uni_service(context, MIXED_FAULT_PLAN), questions, system="athena"
            )

        results, summary = run()
        assert summary.total == len(questions)
        assert summary.degraded_ok > 0 and summary.retries > 0
        for result in results:
            if result.ok and result.degraded:
                assert result.degraded_from, result.question
                assert all(reason for _, reason in result.degraded_from), result.question
        first, replay = summary.as_dict(), run()[1].as_dict()
        first.pop("elapsed_s"), replay.pop("elapsed_s")
        assert first == replay
