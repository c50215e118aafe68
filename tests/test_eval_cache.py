"""Differential tests: an evaluation sweep over one shared
:class:`EvaluationCache` must be byte-identical to the uncached sweep —
same outcomes, same rows — for every registered system, including the
exception-swallowing paths."""

from __future__ import annotations

import pytest

from repro.bench.domains import ContextSpec
from repro.bench.harness import compare_systems, evaluate_system
from repro.bench.workloads import WorkloadGenerator
from repro.core import available, create
from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBSystem
from repro.perf import EvaluationCache, StageProfiler
from repro.sqldb import parse_select
from repro.systems import AthenaSystem  # noqa: F401  (populate the registry)

DOMAINS = ["university", "retail"]


@pytest.fixture(scope="module")
def workloads():
    """Per-domain (context, examples) pairs, built once."""
    out = {}
    for domain in DOMAINS:
        context = ContextSpec(domain, seed=3).build()
        examples = WorkloadGenerator(context.database, seed=3).generate_mixed(1)
        out[domain] = (context, examples)
    return out


@pytest.mark.parametrize("domain", DOMAINS)
class TestCachedMatchesUncached:
    def test_outcomes_identical_for_every_registered_system(
        self, workloads, domain
    ):
        context, examples = workloads[domain]
        cache = EvaluationCache()
        for name in available():
            uncached = evaluate_system(create(name), context, examples)
            cached = evaluate_system(create(name), context, examples, cache=cache)
            assert cached == uncached, f"{name} diverged on {domain}"

    def test_rows_identical_to_compare_systems(self, workloads, domain):
        context, examples = workloads[domain]
        names = available()
        uncached_rows = compare_systems(
            [create(n) for n in names], context, examples
        )
        cached_rows = compare_systems(
            [create(n) for n in names], context, examples, cache=EvaluationCache()
        )
        assert cached_rows == uncached_rows


class _RaisingSystem(NLIDBSystem):
    """interpret() always raises — exercises the except→abstain path."""

    name = "raising"

    def interpret(self, question, context):
        raise RuntimeError("interpretation exploded")


class _AbstainSystem(NLIDBSystem):
    """Always returns [] — exercises empty-list caching."""

    name = "abstain"

    def interpret(self, question, context):
        return []


class _BrokenSQLSystem(NLIDBSystem):
    """Predicts SQL over a phantom table — static rejection + execution
    failure paths."""

    name = "broken-sql"

    def interpret(self, question, context):
        return [
            Interpretation(
                system=self.name,
                confidence=1.0,
                sql=parse_select("SELECT nothing FROM phantom"),
            )
        ]


class TestExceptionPaths:
    def test_exception_swallowing_identical(self, workloads):
        context, examples = workloads["university"]
        systems = [_RaisingSystem(), _AbstainSystem(), _BrokenSQLSystem()]
        uncached_rows = compare_systems(systems, context, examples)
        cache = EvaluationCache()
        assert compare_systems(systems, context, examples, cache=cache) == uncached_rows
        for system in systems:
            uncached = evaluate_system(type(system)(), context, examples)
            assert evaluate_system(system, context, examples, cache=cache) == uncached

    def test_broken_sql_is_statically_rejected(self, workloads):
        context, examples = workloads["university"]
        outcomes = evaluate_system(
            _BrokenSQLSystem(), context, examples, cache=EvaluationCache()
        )
        assert all(o.answered and not o.correct for o in outcomes)
        assert all(o.static_rejected for o in outcomes)


class TestCachingBehaviour:
    def test_repeated_workload_hits_interpretation_cache(self, workloads):
        context, examples = workloads["university"]
        repeated = examples * 3
        cache = EvaluationCache()
        rows = compare_systems([create("soda")], context, repeated, cache=cache)
        layer = cache.stats()["interpretations"]
        assert layer.hit_rate > 0
        assert rows[-1].cache_hit_rate == pytest.approx(layer.hit_rate)

    def test_cached_sweep_identical_to_uncached(self, workloads):
        context, examples = workloads["retail"]
        repeated = examples * 2
        system = create("quest")
        uncached = evaluate_system(system, context, repeated)
        cached = evaluate_system(
            system, context, repeated, cache=EvaluationCache()
        )
        assert cached == uncached

    def test_profile_spans_recorded(self, workloads):
        context, examples = workloads["university"]
        profiler = StageProfiler()
        compare_systems(
            [create("soda")], context, examples, cache=EvaluationCache(), profiler=profiler
        )
        assert profiler.stages.get("interpret") is not None
        assert profiler.stages["interpret"].calls == len(examples)
