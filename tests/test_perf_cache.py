"""Tests for the perf layer: caches, stats, invalidation, profiling,
and the copy-on-write thesaurus regression."""

from __future__ import annotations

import pytest

from repro.core import NLIDBContext
from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBSystem
from repro.nlp.thesaurus import DEFAULT_THESAURUS
from repro.perf import (
    CacheStats,
    EvaluationCache,
    InterpretationCache,
    LRUCache,
    StageProfiler,
    active_profiler,
    memoize,
    normalize_question,
    profile_span,
    profile_stage,
    stats_for,
)
from repro.perf.cache import MISSING
from repro.perf.profiler import stage_hook
from repro.sqldb import Column, Database, DataType, TableSchema, parse_select


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a", MISSING) is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_none_is_a_legal_value(self):
        cache = LRUCache()
        cache.put("k", None)
        assert cache.get("k", MISSING) is None

    def test_stats_merge_and_delta(self):
        a = CacheStats(hits=2, misses=1)
        before = a.snapshot()
        a.hits += 3
        delta = a.delta(before)
        assert delta.hits == 3 and delta.misses == 0
        assert a.hit_rate == pytest.approx(5 / 6)


class TestMemoize:
    def test_hits_and_clear(self):
        calls = []

        @memoize("test.memo", maxsize=8)
        def double(x):
            calls.append(x)
            return 2 * x

        assert double(3) == 6
        assert double(3) == 6
        assert calls == [3]
        assert double.cache_stats.hits >= 1
        double.cache_clear()
        assert double(3) == 6
        assert calls == [3, 3]

    def test_registry_aggregates_by_name(self):
        stats = stats_for("test.registry")
        assert stats_for("test.registry") is stats

    def test_nlp_primitives_record_stats(self):
        from repro.nlp.lemmatizer import lemmatize
        from repro.nlp.similarity import string_similarity

        before = stats_for("nlp.lemmatize").snapshot()
        lemmatize("salaries")
        lemmatize("salaries")
        assert stats_for("nlp.lemmatize").delta(before).hits >= 1

        before = stats_for("nlp.similarity").snapshot()
        string_similarity("salry", "salary")
        string_similarity("salry", "salary")
        assert stats_for("nlp.similarity").delta(before).hits >= 1


class TestNormalizeQuestion:
    def test_whitespace_collapsed(self):
        assert normalize_question("  show   all\temployees ") == "show all employees"

    def test_case_preserved(self):
        # Quoted values can be case-sensitive; two casings must not merge.
        assert normalize_question("find 'Bob'") != normalize_question("find 'bob'")


def _one_table_db() -> Database:
    db = Database("perfdb")
    db.create_table(
        TableSchema(
            "emp",
            [
                Column("id", DataType.INTEGER, primary_key=True, nullable=False),
                Column("name", DataType.TEXT),
            ],
        )
    )
    db.insert_many("emp", [(1, "ann"), (2, "bob")])
    return db


class _CountingSystem(NLIDBSystem):
    """Always answers SELECT COUNT(*) FROM emp; counts interpret calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def interpret(self, question, context):
        self.calls += 1
        return [
            Interpretation(
                system=self.name,
                confidence=1.0,
                sql=parse_select("SELECT COUNT(*) FROM emp"),
            )
        ]


class TestInterpretationCache:
    def test_deepcopy_on_get_isolates_callers(self):
        cache = InterpretationCache()
        interp = Interpretation(system="s", confidence=0.5, sql=parse_select("SELECT id FROM emp"))
        cache.put("s", "q", 1, [interp])
        first = cache.get("s", "q", 1)
        first[0].confidence = 0.0
        second = cache.get("s", "q", 1)
        assert second[0].confidence == 0.5
        # and the original object put in was snapshotted, not referenced
        interp.confidence = 0.9
        assert cache.get("s", "q", 1)[0].confidence == 0.5

    def test_empty_list_is_cached(self):
        cache = InterpretationCache()
        cache.put("s", "q", 1, [])
        assert cache.get("s", "q", 1) == []
        assert cache.stats.hits == 1

    def test_version_miss_on_mutation(self):
        cache = InterpretationCache()
        cache.put("s", "q", 1, [])
        assert cache.get("s", "q", 2) is None

    def test_cached_answer_not_served_after_insert(self):
        """Satellite: an INSERT must invalidate the interpretation cache
        (and the executor's verdict caches) — the next answer reflects
        the new data."""
        db = _one_table_db()
        context = NLIDBContext(db, interpretation_cache=InterpretationCache())
        system = _CountingSystem()

        first = system.answer("how many employees", context)
        assert first.rows[0][0] == 2
        again = system.answer("how many employees", context)
        assert again.rows[0][0] == 2
        assert system.calls == 1  # second answer served from the cache

        db.insert("emp", (3, "cho"))
        after = system.answer("how many employees", context)
        assert after.rows[0][0] == 3
        assert system.calls == 2  # data_version moved: cache not served

    def test_executor_analysis_cache_invalidates_on_insert(self):
        db = _one_table_db()
        executor = db.executor
        stmt_a = parse_select("SELECT id FROM emp")
        stmt_b = parse_select("SELECT name FROM emp")
        executor.analysis_for(stmt_a)
        executor.analysis_for(stmt_b)
        assert len(executor._analysis_cache) == 2
        db.insert("emp", (4, "dia"))
        executor.analysis_for(stmt_a)
        # the INSERT bumped data_version: old verdicts were dropped
        assert len(executor._analysis_cache) == 1


class TestThesaurusCopyOnWrite:
    def test_two_contexts_do_not_share_synonyms(self):
        """Satellite regression: schema synonyms registered by one
        context must not leak into another context or the default."""
        db_a = Database("a")
        db_a.create_table(
            TableSchema(
                "gizmo",
                [Column("id", DataType.INTEGER)],
                synonyms=("widgetron",),
            )
        )
        db_b = Database("b")
        db_b.create_table(
            TableSchema(
                "doohickey",
                [Column("id", DataType.INTEGER)],
                synonyms=("thingamajig",),
            )
        )
        ctx_a = NLIDBContext(db_a)
        ctx_b = NLIDBContext(db_b)

        assert ctx_a.thesaurus.are_synonyms("gizmo", "widgetron")
        assert ctx_b.thesaurus.are_synonyms("doohickey", "thingamajig")
        # no cross-context leakage
        assert not ctx_a.thesaurus.are_synonyms("doohickey", "thingamajig")
        assert not ctx_b.thesaurus.are_synonyms("gizmo", "widgetron")
        # and the shared default was never mutated
        assert not DEFAULT_THESAURUS.are_synonyms("gizmo", "widgetron")
        assert not DEFAULT_THESAURUS.are_synonyms("doohickey", "thingamajig")

    def test_copy_is_independent(self):
        clone = DEFAULT_THESAURUS.copy()
        clone.add_synonyms(["zorp", "blarf"])
        assert clone.are_synonyms("zorp", "blarf")
        assert not DEFAULT_THESAURUS.are_synonyms("zorp", "blarf")

    def test_memo_cleared_on_mutation(self):
        thesaurus = DEFAULT_THESAURUS.copy()
        assert not thesaurus.are_synonyms("frobnicate", "grok")
        thesaurus.add_synonyms(["frobnicate", "grok"])
        # a stale memoized False must not survive the mutation
        assert thesaurus.are_synonyms("frobnicate", "grok")


class TestStageProfiler:
    def test_inactive_profile_stage_is_noop(self):
        assert active_profiler() is None
        with profile_stage("tokenize"):
            pass  # records nowhere, raises nothing

    def test_spans_record_under_activation(self):
        profiler = StageProfiler()
        with profiler.activate():
            assert active_profiler() is profiler
            with profile_stage("parse"):
                pass
            with profile_stage("parse"):
                pass
        assert active_profiler() is None
        assert profiler.stages["parse"].calls == 2
        assert profiler.seconds("parse") >= 0.0

    def test_span_records_on_exception(self):
        profiler = StageProfiler()
        with profiler.activate():
            with pytest.raises(ValueError):
                with profile_stage("match"):
                    raise ValueError("boom")
        assert profiler.stages["match"].calls == 1

    def test_delta_and_merge(self):
        profiler = StageProfiler()
        with profiler.activate():
            with profile_stage("rank"):
                pass
        before = profiler.snapshot()
        with profiler.activate():
            with profile_stage("rank"):
                pass
        delta = profiler.delta(before)
        assert delta.stages["rank"].calls == 1
        assert profiler.stages["rank"].calls == 2

    def test_as_dict_and_report(self):
        profiler = StageProfiler()
        with profiler.activate():
            with profile_stage("execute"):
                pass
        as_dict = profiler.as_dict()
        assert as_dict["execute"]["calls"] == 1
        assert "execute" in profiler.report()

    def test_nested_hooks_fire_outer_then_inner(self):
        fired = []
        with stage_hook(lambda stage: fired.append(("outer", stage))):
            with stage_hook(lambda stage: fired.append(("inner", stage))):
                with profile_stage("match"):
                    pass
            # leaving the inner block restores the outer hook alone
            with profile_stage("rank"):
                pass
        assert fired == [("outer", "match"), ("inner", "match"), ("outer", "rank")]

    def test_outer_hook_raise_skips_inner(self):
        inner = []

        def outer(stage):
            raise RuntimeError(f"stop at {stage}")

        with stage_hook(outer):
            with stage_hook(inner.append):
                with pytest.raises(RuntimeError, match="stop at execute"):
                    with profile_stage("execute"):
                        pass
        assert inner == []

    def test_profile_span_times_without_firing_the_hook(self):
        fired = []
        profiler = StageProfiler()
        with profiler.activate(), stage_hook(fired.append):
            with profile_span("schema_index"):
                pass
            with profile_stage("compile"):
                pass
        assert fired == ["compile"]
        assert profiler.stages["schema_index"].calls == 1
        assert profiler.stages["compile"].calls == 1


class TestEvaluationCache:
    def test_snapshot_delta_merge_roundtrip(self):
        cache = EvaluationCache()
        before = cache.snapshot()
        cache.gold_results.put(("sql", 1), "result")
        cache.gold_results.get(("sql", 1))
        delta = cache.delta(before)
        assert delta["gold_results"].hits == 1
        assert delta["interpretations"].lookups == 0

    def test_clear(self):
        cache = EvaluationCache()
        cache.match_verdicts.put("k", True)
        cache.clear()
        assert cache.match_verdicts.get("k", MISSING) is MISSING
