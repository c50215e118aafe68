"""Experiment harness: run systems over workloads and print tables.

Every experiment (E1-E12 in DESIGN.md) boils down to: build databases,
generate gold pairs, run one or more systems, fold outcomes into metric
rows, print the table.  This module is that shared machinery; the files
under ``benchmarks/`` parameterize it per experiment.

Evaluation optionally shares an :class:`~repro.perf.cache.EvaluationCache`
across examples and systems (interpretations, gold results, match
verdicts, static analyses — all keyed on the database ``data_version``)
and records per-stage wall-clock into a
:class:`~repro.perf.profiler.StageProfiler`.  Both are opt-in and change
nothing about the outcomes themselves: a cached sweep is byte-identical
to an uncached one, just cheaper.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.complexity import ComplexityTier
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.perf.cache import MISSING, EvaluationCache
from repro.perf.profiler import StageProfiler, profile_span, profile_stage
from repro.sqldb import parse_select

from .metrics import ExampleOutcome, EvaluationSummary, by_tier, execution_match, exact_match, summarize
from .workloads import QueryExample


def evaluate_system(
    system: NLIDBSystem,
    context: NLIDBContext,
    examples: Sequence[QueryExample],
    cache: Optional[EvaluationCache] = None,
    profiler: Optional[StageProfiler] = None,
) -> List[ExampleOutcome]:
    """Run ``system`` over ``examples`` and score every prediction.

    With a ``cache``, repeated questions, shared gold queries and repeated
    (predicted, gold) pairs are served from memos instead of re-computed;
    with a ``profiler``, pipeline stages record spans for the duration of
    the sweep.  Outcomes are identical either way.
    """
    activation = profiler.activate() if profiler is not None else nullcontext()
    outcomes: List[ExampleOutcome] = []
    with activation:
        for example in examples:
            outcomes.append(_evaluate_example(system, context, example, cache))
    return outcomes


def _evaluate_example(
    system: NLIDBSystem,
    context: NLIDBContext,
    example: QueryExample,
    cache: Optional[EvaluationCache],
) -> ExampleOutcome:
    predicted_sql: Optional[str] = None
    pruning_before = context.schema_index_counters()
    pruning_before = pruning_before.snapshot() if pruning_before is not None else None
    interp_start = time.perf_counter()
    try:
        with profile_span("interpret"):
            interpretations = _interpret(system, context, example.question, cache)
    except Exception:
        interpretations = []
    interp_ms = 1000.0 * (time.perf_counter() - interp_start)
    cand_pruned: Optional[int] = None
    live = context.schema_index_counters()
    if live is not None:
        # a None snapshot means this example lazily built the index, so
        # the live counters are entirely its own
        cand_pruned = (
            live.delta(pruning_before).pruned
            if pruning_before is not None
            else live.pruned
        )
    if interpretations:
        top = max(interpretations, key=lambda i: i.confidence)
        try:
            with profile_stage("compile"):
                predicted_sql = top.to_sql(context.ontology, context.mapping).to_sql()
        except Exception:
            predicted_sql = None
    answered = predicted_sql is not None
    static_rejected = False
    metadata = dict(example.metadata)
    correct = False
    if answered:
        rejected, codes = _analyze(context, predicted_sql, cache)
        static_rejected = rejected
        if codes is not None:
            metadata["static_diagnostics"] = codes
        with profile_span("score"):
            correct = _match(context, predicted_sql, example.sql, cache)
    return ExampleOutcome(
        question=example.question,
        gold_sql=example.sql,
        predicted_sql=predicted_sql,
        answered=answered,
        correct=correct,
        exact=answered and exact_match(predicted_sql, example.sql),
        tier=example.tier,
        static_rejected=static_rejected,
        metadata=metadata,
        interp_ms=interp_ms,
        cand_pruned=cand_pruned,
    )


def _interpret(
    system: NLIDBSystem,
    context: NLIDBContext,
    question: str,
    cache: Optional[EvaluationCache],
) -> List[Any]:
    if cache is None:
        return system.interpret(question, context)
    version = context.database.data_version
    found = cache.interpretations.get(system.name, question, version)
    if found is not None:
        return found
    interpretations = system.interpret(question, context)
    cache.interpretations.put(system.name, question, version, interpretations)
    return interpretations


def _analyze(
    context: NLIDBContext, sql: str, cache: Optional[EvaluationCache]
) -> Tuple[bool, Optional[List[str]]]:
    """(static_rejected, diagnostic codes or None) for one predicted SQL."""
    if cache is None:
        return _analyze_fresh(context, sql)
    key = (sql, context.database.data_version)
    cached = cache.static_analysis.get(key, MISSING)
    if cached is MISSING:
        cached = _analyze_fresh(context, sql)
        cache.static_analysis.put(key, cached)
    rejected, codes = cached
    return rejected, list(codes) if codes is not None else None


def _analyze_fresh(context: NLIDBContext, sql: str) -> Tuple[bool, Optional[List[str]]]:
    analysis = context.database.analyze_sql(sql)
    codes = analysis.codes() if analysis.diagnostics else None
    return (not analysis.ok, codes)


def _match(
    context: NLIDBContext,
    predicted_sql: str,
    gold_sql: str,
    cache: Optional[EvaluationCache],
) -> bool:
    if cache is None:
        return execution_match(context.database, predicted_sql, gold_sql)
    database = context.database
    version = database.data_version
    vkey = (predicted_sql, gold_sql, version)
    verdict = cache.match_verdicts.get(vkey, MISSING)
    if verdict is not MISSING:
        return verdict
    # The database's shared executor keeps parse/plan caches warm across
    # examples; verdict semantics match metrics.execution_match exactly.
    executor = database.executor
    gkey = (gold_sql, version)
    pair = cache.gold_results.get(gkey, MISSING)
    if pair is MISSING:
        gold_stmt = parse_select(gold_sql)
        pair = (gold_stmt, executor.execute(gold_stmt))
        cache.gold_results.put(gkey, pair)
    gold_stmt, gold = pair
    try:
        predicted = executor.execute_sql(predicted_sql)
    except Exception:
        verdict = False
    else:
        if gold_stmt.order_by:
            verdict = gold.equals_ordered(predicted)
        else:
            verdict = gold.equals_unordered(predicted)
    cache.match_verdicts.put(vkey, verdict)
    return verdict


@dataclass
class ComparisonRow:
    """One row of an experiment table.

    The perf columns (cache hit rate, per-example stage timings) are
    measurements *about* a run, not results *of* it — they are excluded
    from equality so differential tests can assert cached == uncached.
    The serve columns (availability, degraded-answer count, retries)
    come from an optional resilient-serving sweep (``repro bench
    --serve``) and are likewise excluded: they describe the serving
    layer's behavior under the configured fault plan, not the system's
    interpretation quality.
    """

    system: str
    scope: str  # e.g. tier label, paraphrase level, train size
    summary: EvaluationSummary
    cache_hit_rate: Optional[float] = field(default=None, compare=False)
    interp_ms: Optional[float] = field(default=None, compare=False)
    exec_ms: Optional[float] = field(default=None, compare=False)
    #: schema-index candidates pruned before scoring across the sweep
    #: (mirrors ``static_rej``: a whole-sweep count attached to each row)
    cand_pruned: Optional[int] = field(default=None, compare=False)
    #: per-example interpretation latency percentiles over the sweep
    interp_p50_ms: Optional[float] = field(default=None, compare=False)
    interp_p95_ms: Optional[float] = field(default=None, compare=False)
    availability: Optional[float] = field(default=None, compare=False)
    degraded_answers: Optional[int] = field(default=None, compare=False)
    serve_retries: Optional[int] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict for printing/serialization."""
        out = {
            "system": self.system,
            "scope": self.scope,
            "total": self.summary.total,
            "answered": self.summary.answered,
            "correct": self.summary.correct,
            "accuracy": round(self.summary.accuracy, 3),
            "precision": round(self.summary.precision, 3),
            "answer_rate": round(self.summary.answer_rate, 3),
            "static_rej": self.summary.static_rejections,
            "cand_pruned": self.cand_pruned if self.cand_pruned is not None else "",
            "cache_hit": round(self.cache_hit_rate, 3)
            if self.cache_hit_rate is not None
            else "",
            "interp_ms": round(self.interp_ms, 2) if self.interp_ms is not None else "",
            "interp_p50": round(self.interp_p50_ms, 2)
            if self.interp_p50_ms is not None
            else "",
            "interp_p95": round(self.interp_p95_ms, 2)
            if self.interp_p95_ms is not None
            else "",
            "exec_ms": round(self.exec_ms, 2) if self.exec_ms is not None else "",
        }
        # Serve columns only exist when a serving sweep ran (bench
        # --serve); emitting them empty would widen every plain table.
        if self.availability is not None:
            out["avail"] = round(self.availability, 3)
            out["degraded"] = self.degraded_answers if self.degraded_answers is not None else ""
            out["retries"] = self.serve_retries if self.serve_retries is not None else ""
        return out

    def attach_serve(self, summary: Any) -> None:
        """Fill the serve columns from a :class:`repro.serve.ServeSummary`."""
        self.availability = summary.availability
        self.degraded_answers = summary.degraded_ok
        self.serve_retries = summary.retries


def rows_for_outcomes(
    system_name: str,
    outcomes: Sequence[ExampleOutcome],
    split_by_tier: bool = True,
    cache_hit_rate: Optional[float] = None,
    profiler: Optional[StageProfiler] = None,
) -> List[ComparisonRow]:
    """Fold one system's outcomes into table rows (tier rows + "all").

    ``profiler`` should cover exactly this system's sweep (use
    ``StageProfiler.delta`` when one profiler spans several systems); its
    interpret/compile/score/execute totals become per-example timings.
    The ``cand_pruned`` total and interpretation latency percentiles come
    from the outcomes themselves and, like ``interp_ms``, describe the
    whole sweep (the same values are attached to every row).
    """
    interp_ms, exec_ms = _per_example_timings(profiler, len(outcomes))
    pruned_counts = [o.cand_pruned for o in outcomes if o.cand_pruned is not None]
    cand_pruned = sum(pruned_counts) if pruned_counts else None
    latencies = [o.interp_ms for o in outcomes if o.interp_ms is not None]
    interp_p50 = _percentile(latencies, 0.5)
    interp_p95 = _percentile(latencies, 0.95)
    rows: List[ComparisonRow] = []
    if split_by_tier:
        for tier, summary in by_tier(outcomes).items():
            label = tier.label if isinstance(tier, ComplexityTier) else str(tier)
            rows.append(
                ComparisonRow(
                    system_name,
                    label,
                    summary,
                    cache_hit_rate,
                    interp_ms,
                    exec_ms,
                    cand_pruned=cand_pruned,
                    interp_p50_ms=interp_p50,
                    interp_p95_ms=interp_p95,
                )
            )
    rows.append(
        ComparisonRow(
            system_name,
            "all",
            summarize(outcomes),
            cache_hit_rate,
            interp_ms,
            exec_ms,
            cand_pruned=cand_pruned,
            interp_p50_ms=interp_p50,
            interp_p95_ms=interp_p95,
        )
    )
    return rows


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 1]); ``None`` on no data."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def _per_example_timings(
    profiler: Optional[StageProfiler], count: int
) -> Tuple[Optional[float], Optional[float]]:
    if profiler is None or not count:
        return None, None
    interp = profiler.seconds("interpret")
    execution = (
        profiler.seconds("compile")
        + profiler.seconds("score")
        + profiler.seconds("execute")
    )
    return 1000.0 * interp / count, 1000.0 * execution / count


def compare_systems(
    systems: Sequence[NLIDBSystem],
    context: NLIDBContext,
    examples: Sequence[QueryExample],
    split_by_tier: bool = True,
    cache: Optional[EvaluationCache] = None,
    profiler: Optional[StageProfiler] = None,
) -> List[ComparisonRow]:
    """Evaluate each system; one row per (system, tier) plus an "all" row.

    With a ``cache``/``profiler``, each system's rows additionally carry
    its interpretation-cache hit rate and per-example stage timings.
    """
    rows: List[ComparisonRow] = []
    for system in systems:
        stats_before = cache.snapshot() if cache is not None else None
        stages_before = profiler.snapshot() if profiler is not None else None
        outcomes = evaluate_system(
            system, context, examples, cache=cache, profiler=profiler
        )
        hit_rate: Optional[float] = None
        if cache is not None and stats_before is not None:
            layer = cache.delta(stats_before).get("interpretations")
            if layer is not None and layer.lookups:
                hit_rate = layer.hit_rate
        rows.extend(
            rows_for_outcomes(
                system.name,
                outcomes,
                split_by_tier=split_by_tier,
                cache_hit_rate=hit_rate,
                profiler=profiler.delta(stages_before)
                if profiler is not None and stages_before is not None
                else None,
            )
        )
    return rows


def format_table(rows: Iterable[Dict[str, Any]], title: str = "") -> str:
    """ASCII table from an iterable of flat dicts (stable column order)."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            widths[column] = max(widths[column], len(text))
            cells.append(text)
        rendered.append(cells)
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for cells in rendered:
        lines.append(
            " | ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns))
        )
    return "\n".join(lines)


def print_table(rows: Iterable[ComparisonRow], title: str = "") -> str:
    """Format and print comparison rows; returns the text."""
    text = format_table([r.as_dict() for r in rows], title)
    print(text)
    return text
