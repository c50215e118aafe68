"""Perf records: one runner for every ``BENCH_*.json`` at the repo root.

Each section times one engine or serving mechanism against the path it
replaces, asserts that both paths agree before timing anything, checks
its floors, and writes one record plus a table under
``benchmarks/results/``:

- ``planner`` — hash joins, index scans and the statement cache vs the
  naive interpreter;
- ``analyzer`` — static-analyzer cost, pre-flight caching, static
  rejection, and how many candidate interpretations of the bench
  domains' questions the analyzer (errors, SQL5xx inference
  diagnostics) prunes or flags;
- ``eval_cache`` — the evaluation sweep with one shared
  ``EvaluationCache`` vs the uncached sweep;
- ``columnar`` — vectorized kernels vs the row path on the telemetry
  table;
- ``serve_concurrency`` — serial serving vs the worker pool, clean and
  under sleeping latency faults;
- ``schema_index`` — indexed vs brute-force interpretation at catalog
  widths 10 to 250.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py [SECTION ...] [--quick]

No section names means all six.  ``--quick`` runs small scales against
relaxed floors and writes under the gitignored ``.bench_quick/``, so a
smoke run never overwrites a committed record; ``pytest
benchmarks/bench_perf.py`` runs each section that way.  Every record
carries a ``provenance`` block (:func:`_common.emit_record`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.catalog_gen import build_wide_catalog
from repro.bench.domains import ContextSpec, build_domain, domain_names
from repro.bench.harness import evaluate_system, format_table, rows_for_outcomes
from repro.bench.workload_gen import (
    SCAN_HEAVY_CLASSES,
    build_customers_orders,
    build_telemetry_db,
    generate_telemetry_queries,
)
from repro.bench.workloads import WorkloadGenerator
from repro.core.pipeline import NLIDBContext
from repro.core.registry import available, create
from repro.perf import EvaluationCache, StageProfiler
from repro.serve import (
    ConcurrentFront,
    FaultPlan,
    ResilientService,
    ServeResult,
    ServeSummary,
    latency_percentiles,
    replay_serial,
)
from repro.sqldb import SqlError, parse_select
from repro.sqldb.analyzer import SemanticAnalyzer
from repro.sqldb.executor import Executor

SEED = 0


def timed_runs(fn: Callable[[], object], repeat: int) -> List[float]:
    """Wall time in seconds of each of ``repeat`` runs."""
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return runs


def timeit(fn: Callable[[], object], repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    return min(timed_runs(fn, repeat))


def strict_rows(relation: Any) -> List[tuple]:
    """Type-tagged rows, so ``1`` vs ``1.0`` drift fails a parity check."""
    return [tuple((type(v).__name__, v) for v in row) for row in relation.rows]


def _title(text: str, quick: bool) -> str:
    return text + (" [quick]" if quick else "")


def _span(runs: List[float]) -> str:
    return f"{min(runs):.4f}-{max(runs):.4f}"


# -- planner -------------------------------------------------------------------

JOIN_SQL = (
    "SELECT o.id, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id WHERE c.region = 'west' AND o.total > 50"
)
POINT_SQL = "SELECT name FROM customers WHERE id = {key}"
#: prepared-statement shape: text long relative to the one row it reads
REPEAT_SQL = (
    "SELECT c.id, c.name, c.region, LENGTH(c.name) AS name_len "
    "FROM customers c "
    "WHERE c.id = 17 "
    "AND c.region IN ('west', 'east', 'north', 'south') "
    "AND c.name LIKE 'customer%' AND c.name NOT LIKE 'ghost%' "
    "AND c.id BETWEEN 0 AND 1000000 AND c.id IS NOT NULL "
    "ORDER BY c.id ASC LIMIT 1"
)


def planner(quick: bool) -> None:
    """Hash join vs nested loop, index scan vs full scan on point lookups,
    and cached vs re-parsed statements on a table small enough that
    parsing dominates."""
    scale, repeat, loops = (400, 2, 30) if quick else (4000, 3, 200)
    db = build_customers_orders(scale, scale, seed=0)
    planned, naive = Executor(db, use_planner=True), Executor(db, use_planner=False)
    for sql in (JOIN_SQL, REPEAT_SQL):
        assert planned.execute_sql(sql).rows == naive.execute_sql(sql).rows, sql
    keys = range(0, scale, max(1, scale // 50))
    small = build_customers_orders(25, 25, seed=1)
    cached = Executor(small, use_planner=True)
    uncached = Executor(small, use_planner=True, statement_cache_size=0)

    def points(executor: Executor) -> None:
        for key in keys:
            executor.execute_sql(POINT_SQL.format(key=key))

    def repeated(executor: Executor) -> None:
        for _ in range(loops):
            executor.execute_sql(REPEAT_SQL)

    workloads = [  # (key, slow label, fast label, table label, slow, fast)
        ("join", "naive", "planned", "join-heavy (hash join)",
         lambda: naive.execute_sql(JOIN_SQL), lambda: planned.execute_sql(JOIN_SQL)),
        ("point", "naive", "planned", f"point lookups x{len(keys)} (index scan)",
         lambda: points(naive), lambda: points(planned)),
        ("repeat", "uncached", "cached", f"repeated statement x{loops} (parse cache)",
         lambda: repeated(uncached), lambda: repeated(cached)),
    ]
    record: Dict[str, Any] = {"scale_rows": scale}
    rows = []
    for key, slow_label, fast_label, label, slow, fast in workloads:
        slow_s, fast_s = timeit(slow, repeat), timeit(fast, repeat)
        record.update({
            f"{key}_{slow_label}_s": slow_s,
            f"{key}_{fast_label}_s": fast_s,
            f"{key}_speedup": slow_s / fast_s,
        })
        rows.append({
            "workload": label,
            "naive_s": f"{slow_s:.4f}",
            "planned_s": f"{fast_s:.4f}",
            "speedup": f"{slow_s / fast_s:.1f}x",
        })
    title = _title(f"planner vs naive interpreter ({scale}x{scale} rows)", quick)
    emit_record("planner", format_table(rows, title), record, quick)
    if quick:  # the nested loop is too small to dominate
        assert record["join_speedup"] > 1.0 and record["repeat_speedup"] > 1.0, record
    else:
        assert record["join_speedup"] >= 5.0 and record["repeat_speedup"] >= 2.0, record


# -- analyzer ------------------------------------------------------------------

#: one broken statement per check family: names, types, aggregation,
#: arity, star use
INVALID_SQL = [
    "SELECT bogus FROM products",
    "SELECT name FROM nowhere",
    "SELECT pname + 1 FROM products",
    "SELECT pname FROM products WHERE price LIKE 'x%'",
    "SELECT pname FROM products WHERE SUM(price) > 10",
    "SELECT SUM(price, id) FROM products",
    "SELECT UPPER(*) FROM products",
    "SELECT * FROM products GROUP BY pname",
]


def _candidate_pruning(domain: str) -> Dict[str, Any]:
    """Compile and analyze *every* candidate interpretation (not just the
    top one) of every registered system over one domain's questions:
    errors would be dropped by ``apply_static_analysis``, and SQL5xx
    inference diagnostics down-weight a candidate."""
    db = build_domain(domain, seed=SEED)
    context = NLIDBContext(db)
    examples = WorkloadGenerator(db, seed=SEED).generate_mixed(4)
    candidates = error_pruned = inference_flagged = 0
    for name in available():
        system = create(name)
        for example in examples:
            try:
                interpretations = system.interpret(example.question, context)
            except Exception:
                continue
            for interpretation in interpretations:
                try:
                    sql = interpretation.to_sql(context.ontology, context.mapping).to_sql()
                except Exception:
                    continue
                candidates += 1
                result = db.analyze_sql(sql)
                error_pruned += bool(result.errors)
                inference_flagged += any(d.code.startswith("SQL5") for d in result.diagnostics)
    pruned = error_pruned + inference_flagged
    return {
        "candidates": candidates,
        "error_pruned": error_pruned,
        "inference_flagged": inference_flagged,
        "statically_pruned": pruned,
        "pruned_rate": pruned / candidates if candidates else 0.0,
    }


def analyzer(quick: bool) -> None:
    """Analyze vs parse vs execute per statement, pre-flight on vs off
    over a repeated workload, static rejection, candidate pruning."""
    repeat, loops, per_tier = (2, 2, 12) if quick else (3, 5, 40)
    db = build_domain("retail")
    sqls = [e.sql for e in WorkloadGenerator(db, seed=3).generate_mixed(per_tier)]
    stmts = [parse_select(sql) for sql in sqls]
    semantic = SemanticAnalyzer(db)
    for stmt, sql in zip(stmts, sqls):
        assert semantic.analyze(stmt).ok, sql
    for sql in INVALID_SQL:
        assert not db.analyze_sql(sql).ok, sql

    parse_s = timeit(lambda: [parse_select(sql) for sql in sqls], repeat)
    analyze_s = timeit(lambda: [semantic.analyze(s) for s in stmts], repeat)
    plain = Executor(db, analyze=False)
    execute_s = timeit(lambda: [plain.execute(s) for s in stmts], repeat)

    def workload(executor: Executor) -> None:
        for _ in range(loops):
            for sql in sqls:
                executor.execute_sql(sql)

    preflight_off_s = timeit(lambda: workload(Executor(db, analyze=False)), repeat)
    preflight_on_s = timeit(lambda: workload(Executor(db, analyze=True)), repeat)
    counting = Executor(db, analyze=True)
    workload(counting)
    checks = counting.total_stats.preflight_checks
    hit_rate = counting.total_stats.preflight_cache_hits / checks if checks else 0.0

    rejecting = Executor(db, analyze=True)

    def reject_all() -> None:
        for sql in INVALID_SQL:
            try:
                rejecting.execute_sql(sql)
            except SqlError:
                pass

    reject_s = timeit(reject_all, repeat)
    assert rejecting.total_stats.static_rejections == len(INVALID_SQL) * repeat

    domains = ("finance", "healthcare") if quick else domain_names()
    pruning = {domain: _candidate_pruning(domain) for domain in domains}
    record = {
        "statements": len(sqls),
        "parse_s": parse_s,
        "analyze_s": analyze_s,
        "execute_s": execute_s,
        "analyze_vs_execute_pct": 100.0 * analyze_s / execute_s,
        "preflight_off_s": preflight_off_s,
        "preflight_on_s": preflight_on_s,
        "preflight_overhead_pct": 100.0 * (preflight_on_s - preflight_off_s) / preflight_off_s,
        "preflight_cache_hit_rate": hit_rate,
        "reject_per_stmt_ms": 1000.0 * reject_s / len(INVALID_SQL),
        "pruning": pruning,
        "max_statically_pruned": max(p["statically_pruned"] for p in pruning.values()),
    }
    n = len(sqls)
    measures = [
        (f"parse x{n}", parse_s, "baseline"),
        (f"analyze x{n}", analyze_s, f"{record['analyze_vs_execute_pct']:.0f}% of execute"),
        (f"execute x{n}", execute_s, "planner, no pre-flight"),
        (f"workload x{loops} (pre-flight off)", preflight_off_s, "-"),
        (f"workload x{loops} (pre-flight on)", preflight_on_s, f"cache hit rate {hit_rate:.2f}"),
        (f"reject x{len(INVALID_SQL)} broken stmts", reject_s,
         f"{record['reject_per_stmt_ms']:.2f} ms/stmt, 0 rows read"),
    ]
    rows = [{"measure": m, "seconds": f"{s:.4f}", "note": note} for m, s, note in measures]
    prune_rows = [
        {
            "domain": domain,
            "candidates": p["candidates"],
            "error-pruned": p["error_pruned"],
            "SQL5xx-flagged": p["inference_flagged"],
            "pruned rate": f"{p['pruned_rate']:.1%}",
        }
        for domain, p in sorted(pruning.items())
    ]
    text = (
        format_table(rows, _title(f"static analyzer overhead ({n} statements)", quick))
        + "\n\n"
        + format_table(prune_rows, "static candidate pruning over bench domains")
    )
    emit_record("analyzer", text, record, quick)
    # The pre-flight runs once per distinct statement object, so the hit
    # rate is bounded below by (loops - 1) / loops.
    assert hit_rate >= (loops - 1) / loops - 0.01, record
    # Analysis never reads rows; it must stay cheaper than execution.
    assert analyze_s < execute_s, record
    assert record["max_statically_pruned"] > 0, record


# -- eval_cache ----------------------------------------------------------------


def eval_cache(quick: bool) -> None:
    """A repeated-question sweep (query logs are skewed, so repetition is
    the realistic shape): every system over one shared
    ``EvaluationCache`` vs the uncached ``evaluate_system`` per system,
    outcomes identical.  Systems share gold results and match verdicts;
    repeats hit the interpretation cache."""
    per_tier, epochs = (1, 3) if quick else (2, 6)
    systems = ["soda", "quest"] if quick else ["athena", "nalir", "soda", "quest"]
    context = ContextSpec("university", seed=3).build()
    unique = WorkloadGenerator(context.database, seed=3).generate_mixed(per_tier)
    examples = unique * epochs

    # Cached first, so any process-local memo warmth favours uncached.
    cache, profile = EvaluationCache(), StageProfiler()
    start = time.perf_counter()
    cached_outcomes = {
        name: evaluate_system(create(name), context, examples, cache=cache, profiler=profile)
        for name in systems
    }
    cached_s = time.perf_counter() - start
    start = time.perf_counter()
    serial_outcomes = {name: evaluate_system(create(name), context, examples) for name in systems}
    serial_s = time.perf_counter() - start

    def rows(outcomes: Dict[str, List[Any]]) -> List[Any]:
        return [row for name in systems for row in rows_for_outcomes(name, outcomes[name])]

    assert rows(cached_outcomes) == rows(serial_outcomes), "cached rows diverged from uncached"
    for name in systems:
        assert cached_outcomes[name] == serial_outcomes[name], name
        assert len(cached_outcomes[name]) == len(examples), name
    stats = cache.stats()
    interp = stats["interpretations"]
    assert interp.hit_rate > 0, "repeated workload must hit the interpretation cache"

    speedup = serial_s / cached_s
    record = {
        "domain": "university",
        "systems": systems,
        "examples": len(examples),
        "unique_questions": len(unique),
        "epochs": epochs,
        "serial_s": round(serial_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(speedup, 2),
        "cache_stats": cache.stats_dict(),
        "interpretation_hit_rate": round(interp.hit_rate, 4),
        "profile": profile.as_dict(),
    }
    table = [
        {"measure": f"uncached evaluate_system ({len(systems)} systems)",
         "seconds": f"{serial_s:.3f}", "note": "no caches"},
        {"measure": "one shared EvaluationCache", "seconds": f"{cached_s:.3f}",
         "note": f"{speedup:.2f}x"},
    ] + [
        {"measure": f"{layer} cache", "seconds": "-",
         "note": f"hit rate {layer_stats.hit_rate:.2f} "
                 f"({layer_stats.hits}/{layer_stats.lookups} lookups)"}
        for layer, layer_stats in stats.items()
    ]
    title = _title(
        f"cached evaluation, {len(examples)} examples ({len(unique)} unique x{epochs})",
        quick,
    )
    text = format_table(table, title) + "\n\n" + profile.report("per-stage profile (cached sweep)")
    emit_record("eval_cache", text, record, quick)
    if not quick:
        assert speedup >= 2.0, record


# -- columnar ------------------------------------------------------------------

#: whole-table scans answered entirely by vectorized kernels: the 50x floor
FLOOR_CLASSES = ("range_count", "scan_agg", "ts_window")


def columnar(quick: bool) -> None:
    """Every generated telemetry query agrees on the row path and the
    vectorized path; then each class is timed row vs columnar."""
    n_rows, per_template = (20_000, 2) if quick else (1_000_000, 3)
    db = build_telemetry_db(n_rows=n_rows, seed=SEED)
    queries = generate_telemetry_queries(n_rows, per_template, seed=SEED)
    row = Executor(db, use_columnar=False)
    col = Executor(db)
    by_class: Dict[str, List[str]] = {}
    for q in queries:
        expected = strict_rows(row.execute_sql(q.sql))
        assert strict_rows(col.execute_sql(q.sql)) == expected, q.sql
        if q.template in SCAN_HEAVY_CLASSES:
            assert col.last_stats.vectorized == 1, (q.template, q.sql)
        by_class.setdefault(q.template, []).append(q.sql)

    def run_all(executor: Executor, sqls: List[str]) -> Callable[[], None]:
        return lambda: [executor.execute_sql(sql) for sql in sqls]

    # Every repeat is kept beside the best: whole runs of unchanged code
    # have moved a class's best by tens of percent, so an old -> new
    # comparison needs the spread.
    classes = {}
    for template, sqls in by_class.items():
        row_runs = timed_runs(run_all(row, sqls), 2)
        col_runs = timed_runs(run_all(col, sqls), 2)
        row_s, col_s = min(row_runs), min(col_runs)
        classes[template] = {
            "row_s": row_s,
            "columnar_s": col_s,
            "speedup": row_s / col_s,
            "row_runs_s": row_runs,
            "columnar_runs_s": col_runs,
        }

    profiler = StageProfiler()
    with profiler.activate():
        col.execute_sql(by_class["scan_agg"][0])
    profile = {name: stat["seconds"] for name, stat in profiler.as_dict().items()}

    floor = min(classes[name]["speedup"] for name in FLOOR_CLASSES)
    record = {
        "scale_rows": n_rows,
        "seed": SEED,
        "queries_per_template": per_template,
        "classes": classes,
        "scan_heavy_min_speedup": floor,
        "profile_stages": profile,
    }
    rows = [
        {
            "workload class": template,
            "row_s": f"{stats['row_s']:.4f}",
            "row min-max": _span(stats["row_runs_s"]),
            "columnar_s": f"{stats['columnar_s']:.4f}",
            "columnar min-max": _span(stats["columnar_runs_s"]),
            "speedup": f"{stats['speedup']:.1f}x",
        }
        for template, stats in sorted(classes.items())
    ]
    title = _title(f"columnar engine vs row path ({n_rows} rows, seed={SEED})", quick)
    emit_record("columnar", format_table(rows, title), record, quick)
    if quick:  # fixed overheads are a visible share of a 20k-row scan
        assert floor > 2.0, record
    else:
        assert floor >= 50.0, record


# -- serve_concurrency -----------------------------------------------------------

#: half the stage boundaries sleep 80 ms, so a pool can overlap them;
#: error faults exercise retries and fallbacks under concurrency
SERVE_FAULT_PLAN = "*:latency:0.5:0.08,*:error:0.05"
SERVE_FAULT_SEED = 5
SERVE_DOMAIN = "university"
PRIMARY = "athena"
#: a huge breaker threshold: measure dispatch, not order-dependent trips
SERVICE_KWARGS: Dict[str, Any] = dict(
    retries=2, backoff_s=0.0, sleep=lambda s: None, failure_threshold=10_000
)


def project(result: ServeResult) -> Tuple:
    """Identity projection: everything except wall-clock noise."""
    answer = result.answer
    return (
        result.question,
        result.ok,
        result.verdict,
        result.system,
        result.sql,
        tuple(answer.columns) if answer is not None else None,
        tuple(map(tuple, answer.rows)) if answer is not None else None,
        tuple(result.degraded_from),
        result.retries,
        tuple((e.stage, e.kind, e.detail) for e in result.fault_trace),
    )


def _serve(
    questions: List[str], plan: Optional[FaultPlan], pool_size: Optional[int]
) -> Tuple[List[ServeResult], ServeSummary, float]:
    """Serve serially (``pool_size=None``) or through a started front;
    context builds stay outside the timed window."""
    spec = ContextSpec(SERVE_DOMAIN, seed=3)
    if pool_size is None:
        service = ResilientService(spec.build(), **SERVICE_KWARGS)
        started = time.perf_counter()
        results = replay_serial(service, questions, PRIMARY, plan)
        wall = time.perf_counter() - started
        summary = ServeSummary()
        for result in results:
            summary.add(result)
        return results, summary, wall
    front = ConcurrentFront(
        spec.build,
        pool_size=pool_size,
        queue_depth=max(32, len(questions)),
        fault_plan=plan,
        cache_answers=False,  # measure dispatch, not memoization
        **SERVICE_KWARGS,
    )
    front.start()
    try:
        started = time.perf_counter()
        results, summary = front.serve_many(questions, PRIMARY)
        return results, summary, time.perf_counter() - started
    finally:
        front.stop()


def serve_concurrency(quick: bool) -> None:
    """Serial ``ResilientService`` vs ``ConcurrentFront`` pools on the
    same mixed workload: results equal the serial replay at every pool
    size, clean or faulted; availability never falls below serial; and
    pool 4 sustains 3x serial qps under the fault plan."""
    context = ContextSpec(SERVE_DOMAIN, seed=3).build()
    # enough questions that one sleep-heavy question cannot bound the wall
    per_tier, epochs = (1, 4) if quick else (2, 3)
    generated = WorkloadGenerator(context.database, seed=3).generate_mixed(per_tier)
    questions = [example.question for example in generated] * epochs
    plan = FaultPlan.parse(SERVE_FAULT_PLAN, seed=SERVE_FAULT_SEED)
    runs: List[Tuple[str, Optional[FaultPlan], Optional[int]]] = [
        ("clean", None, None), ("clean", None, 4), ("20% faults", plan, None)
    ] + [("20% faults", plan, pool) for pool in ([1, 4] if quick else [1, 4, 8])]
    rows: List[Dict[str, Any]] = []
    serial: Dict[str, Tuple[List[Tuple], ServeSummary, float]] = {}
    speedups: Dict[int, float] = {}
    for mode, run_plan, pool in runs:
        results, summary, wall = _serve(questions, run_plan, pool)
        if pool is None:
            serial[mode] = ([project(r) for r in results], summary, wall)
        baseline, serial_summary, serial_wall = serial[mode]
        assert [project(r) for r in results] == baseline, (
            f"{mode} pool-{pool} results diverged from the serial replay"
        )
        assert summary.availability >= serial_summary.availability, (mode, pool)
        if run_plan is not None and pool is not None:
            speedups[pool] = serial_wall / wall
        pct = latency_percentiles(results)
        rows.append({
            "mode": mode,
            "pool": pool if pool is not None else "serial",
            "qps": round(len(results) / wall, 1),
            "p50_ms": round(pct["p50"] * 1000, 1),
            "p95_ms": round(pct["p95"] * 1000, 1),
            "p99_ms": round(pct["p99"] * 1000, 1),
            "availability": round(summary.availability, 3),
            "speedup": round(serial_wall / wall, 2),
        })
    record = {
        "domain": SERVE_DOMAIN,
        "questions": len(questions),
        "primary": PRIMARY,
        "fault_plan": SERVE_FAULT_PLAN,
        "fault_seed": SERVE_FAULT_SEED,
        "pools": sorted(speedups),
        "rows": rows,
        "speedup_pool4": round(speedups[4], 2),
        "availability_serial": round(serial["20% faults"][1].availability, 3),
    }
    title = _title(
        f"concurrent serving, {len(questions)} questions, primary={PRIMARY}, "
        f"plan seed={SERVE_FAULT_SEED}",
        quick,
    )
    emit_record("serve_concurrency", format_table(rows, title), record, quick)
    assert speedups[4] >= 3.0, (
        f"pool-4 sustained only {speedups[4]:.2f}x serial qps under the fault plan"
    )


# -- schema_index ----------------------------------------------------------------

#: the timed system has the widest matcher: ontology evidence over every
#: concept and property, fuzzy values
TIMED_SYSTEM = "athena"
#: probes forcing the paths a clean workload rarely takes: typo'd values
#: (fuzzy-value buckets), typo'd schema words (trigram filter),
#: synonym and taxonomy phrasings (thesaurus expansions)
PROBES = (
    "show customers in Berlni",
    "list the empolyees with highest pay",
    "total compensation by division",
    "average salery of staff",
    "workers per department",
    "films released after 2000",
)


def _width(width: int, quick: bool) -> Dict[str, Any]:
    """Identity, latency and pruning at one catalog width."""
    db = build_wide_catalog(width, seed=SEED)
    indexed = NLIDBContext(db)
    brute = NLIDBContext(db, use_schema_index=False)
    generated = WorkloadGenerator(db, seed=SEED).generate_mixed(1 if quick else 2)
    questions = [example.question for example in generated] + list(PROBES)
    system = create(TIMED_SYSTEM)
    for question in questions:
        assert system.interpret(question, indexed) == system.interpret(question, brute), (
            width,
            question,
        )

    def sweep(context: NLIDBContext) -> None:
        for question in questions:
            system.interpret(question, context)

    repeat = 2 if quick else 3
    counters = indexed.schema_index_counters()
    before = counters.snapshot()
    indexed_s = timeit(lambda: sweep(indexed), repeat)
    pruning = counters.delta(before)
    brute_s = timeit(lambda: sweep(brute), repeat)
    return {
        "width": width,
        "questions": len(questions),
        "metadata_targets": indexed.schema_index.metadata_targets,
        "indexed_s": indexed_s,
        "brute_s": brute_s,
        "speedup": brute_s / indexed_s,
        "avg_candidates": pruning.scored / pruning.spans if pruning.spans else 0.0,
        "pruning": pruning.as_dict(),
    }


def schema_index(quick: bool) -> None:
    """Interpretation latency at catalog widths 10 to 250, indexed vs brute
    force, after asserting both give identical ``interpret()`` output;
    the index's own counters record the skipped candidate comparisons."""
    widths = [_width(width, quick) for width in ((10, 100) if quick else (10, 50, 100, 250))]
    top = widths[-1]
    min_wide_ratio = min(w["pruning"]["pruning_ratio"] for w in widths if w["width"] >= 100)
    record = {
        "seed": SEED,
        "timed_system": TIMED_SYSTEM,
        "widths": widths,
        "top_width": top["width"],
        "top_speedup": top["speedup"],
        "min_wide_pruning_ratio": min_wide_ratio,
    }
    rows = [
        {
            "width": w["width"],
            "targets": w["metadata_targets"],
            "brute_s": f"{w['brute_s']:.4f}",
            "indexed_s": f"{w['indexed_s']:.4f}",
            "speedup": f"{w['speedup']:.1f}x",
            "avg cand": f"{w['avg_candidates']:.1f}",
            "pruned": w["pruning"]["pruned"],
            "prune ratio": f"{w['pruning']['pruning_ratio']:.1%}",
        }
        for w in widths
    ]
    title = _title(
        f"schema index vs brute-force interpretation ({TIMED_SYSTEM}, seed={SEED}); "
        "interpret() identical at every width",
        quick,
    )
    emit_record("schema_index", format_table(rows, title), record, quick)
    if quick:  # the widest quick catalog has 100 tables
        assert top["speedup"] > 1.0, record
    else:
        assert top["speedup"] >= 5.0, record
    assert min_wide_ratio >= 0.5, record


# -- runner ----------------------------------------------------------------------

SECTIONS: Dict[str, Callable[[bool], None]] = {
    "planner": planner,
    "analyzer": analyzer,
    "eval_cache": eval_cache,
    "columnar": columnar,
    "serve_concurrency": serve_concurrency,
    "schema_index": schema_index,
}


@pytest.mark.parametrize("section", list(SECTIONS))
def test_perf_section(section: str) -> None:
    """Each section at quick scale: parity, identity and relaxed floors."""
    SECTIONS[section](True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "sections", nargs="*", metavar="SECTION",
        help=f"sections to run (default: all of {', '.join(SECTIONS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scales and relaxed floors, written under .bench_quick/",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.sections if name not in SECTIONS]
    if unknown:
        parser.error(f"unknown section(s) {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    # A failed check still lets the later sections write their records;
    # the run then exits 1 naming every section that failed.
    failed = []
    for name in args.sections or SECTIONS:
        started = time.perf_counter()
        try:
            SECTIONS[name](args.quick)
        except AssertionError:
            traceback.print_exc()
            failed.append(name)
        print(f"[{name}: {time.perf_counter() - started:.1f}s]")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
