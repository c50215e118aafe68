"""P2 — Static analyzer overhead and pre-flight caching.

Measures what the semantic analyzer (:mod:`repro.sqldb.analyzer`) costs
on top of the pipeline it guards:

1. **per-statement analysis** — analyze time vs parse time vs execute
   time over a generated gold workload (the analyzer touches no rows, so
   it should sit well below execution);
2. **amortized pre-flight** — an executor with ``analyze=True`` vs
   ``analyze=False`` over a repeated workload, plus the pre-flight cache
   hit rate (verdicts are cached per statement object, so repeated SQL
   pays the analyzer once);
3. **static rejection** — throughput of rejecting a batch of broken
   statements without reading a row, with the ``static_rejections``
   counter checked.

Runs standalone (``python benchmarks/bench_p2_analyzer.py``, ``--quick``
for the CI smoke run) and under pytest like the E-series benchmarks.
Emits ``benchmarks/results/p2_analyzer.txt`` and ``BENCH_analyzer.json``
at the repo root; ``--quick`` runs write both under ``.bench_quick/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench import WorkloadGenerator, build_domain
from repro.bench.harness import format_table
from repro.sqldb import SqlError, parse_select
from repro.sqldb.analyzer import SemanticAnalyzer
from repro.sqldb.executor import Executor


# Broken statements for the rejection workload: one per major check
# family (names, types, aggregation, arity, subquery shape).
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


def timeit(fn: Callable[[], object], repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(quick: bool = False) -> Dict[str, float]:
    repeat = 2 if quick else 3
    loops = 2 if quick else 5
    n_examples = 12 if quick else 40

    db = build_domain("retail")
    sqls = [e.sql for e in WorkloadGenerator(db, seed=3).generate_mixed(n_examples)]
    stmts = [parse_select(sql) for sql in sqls]
    analyzer = SemanticAnalyzer(db)

    # Sanity: gold statements must all pass, broken ones must all fail.
    for stmt, sql in zip(stmts, sqls):
        assert analyzer.analyze(stmt).ok, sql
    for sql in INVALID_SQL:
        assert not db.analyze_sql(sql).ok, sql

    # 1. per-statement cost: parse vs analyze vs execute (no pre-flight)
    parse_s = timeit(lambda: [parse_select(sql) for sql in sqls], repeat)
    analyze_s = timeit(lambda: [analyzer.analyze(s) for s in stmts], repeat)
    plain = Executor(db, analyze=False)
    execute_s = timeit(lambda: [plain.execute(s) for s in stmts], repeat)

    # 2. amortized pre-flight: same workload, analyze on vs off
    def workload(executor: Executor) -> None:
        for _ in range(loops):
            for sql in sqls:
                executor.execute_sql(sql)

    preflight_off_s = timeit(lambda: workload(Executor(db, analyze=False)), repeat)
    preflight_on_s = timeit(lambda: workload(Executor(db, analyze=True)), repeat)
    counting = Executor(db, analyze=True)
    workload(counting)
    checks = counting.total_stats.preflight_checks
    hits = counting.total_stats.preflight_cache_hits
    hit_rate = hits / checks if checks else 0.0

    # 3. static rejection throughput + counter
    rejecting = Executor(db, analyze=True)

    def reject_all() -> None:
        for sql in INVALID_SQL:
            try:
                rejecting.execute_sql(sql)
            except SqlError:
                pass

    reject_s = timeit(reject_all, repeat)
    assert rejecting.total_stats.static_rejections == len(INVALID_SQL) * repeat

    results = {
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
    }

    rows: List[Dict[str, object]] = [
        {
            "measure": f"parse x{len(sqls)}",
            "seconds": f"{parse_s:.4f}",
            "note": "baseline",
        },
        {
            "measure": f"analyze x{len(sqls)}",
            "seconds": f"{analyze_s:.4f}",
            "note": f"{results['analyze_vs_execute_pct']:.0f}% of execute",
        },
        {
            "measure": f"execute x{len(sqls)}",
            "seconds": f"{execute_s:.4f}",
            "note": "planner, no pre-flight",
        },
        {
            "measure": f"workload x{loops} (pre-flight off)",
            "seconds": f"{preflight_off_s:.4f}",
            "note": "-",
        },
        {
            "measure": f"workload x{loops} (pre-flight on)",
            "seconds": f"{preflight_on_s:.4f}",
            "note": f"cache hit rate {hit_rate:.2f}",
        },
        {
            "measure": f"reject x{len(INVALID_SQL)} broken stmts",
            "seconds": f"{reject_s:.4f}",
            "note": f"{results['reject_per_stmt_ms']:.2f} ms/stmt, 0 rows read",
        },
    ]
    title = f"P2: static analyzer overhead ({len(sqls)} statements{', quick' if quick else ''})"
    emit_record("p2_analyzer", format_table(rows, title), "BENCH_analyzer.json", results, quick)

    # The pre-flight runs once per distinct statement object, so the hit
    # rate is bounded below by (loops - 1) / loops.
    assert hit_rate >= (loops - 1) / loops - 0.01, results
    # Analysis never reads rows; it must stay cheaper than execution.
    assert analyze_s < execute_s, results
    return results


def test_p2_analyzer(benchmark):
    """pytest-benchmark entry: run once, time one analysis pass."""
    run(quick=True)
    db = build_domain("retail")
    analyzer = SemanticAnalyzer(db)
    stmt = parse_select(
        "SELECT c.name, COUNT(*) FROM customers c JOIN orders o "
        "ON c.id = o.customer_id GROUP BY c.name ORDER BY COUNT(*) DESC"
    )
    benchmark(lambda: analyzer.analyze(stmt))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small scale for CI smoke runs"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    print(
        f"\nanalyze = {results['analyze_vs_execute_pct']:.0f}% of execute time, "
        f"pre-flight overhead {results['preflight_overhead_pct']:+.1f}%, "
        f"cache hit rate {results['preflight_cache_hit_rate']:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
