"""P6 — Vectorized columnar engine vs the row interpreter (perf PR).

Runs the BRAD-style telemetry workload (:mod:`repro.bench.workload_gen`)
over a million-row fact table and times every workload class on two
configurations of the same :class:`~repro.sqldb.executor.Executor`:

1. **row** — planner on, columnar off (the pre-P6 engine),
2. **columnar** — vectorized kernels over the ColumnStore.

Parity is asserted for *every* generated query before anything is timed
(type-tagged rows, so ``1`` vs ``1.0`` drift would fail).  Emits
``benchmarks/results/p6_columnar.txt`` and ``BENCH_columnar.json`` at
the repo root, including the workload seed and the per-kernel stage
profile of a representative scan; ``--quick`` runs write both under
``.bench_quick/``.

Acceptance floor: >=50x on the scan-heavy aggregate classes at the full
million-row scale (relaxed at ``--quick`` scale, where fixed overheads
are a visible fraction of the scan).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.harness import format_table
from repro.bench.workload_gen import (
    SCAN_HEAVY_CLASSES,
    build_telemetry_db,
    generate_telemetry_queries,
)
from repro.perf import StageProfiler
from repro.sqldb.executor import Executor


SEED = 0
#: the classes the >=50x floor applies to: whole-table scans answered
#: entirely by vectorized kernels
FLOOR_CLASSES = ("range_count", "scan_agg", "ts_window")


def _strict_rows(relation):
    return [tuple((type(v).__name__, v) for v in row) for row in relation.rows]


def timeit(fn: Callable[[], object], repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(quick: bool = False) -> Dict[str, object]:
    n_rows = 20_000 if quick else 1_000_000
    per_template = 2 if quick else 3
    repeat = 2

    db = build_telemetry_db(n_rows=n_rows, seed=SEED)
    queries = generate_telemetry_queries(n_rows, per_template, seed=SEED)
    row = Executor(db, use_columnar=False)
    col = Executor(db, use_columnar=True)

    # Parity first: every generated query, both configurations.
    for q in queries:
        expected = _strict_rows(row.execute_sql(q.sql))
        assert _strict_rows(col.execute_sql(q.sql)) == expected, q.sql

    # The scan-heavy classes must actually take the vectorized path.
    for q in queries:
        col.execute_sql(q.sql)
        if q.template in SCAN_HEAVY_CLASSES:
            assert col.last_stats.vectorized == 1, (q.template, q.sql)

    classes: Dict[str, Dict[str, float]] = {}
    by_class: Dict[str, List[str]] = {}
    for q in queries:
        by_class.setdefault(q.template, []).append(q.sql)

    for template, sqls in by_class.items():
        def run_all(executor: Executor, sqls=sqls) -> None:
            for sql in sqls:
                executor.execute_sql(sql)

        row_s = timeit(lambda: run_all(row), repeat)
        col_s = timeit(lambda: run_all(col), repeat)
        classes[template] = {
            "row_s": row_s,
            "columnar_s": col_s,
            "speedup": row_s / col_s,
        }

    # Per-kernel stage profile of one representative vectorized scan.
    scan_sqls = by_class["scan_agg"]
    profiler = StageProfiler()
    with profiler.activate():
        col.execute_sql(scan_sqls[0])
    profile = {
        name: stat["seconds"] for name, stat in profiler.as_dict().items()
    }

    floor = min(classes[name]["speedup"] for name in FLOOR_CLASSES)
    results: Dict[str, object] = {
        "scale_rows": n_rows,
        "seed": SEED,
        "queries_per_template": per_template,
        "classes": classes,
        "scan_heavy_min_speedup": floor,
        "profile_stages": profile,
    }

    table: List[Dict[str, object]] = [
        {
            "workload class": template,
            "row_s": f"{stats['row_s']:.4f}",
            "columnar_s": f"{stats['columnar_s']:.4f}",
            "speedup": f"{stats['speedup']:.1f}x",
        }
        for template, stats in sorted(classes.items())
    ]
    title = (
        f"P6: columnar engine vs row path "
        f"({n_rows} rows, seed={SEED}{', quick' if quick else ''})"
    )
    emit_record("p6_columnar", format_table(table, title), "BENCH_columnar.json", results, quick)

    if not quick:
        assert floor >= 50.0, results
    else:
        assert floor > 2.0, results
    return results


def test_p6_columnar(benchmark):
    """pytest-benchmark entry: run once, time one vectorized scan."""
    run(quick=True)
    db = build_telemetry_db(n_rows=20_000, seed=SEED)
    executor = Executor(db)
    sql = generate_telemetry_queries(20_000, 1, seed=SEED)[1].sql  # scan_agg
    benchmark(lambda: executor.execute_sql(sql))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small scale for CI smoke runs (relaxed speedup floor)",
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    print(
        f"\nscan-heavy min speedup {results['scan_heavy_min_speedup']:.1f}x "
        f"at {results['scale_rows']} rows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
