"""P7 — Static inference pass: plan rewrites and candidate pruning.

Two measurements, both against the same engine with the inference pass
toggled (``Executor(db, infer=...)``):

1. **Static short-circuit** — the telemetry workload
   (:mod:`repro.bench.workload_gen`) over a million-row fact table.
   Inference on vs off must agree on every generated query (type-tagged
   rows), and the scan classes over NOT NULL columns must run on the
   vectorized kernels; then a provably-empty WHERE is timed with the
   full scan against the static short-circuit that skips it entirely.
2. **Candidate pruning** — every registered NLIDB system interprets the
   generated question sets of the bench domains; *all* candidate
   interpretations (not just the top one) are compiled and analyzed.
   Candidates with error diagnostics would be dropped by
   ``repro.core.ranking.apply_static_analysis``; candidates flagged by
   the inference pass (SQL501/502/503) are down-weighted.  The bench
   records both counts per domain and requires a nonzero statically
   pruned/flagged count on at least one domain.

Emits ``benchmarks/results/p7_inference.txt`` and
``BENCH_inference.json`` at the repo root; ``--quick`` runs write both
under ``.bench_quick/``.

Acceptance floor: >=5x for the provably-empty short-circuit at the full
million-row scale (>1x at ``--quick`` scale, where fixed overheads
dominate the scan), and a nonzero pruned-candidate count on at least
one bench domain at either scale.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.harness import format_table
from repro.bench.workload_gen import build_telemetry_db, generate_telemetry_queries
from repro.sqldb.executor import Executor


SEED = 0
#: scan classes whose predicates hit only NOT NULL columns: the
#: vectorized kernels must answer every one of them
SCAN_CLASSES = ("range_count", "scan_agg", "ts_window")
#: question sets for the pruning measurement (full runs cover them all)
PRUNING_DOMAINS = ("finance", "geo", "healthcare", "hr", "movies", "retail", "university")
#: a WHERE the interval analysis proves empty: infer=True answers it
#: without scanning a single row
EMPTY_SQL = (
    "SELECT COUNT(*), SUM(duration_ms) FROM telemetry "
    "WHERE device_id > 100 AND device_id < 50"
)


def _strict_rows(relation) -> List[tuple]:
    return [tuple((type(v).__name__, v) for v in row) for row in relation.rows]


def timeit(fn: Callable[[], object], repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_section(quick: bool) -> Tuple[Dict[str, float], int]:
    """(empty-short-circuit timings, scale), after parity on every query."""
    n_rows = 20_000 if quick else 1_000_000
    per_template = 2 if quick else 3
    repeat = 2 if quick else 3

    db = build_telemetry_db(n_rows=n_rows, seed=SEED)
    queries = generate_telemetry_queries(n_rows, per_template, seed=SEED)
    infer_off = Executor(db, infer=False)
    infer_on = Executor(db, infer=True)
    row = Executor(db, use_columnar=False, infer=False)

    # Parity: inference on vs off on every generated query (type-tagged
    # rows), plus the row interpreter three-way at quick scale where the
    # per-row path is affordable.
    for q in queries:
        expected = _strict_rows(infer_off.execute_sql(q.sql))
        assert _strict_rows(infer_on.execute_sql(q.sql)) == expected, q.sql
        if q.template in SCAN_CLASSES:
            assert infer_on.last_stats.vectorized == 1, (q.template, q.sql)
        if quick:
            assert _strict_rows(row.execute_sql(q.sql)) == expected, q.sql

    # Provably-empty WHERE: full scan vs static short-circuit.
    expected = _strict_rows(infer_off.execute_sql(EMPTY_SQL))
    assert _strict_rows(infer_on.execute_sql(EMPTY_SQL)) == expected
    assert infer_on.last_stats.static_short_circuits == 1
    assert infer_on.last_stats.rows_scanned == 0
    empty_off_s = timeit(lambda: infer_off.execute_sql(EMPTY_SQL), repeat)
    empty_on_s = timeit(lambda: infer_on.execute_sql(EMPTY_SQL), repeat)
    empty = {
        "infer_off_s": empty_off_s,
        "infer_on_s": empty_on_s,
        "speedup": empty_off_s / empty_on_s,
    }
    return empty, n_rows


def _pruning_section(quick: bool) -> Dict[str, Dict[str, object]]:
    """Candidate counts per bench domain: compiled, pruned, flagged."""
    import repro.systems  # noqa: F401  (imported to populate the registry)
    from repro.bench.domains import build_domain
    from repro.bench.workloads import WorkloadGenerator
    from repro.core.pipeline import NLIDBContext
    from repro.core.registry import available, create

    domains = ("finance", "healthcare") if quick else PRUNING_DOMAINS
    per_tier = 4

    out: Dict[str, Dict[str, object]] = {}
    for domain in domains:
        db = build_domain(domain, seed=SEED)
        context = NLIDBContext(db)
        examples = WorkloadGenerator(db, seed=SEED).generate_mixed(per_tier)
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
                        sql = interpretation.to_sql(
                            context.ontology, context.mapping
                        ).to_sql()
                    except Exception:
                        continue
                    candidates += 1
                    result = db.analyze_sql(sql)
                    if result.errors:
                        error_pruned += 1
                    if any(d.code.startswith("SQL5") for d in result.diagnostics):
                        inference_flagged += 1
        pruned = error_pruned + inference_flagged
        out[domain] = {
            "candidates": candidates,
            "error_pruned": error_pruned,
            "inference_flagged": inference_flagged,
            "statically_pruned": pruned,
            "pruned_rate": pruned / candidates if candidates else 0.0,
        }
    return out


def run(quick: bool = False) -> Dict[str, object]:
    empty, n_rows = _kernel_section(quick)
    pruning = _pruning_section(quick)

    max_pruned = max(int(stats["statically_pruned"]) for stats in pruning.values())
    results: Dict[str, object] = {
        "scale_rows": n_rows,
        "seed": SEED,
        "empty_short_circuit": empty,
        "pruning": pruning,
        "max_statically_pruned": max_pruned,
    }

    table: List[Dict[str, object]] = [
        {
            "query": "provably-empty WHERE",
            "infer_off_s": f"{empty['infer_off_s']:.4f}",
            "infer_on_s": f"{empty['infer_on_s']:.4f}",
            "speedup": f"{empty['speedup']:.1f}x",
        }
    ]
    title = (
        f"P7: static short-circuit, inference on vs off "
        f"({n_rows} rows, seed={SEED}{', quick' if quick else ''})"
    )
    prune_table = [
        {
            "domain": domain,
            "candidates": stats["candidates"],
            "error-pruned": stats["error_pruned"],
            "SQL5xx-flagged": stats["inference_flagged"],
            "pruned rate": f"{stats['pruned_rate']:.1%}",
        }
        for domain, stats in sorted(pruning.items())
    ]
    emit_record(
        "p7_inference",
        format_table(table, title)
        + "\n\n"
        + format_table(prune_table, "P7: static candidate pruning over bench domains"),
        "BENCH_inference.json",
        results,
        quick,
    )

    if not quick:
        assert empty["speedup"] >= 5.0, results
    else:
        assert empty["speedup"] > 1.0, results
    assert max_pruned > 0, results
    return results


def test_p7_inference(benchmark):
    """pytest-benchmark entry: run once, time one inference-on scan."""
    run(quick=True)
    db = build_telemetry_db(n_rows=20_000, seed=SEED)
    executor = Executor(db, infer=True)
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
        f"\nempty-WHERE short-circuit at {results['scale_rows']} rows "
        f"{results['empty_short_circuit']['speedup']:.1f}x; "
        f"max statically pruned candidates {results['max_statically_pruned']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
