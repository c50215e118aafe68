"""P4 — Parallel evaluation harness: speedup, cache hit rates, profile.

Measures the perf layer (:mod:`repro.perf`) on a repeated-question
evaluation sweep — the workload shape real NLIDB traffic has (skewed
query logs, the premise TEMPLAR builds on) and the shape every
cross-system comparison in the survey has (same examples, many systems):

1. **serial baseline** — plain ``evaluate_system`` per system, no
   caches, no pool: what the harness did before the perf layer;
2. **parallel + cached** — ``parallel_compare_systems`` at 4 workers
   with the shared :class:`EvaluationCache`: chunked examples, grouped
   so repeats land on the warm worker, deterministic merge;
3. **differential check** — the parallel outcomes and rows must be
   identical to serial (speed never changes a verdict);
4. **profile** — the merged per-stage timing table from the workers.

On a single-core host the pool cannot beat the GIL-free math, so the
≥2x acceptance speedup comes from the caching layers (interpretations,
gold results, match verdicts, NLP memos); multicore hosts add pool
scaling on top.

Runs standalone (``python benchmarks/bench_p4_parallel_eval.py``,
``--quick`` for the CI smoke run) and under pytest.  Emits
``benchmarks/results/p4_parallel_eval.txt`` and
``BENCH_parallel_eval.json`` at the repo root; ``--quick`` runs write
both under ``.bench_quick/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.harness import evaluate_system, format_table, rows_for_outcomes
from repro.bench.workloads import WorkloadGenerator
from repro.core.registry import create
from repro.perf.parallel import ContextSpec, parallel_compare_systems
from repro.systems import AthenaSystem  # noqa: F401  (populate the registry)


JOBS = 4


def run(quick: bool = False) -> Dict[str, object]:
    domain = "university"
    per_tier = 1 if quick else 2
    # Repeated-question workload: every example appears `epochs` times
    # (query logs are heavily skewed, so repetition is the realistic
    # shape, not a favourable corner case).
    epochs = 3 if quick else 6
    systems = ["soda", "quest"] if quick else ["athena", "nalir", "soda", "quest"]

    spec = ContextSpec(domain, seed=3)
    context = spec.build()
    unique = WorkloadGenerator(context.database, seed=3).generate_mixed(per_tier)
    examples = unique * epochs

    # 2. parallel + cached sweep first, so the serial baseline afterwards
    # runs with whatever process-local memo warmth exists (a bias, if
    # any, *against* the parallel path).
    start = time.perf_counter()
    report = parallel_compare_systems(systems, spec, examples, jobs=JOBS, context=context)
    parallel_s = time.perf_counter() - start

    # 1. serial baseline: exactly what compare_systems did pre-perf-layer
    start = time.perf_counter()
    serial_outcomes = {}
    serial_rows = []
    for name in systems:
        outcomes = evaluate_system(create(name), context, examples)
        serial_outcomes[name] = outcomes
        serial_rows.extend(rows_for_outcomes(name, outcomes))
    serial_s = time.perf_counter() - start

    # 3. differential check: parallel must be byte-identical to serial
    # and must never return fewer outcomes.
    assert report.rows == serial_rows, "parallel rows diverged from serial"
    for name in systems:
        assert report.outcomes[name] == serial_outcomes[name], name
        assert len(report.outcomes[name]) == len(examples), name

    interp = report.cache_stats["interpretations"]
    assert interp.hit_rate > 0, "repeated workload must hit the interpretation cache"

    speedup = serial_s / parallel_s if parallel_s else float("inf")
    results: Dict[str, object] = {
        "domain": domain,
        "systems": systems,
        "examples": len(examples),
        "unique_questions": len(unique),
        "epochs": epochs,
        "jobs": JOBS,
        "mode": report.mode,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 2),
        "outcomes_identical": True,
        "cache_stats": report.cache_stats_dict(),
        "interpretation_hit_rate": round(interp.hit_rate, 4),
        "profile": report.profile.as_dict(),
    }

    rows: List[Dict[str, object]] = [
        {
            "measure": f"serial compare_systems ({len(systems)} systems)",
            "seconds": f"{serial_s:.3f}",
            "note": "no caches, no pool",
        },
        {
            "measure": f"parallel x{JOBS} + shared caches",
            "seconds": f"{parallel_s:.3f}",
            "note": f"{speedup:.2f}x, mode={report.mode}",
        },
        {
            "measure": "interpretation cache",
            "seconds": "-",
            "note": f"hit rate {interp.hit_rate:.2f} "
            f"({interp.hits}/{interp.lookups} lookups)",
        },
        {
            "measure": "match-verdict cache",
            "seconds": "-",
            "note": f"hit rate {report.cache_stats['match_verdicts'].hit_rate:.2f}",
        },
    ]
    title = (
        f"P4: parallel evaluation, {len(examples)} examples "
        f"({len(unique)} unique x{epochs}), jobs={JOBS}"
        f"{', quick' if quick else ''}"
    )
    emit_record(
        "p4_parallel_eval",
        format_table(rows, title),
        "BENCH_parallel_eval.json",
        results,
        quick,
    )
    print()
    print(report.profile.report("merged per-stage profile"))

    if not quick:
        # Acceptance: the perf layer must at least halve the sweep's
        # wall-clock on the repeated-question workload.
        assert speedup >= 2.0, results
    return results


def test_p4_parallel_eval(benchmark):
    """pytest-benchmark entry: run the quick sweep once, then time one
    cached serial evaluation pass."""
    run(quick=True)
    from repro.perf import EvaluationCache

    spec = ContextSpec("university", seed=3)
    context = spec.build()
    examples = WorkloadGenerator(context.database, seed=3).generate_mixed(1) * 2
    system = create("soda")
    cache = EvaluationCache()
    evaluate_system(system, context, examples, cache=cache)  # warm
    benchmark(lambda: evaluate_system(system, context, examples, cache=cache))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small scale for CI smoke runs"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    print(
        f"\nspeedup {results['speedup']}x at jobs={results['jobs']} "
        f"({results['mode']}), interpretation hit rate "
        f"{results['interpretation_hit_rate']}, outcomes identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
