"""P8 — Concurrent serving front: throughput, tail latency, availability.

Drives the same mixed NLQ workload through the serial
:class:`~repro.serve.service.ResilientService` baseline and through
:class:`~repro.serve.concurrent.ConcurrentFront` at several pool sizes,
clean and under a ~20% fault plan whose latency faults *actually sleep*
(that is where a worker pool earns its keep: sleeps overlap across
workers, pure-Python compute cannot).  Asserts the concurrency
contract:

1. **byte-identity** — at every pool size, clean or faulted, the
   concurrent results equal the serial replay of the same request ids
   (same answers, same SQL, same fault traces, same verdicts);
2. **throughput** — under the fault plan, pool 4 sustains >= 3x the
   serial qps on the mixed workload;
3. **availability** — concurrency never costs answers: availability at
   every pool size is >= the serial availability under the same plan.

Runs standalone (``python benchmarks/bench_p8_serve_concurrency.py``,
``--quick`` for the CI smoke run) and under pytest.  Emits
``benchmarks/results/p8_serve_concurrency.txt`` and
``BENCH_serve_concurrency.json`` at the repo root; ``--quick`` runs
write both under ``.bench_quick/`` (the CI artifact).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.harness import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.perf.parallel import ContextSpec
from repro.serve import (
    ConcurrentFront,
    FaultPlan,
    ResilientService,
    ServeResult,
    ServeSummary,
    latency_percentiles,
    replay_serial,
)
from repro.systems import AthenaSystem  # noqa: F401  (populate the registry)


#: ~20% of stage boundaries fault; the latency faults really sleep, so
#: the serial baseline pays them one after another while a pool overlaps
#: them.  Error faults exercise retries/fallbacks under concurrency.
FAULT_PLAN = "*:latency:0.5:0.08,*:error:0.05"
FAULT_SEED = 5

PRIMARY = "athena"
DOMAIN = "university"
SEED = 3

#: huge threshold: measure dispatch, not order-dependent breaker trips
NO_TRIP = 10_000

_SERVICE_KWARGS = dict(
    retries=2,
    backoff_s=0.0,
    sleep=lambda s: None,  # retry backoff is counted, not slept
    failure_threshold=NO_TRIP,
)


def _questions(quick: bool) -> List[str]:
    context = ContextSpec(DOMAIN, seed=SEED).build()
    # enough questions that per-request fault lumpiness averages out
    # across the pool (one sleep-heavy question must not bound the wall)
    per_tier = 1 if quick else 2
    epochs = 4 if quick else 3
    return [
        example.question
        for example in WorkloadGenerator(context.database, seed=SEED).generate_mixed(
            per_tier
        )
    ] * epochs


def project(result: ServeResult) -> Tuple:
    """Identity projection: everything except wall-clock noise."""
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


def _run_serial(
    questions: List[str], plan: Optional[FaultPlan]
) -> Tuple[List[ServeResult], ServeSummary, float]:
    service = ResilientService(
        ContextSpec(DOMAIN, seed=SEED).build(), **_SERVICE_KWARGS
    )
    started = time.perf_counter()
    results = replay_serial(service, questions, PRIMARY, plan)
    wall = time.perf_counter() - started
    summary = ServeSummary()
    for result in results:
        summary.add(result)
    return results, summary, wall


def _run_pool(
    questions: List[str], plan: Optional[FaultPlan], pool_size: int
) -> Tuple[List[ServeResult], ServeSummary, float]:
    front = ConcurrentFront(
        ContextSpec(DOMAIN, seed=SEED).build,
        pool_size=pool_size,
        queue_depth=max(32, len(questions)),
        fault_plan=plan,
        cache_answers=False,  # measure dispatch, not memoization
        **_SERVICE_KWARGS,
    )
    front.start()  # context builds happen here, outside the timed window
    try:
        started = time.perf_counter()
        results, summary = front.serve_many(questions, PRIMARY)
        wall = time.perf_counter() - started
    finally:
        front.stop()
    return results, summary, wall


def _row(
    mode: str,
    pool: Optional[int],
    results: List[ServeResult],
    summary: ServeSummary,
    wall: float,
    serial_wall: Optional[float],
) -> Dict[str, object]:
    pct = latency_percentiles(results)
    return {
        "mode": mode,
        "pool": pool if pool is not None else "serial",
        "qps": round(len(results) / wall, 1) if wall else 0.0,
        "p50_ms": round(pct["p50"] * 1000, 1),
        "p95_ms": round(pct["p95"] * 1000, 1),
        "p99_ms": round(pct["p99"] * 1000, 1),
        "availability": round(summary.availability, 3),
        "speedup": round(serial_wall / wall, 2) if serial_wall and wall else 1.0,
    }


def run(quick: bool = False) -> Dict[str, object]:
    questions = _questions(quick)
    plan = FaultPlan.parse(FAULT_PLAN, seed=FAULT_SEED)
    pools = [1, 4] if quick else [1, 4, 8]

    rows: List[Dict[str, object]] = []
    speedups: Dict[int, float] = {}

    # -- clean: identity is the claim (GIL caps compute-bound speedup) --------
    clean_serial, clean_serial_sum, clean_serial_wall = _run_serial(questions, None)
    clean_baseline = [project(r) for r in clean_serial]
    rows.append(
        _row("clean", None, clean_serial, clean_serial_sum, clean_serial_wall, None)
    )
    clean_pool, clean_pool_sum, clean_pool_wall = _run_pool(questions, None, 4)
    assert [project(r) for r in clean_pool] == clean_baseline, (
        "clean pool-4 results diverged from the serial baseline"
    )
    rows.append(
        _row("clean", 4, clean_pool, clean_pool_sum, clean_pool_wall, clean_serial_wall)
    )

    # -- faulted: identity, then throughput and availability ------------------
    fault_serial, fault_serial_sum, fault_serial_wall = _run_serial(questions, plan)
    fault_baseline = [project(r) for r in fault_serial]
    rows.append(
        _row(
            "20% faults", None, fault_serial, fault_serial_sum, fault_serial_wall, None
        )
    )
    for pool_size in pools:
        results, summary, wall = _run_pool(questions, plan, pool_size)
        assert [project(r) for r in results] == fault_baseline, (
            f"pool-{pool_size} fault results diverged from the serial replay"
        )
        assert summary.availability >= fault_serial_sum.availability, (
            f"pool-{pool_size} availability {summary.availability:.3f} fell below "
            f"serial {fault_serial_sum.availability:.3f}"
        )
        speedups[pool_size] = fault_serial_wall / wall if wall else 1.0
        rows.append(
            _row("20% faults", pool_size, results, summary, wall, fault_serial_wall)
        )

    assert speedups[4] >= 3.0, (
        f"pool-4 sustained only {speedups[4]:.2f}x serial qps under the fault "
        f"plan (need >= 3x)"
    )

    results_doc: Dict[str, object] = {
        "domain": DOMAIN,
        "questions": len(questions),
        "primary": PRIMARY,
        "fault_plan": FAULT_PLAN,
        "fault_seed": FAULT_SEED,
        "pools": pools,
        "rows": rows,
        "speedup_pool4": round(speedups[4], 2),
        "availability_serial": round(fault_serial_sum.availability, 3),
        "byte_identical": True,  # by reaching this line
    }

    title = (
        f"P8: concurrent serving, {len(questions)} questions, "
        f"primary={PRIMARY}, plan seed={FAULT_SEED}{', quick' if quick else ''}"
    )
    emit_record(
        "p8_serve_concurrency",
        format_table(rows, title),
        "BENCH_serve_concurrency.json",
        results_doc,
        quick,
    )
    return results_doc


def test_p8_serve_concurrency(benchmark):
    """pytest-benchmark entry: assert the contract, then time one clean
    ask through a warm pool-4 front."""
    run(quick=True)
    front = ConcurrentFront(
        ContextSpec(DOMAIN, seed=SEED).build,
        pool_size=4,
        cache_answers=False,
        **_SERVICE_KWARGS,
    )
    front.start()
    try:
        question = "which instructors have salary above the average salary"
        front.ask(question, PRIMARY)  # warm
        benchmark(lambda: front.ask(question, PRIMARY))
    finally:
        front.stop()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small scale for CI smoke runs"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    print(
        f"\npool-4 sustained {results['speedup_pool4']}x serial qps under "
        f"{results['fault_plan']} with availability >= serial "
        f"({results['availability_serial']}), byte-identical at every pool size"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
