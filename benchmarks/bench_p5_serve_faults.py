"""P5 — Resilient serving under fault injection: the smoke proof.

Exercises :mod:`repro.serve` the way CI needs it exercised — with faults
injected at *every* pipeline stage on a fixed seed — and asserts the
serving contract:

1. **never raises** — every question, under every injected fault, comes
   back as a typed ``ServeResult``; an escaped exception fails the run;
2. **degradation works** — with the chain's primary failing, a nonzero
   number of questions must still be *answered* by a fallback, each with
   the failed primary recorded in ``degraded_from``;
3. **byte-identity when disabled** — with no injector, every serve
   answer equals the primary system's direct ``answer()`` (columns and
   rows), so the resilience wrapper adds behavior only under fault;
4. **determinism** — the same plan + seed + workload reproduces the
   same availability/degraded/retry counts exactly.

Runs standalone (``python benchmarks/bench_p5_serve_faults.py``,
``--quick`` for the CI smoke run) and under pytest.  Emits
``benchmarks/results/p5_serve_faults.txt`` and
``BENCH_serve_faults.json`` at the repo root; ``--quick`` runs write
both under ``.bench_quick/`` (the CI artifact).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.harness import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core.registry import create
from repro.perf.parallel import ContextSpec
from repro.serve import (
    FaultInjector,
    FaultPlan,
    ResilientService,
    serve_workload,
)
from repro.systems import AthenaSystem  # noqa: F401  (populate the registry)


#: every stage, every fault kind, fixed seed — the CI smoke plan
FAULT_PLAN = "*:error:0.2,*:latency:0.2:0.0005,*:corrupt:0.2"
FAULT_SEED = 3

PRIMARY = "athena"


def _service(context, plan_text: str | None, seed: int) -> ResilientService:
    injector = (
        FaultInjector(FaultPlan.parse(plan_text, seed=seed)) if plan_text else None
    )
    return ResilientService(
        context,
        retries=2,
        backoff_s=0.0,
        injector=injector,
        sleep=lambda s: None,  # backoff is counted, not slept, in the bench
        failure_threshold=10_000,  # measure degradation, not breaker trips
    )


def run(quick: bool = False) -> Dict[str, object]:
    domain = "university"
    per_tier = 1 if quick else 3
    epochs = 2 if quick else 5

    context = ContextSpec(domain, seed=3).build()
    questions = [
        example.question
        for example in WorkloadGenerator(context.database, seed=3).generate_mixed(
            per_tier
        )
    ] * epochs

    # 3. byte-identity with injection disabled: the wrapper must be
    # invisible when nothing is injected.
    clean_results, clean_summary = serve_workload(
        _service(context, None, 0), questions, system=PRIMARY
    )
    primary = create(PRIMARY)
    identical = 0
    for result in clean_results:
        direct = primary.answer(result.question, context)
        if result.ok:
            assert result.system == PRIMARY, result.question
            assert direct is not None, result.question
            assert result.answer.columns == direct.columns, result.question
            assert result.answer.rows == direct.rows, result.question
            identical += 1
        else:
            assert direct is None, result.question
    assert clean_summary.retries == 0 and clean_summary.faults == 0

    # 1 + 2. full injection: never raises (serve_workload would surface
    # any escape), and fallbacks actually serve degraded answers.
    injected_results, injected = serve_workload(
        _service(context, FAULT_PLAN, FAULT_SEED), questions, system=PRIMARY
    )
    assert injected.total == len(questions)
    assert injected.degraded_ok > 0, "no degraded answers were served"
    assert injected.retries > 0, "no transient fault was ever retried"
    for result in injected_results:
        if result.ok and result.degraded:
            assert result.degraded_from, result.question
            assert all(reason for _, reason in result.degraded_from)

    # 4. determinism: replay must match exactly.
    _, replay = serve_workload(
        _service(context, FAULT_PLAN, FAULT_SEED), questions, system=PRIMARY
    )
    for key in ("ok", "degraded_ok", "failed", "retries", "faults"):
        assert getattr(replay, key) == getattr(injected, key), key

    results: Dict[str, object] = {
        "domain": domain,
        "questions": len(questions),
        "primary": PRIMARY,
        "fault_plan": FAULT_PLAN,
        "fault_seed": FAULT_SEED,
        "clean": clean_summary.as_dict(),
        "clean_identical_answers": identical,
        "injected": injected.as_dict(),
        "uncaught_exceptions": 0,  # by reaching this line
        "deterministic": True,
    }

    rows: List[Dict[str, object]] = [
        {
            "mode": "no injection",
            "availability": f"{clean_summary.availability:.3f}",
            "degraded": clean_summary.degraded_ok,
            "retries": clean_summary.retries,
            "note": f"{identical} answers byte-identical to direct calls",
        },
        {
            "mode": f"inject {FAULT_PLAN}",
            "availability": f"{injected.availability:.3f}",
            "degraded": injected.degraded_ok,
            "retries": injected.retries,
            "note": f"{injected.faults} faults injected, 0 uncaught",
        },
    ]
    title = (
        f"P5: resilient serving, {len(questions)} questions, "
        f"primary={PRIMARY}, seed={FAULT_SEED}{', quick' if quick else ''}"
    )
    emit_record(
        "p5_serve_faults",
        format_table(rows, title),
        "BENCH_serve_faults.json",
        results,
        quick,
    )
    return results


def test_p5_serve_faults(benchmark):
    """pytest-benchmark entry: assert the contract, then time one clean
    serve call on a warm service."""
    run(quick=True)
    context = ContextSpec("university", seed=3).build()
    service = _service(context, None, 0)
    question = "which instructors have salary above the average salary"
    service.ask(question, system=PRIMARY)  # warm
    benchmark(lambda: service.ask(question, system=PRIMARY))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small scale for CI smoke runs"
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    injected = results["injected"]
    print(
        f"\navailability {injected['availability']} under {results['fault_plan']} "
        f"(clean 1.0-identical), {injected['degraded_ok']} degraded answers, "
        f"{injected['retries']} retries, 0 uncaught exceptions"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
