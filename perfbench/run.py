"""End-to-end benchmark of the NLIDB: question→answer latency and capacity.

Run from the repository root::

    python3 perfbench/run.py --workload nlq_serve --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Workloads (each runs in its own process, so ``setup_s`` and
``peak_rss_mb`` belong to it):

- ``nlq_widecat`` — closed-loop new questions over a 250-table catalog
  through ``NLIDBSystem.answer`` (see ``nlq_widecat.py``);
- ``sql_telemetry`` — closed-loop SQL reads and bulk writes on a
  100,000-row table through ``Database.execute_sql`` (see
  ``sql_telemetry.py``);
- ``nlq_serve`` — open-loop Poisson questions against the serving front
  ``repro serve --http`` builds (see ``nlq_serve.py``).  It is not in
  ``BENCHMARK.json``: on a shared 2-vCPU VM its p50 moved 0.26
  (IQR/median over ten seeds) with load from neighbours on the host.  ``nlq_widecat``'s traced
  run includes its measurements of the serving layers.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run of the same inputs and prints
the per-layer metrics.  Layers a workload bypasses report 0.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  Every run also
writes a record with provenance and input properties under
``.perfbench/records/`` (``.perfbench/smoke/`` for runs shorter than
``run_seconds``, so a smoke run never overwrites full-length numbers).

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nlq_serve", "nlq_widecat", "sql_telemetry")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="measuring time (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} has no src/repro and BENCHMARK.json to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import common

    common.load_metric_spec()
    seconds = args.seconds if args.seconds is not None else common.full_run_seconds()
    if args.workload == "all":
        return _run_all(args, seconds)

    trace = bool(args.trace)
    module = importlib.import_module(args.workload)
    result, meta = module.run(args.seed, seconds, trace)
    if trace:
        bypassed = sorted(set(common.PER_LAYER) - set(result.metrics))
        result.metrics.update(dict.fromkeys(bypassed, 0.0))
        result.details["bypassed_layers"] = bypassed
    else:
        result.metrics.setdefault("peak_rss_mb", common.peak_rss_mb())
    spec = common.PER_LAYER if trace else common.END_TO_END
    record = common.write_record(
        result, seconds, common.provenance(args.seed, seconds, trace, workload=args.workload, **meta)
    )
    common.say(f"{args.workload} seed {args.seed}: attempted {result.attempted}, failed {result.failed}, "
               f"correct {result.correct}")
    for problem in result.problems:
        common.say(f"  check failed: {problem}")
    for line in common.fmt_metrics(result.metrics, spec):
        common.say(line)
    if "latency_p99_ms" in result.details:
        details = result.details
        common.say(f"  latency_p90_ms {details['latency_p90_ms']:.4f} ms, latency_p99_ms "
                   f"{details['latency_p99_ms']:.4f} ms ({details['beyond_p99']} of "
                   f"{details['latency_samples']} beyond p99), not gated")
    common.say(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result.report()), flush=True)
    return 0


def _run_all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process, then
    one table of the end-to-end metrics and one of the per-layer ones.

    The end-to-end table adds the figures ``BENCHMARK.json`` does not
    gate: ``latency_p90_ms``, ``latency_p99_ms`` and ``error_share`` from
    the untraced run's record, ``max_qps_at_slo`` from the traced run.
    """
    import common

    runs: Dict[Tuple[str, int], Dict[str, Any]] = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(completed.stdout + completed.stderr, file=sys.stderr)
                print(f"perfbench: {workload} exited {completed.returncode}", file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]), flush=True)
            record = common.record_path(workload, args.seed, bool(trace), seconds)
            runs[workload, trace] = json.loads(record.read_text(encoding="utf-8"))

    def value(workload: str, name: str, title: str) -> float:
        plain, traced = runs[workload, 0], runs[workload, 1]
        if title == "end_to_end" and name in plain["metrics"]:
            return plain["metrics"][name]["value"]
        if title == "end_to_end" and name in plain["details"]:
            return plain["details"][name]
        return traced["metrics"][name]["value"]

    end_to_end = {name: unit for name, (unit, _) in common.END_TO_END.items()}
    end_to_end.update(
        {"latency_p90_ms": "ms", "latency_p99_ms": "ms", "max_qps_at_slo": "req/s", "error_share": "ratio"}
    )
    tables = {
        "end_to_end": end_to_end,
        "per_layer": {name: unit for name, (unit, _) in common.PER_LAYER.items()},
    }
    summary: Dict[str, Any] = {}
    for title, names in tables.items():
        print(f"\n{title:44s} {'unit':8s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
        for name, unit in names.items():
            cells = {w: value(w, name, title) for w in WORKLOADS}
            summary.setdefault(title, {})[name] = cells
            print(f"{name:44s} {unit:8s}" + "".join(f"{v:16.4f}" for v in cells.values()))
    correct = all(run["correct"] for run in runs.values())
    print(json.dumps({"correct": correct, **summary}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
