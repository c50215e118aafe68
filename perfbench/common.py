"""Run results, provenance and records shared by every workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: records, traces and scratch files of runs (ignored by git)
OUT = ROOT / ".perfbench"

#: name → (unit, "lower"|"higher"); the run reports exactly these
END_TO_END: Dict[str, Tuple[str, str]] = {}
PER_LAYER: Dict[str, Tuple[str, str]] = {}


def load_metric_spec() -> None:
    """Read metric names and units from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["end_to_end"]:
        END_TO_END[entry["name"]] = (entry["unit"], entry["better"])
    for entry in spec["per_layer"]:
        PER_LAYER[entry["name"]] = (entry["unit"], entry["better"])


def full_run_seconds() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return int(spec["run_seconds"])


@dataclass
class RunResult:
    """What one workload run measured, checked and recorded."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    #: every output check passed
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: ratio bases, step tables, input properties: the record's details
    details: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Record a failed output check (the run then reports incorrect)."""
        if not ok:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(problem)

    def report(self) -> Dict[str, Any]:
        """The result line: exactly the metrics of the run's kind, with units."""
        spec = PER_LAYER if self.trace else END_TO_END
        missing = sorted(set(spec) - set(self.metrics))
        if missing:
            raise RuntimeError(f"{self.workload} did not measure {missing}")
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": spec[name][0]}
                for name in spec
            },
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git ("unknown"
    in a checkout that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over every file under ``src/`` (identifies the code when
    the checkout carries no git metadata)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, seconds: float, trace: bool, **extra: Any) -> Dict[str, Any]:
    """Who, what and where of a run, for its record."""
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        **extra,
    }


def record_path(workload: str, seed: int, trace: bool, seconds: float) -> Path:
    """Where a run's record goes.  Runs shorter than ``BENCHMARK.json``'s
    ``run_seconds`` are smoke runs and go to their own directory, so
    they never overwrite full-length numbers."""
    directory = OUT / ("smoke" if seconds < full_run_seconds() else "records")
    return directory / f"{workload}-seed{seed}-trace{int(trace)}.json"


def write_record(result: RunResult, seconds: float, meta: Dict[str, Any]) -> Path:
    """Write the run's record (see :func:`record_path`)."""
    path = record_path(result.workload, result.seed, result.trace, seconds)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": meta,
        "smoke": seconds < full_run_seconds(),
        **result.report(),
        "problems": result.problems,
        "details": result.details,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str), encoding="utf-8")
    return path


def say(*parts: Any) -> None:
    """Progress output (stdout, never the final line)."""
    print(*parts, flush=True)


def fmt_metrics(metrics: Dict[str, float], spec: Dict[str, Tuple[str, str]]) -> List[str]:
    return [f"  {name:44s} {metrics[name]:>14.4f} {spec[name][0]}" for name in spec if name in metrics]


#: parts of a run whose percentiles are taken separately (see latency_metrics)
WINDOWS = 3


def windows(latencies: List[float], count: int = WINDOWS) -> List[List[float]]:
    """``latencies`` cut into ``count`` consecutive, near-equal parts."""
    size = -(-len(latencies) // count)
    return [latencies[i : i + size] for i in range(0, len(latencies), size)]


def latency_metrics(result: RunResult, parts: List[List[float]]) -> None:
    """The gated p50 is the median over the run's parts of each part's
    median, so a neighbour that slows the machine for part of a run
    does not move it.  p90 and the pooled p99 go into the record with
    the sample count, ungated: on ``nlq_serve`` they swing with whether
    a full garbage collection stalled the process at a busy moment, by
    more than any bound the benchmark may set."""
    from stats import beyond, median, percentile

    pooled = [latency for part in parts for latency in part]
    result.metrics["latency_p50_ms"] = median(percentile(part, 50) for part in parts) * 1000
    result.details["latency_p90_ms"] = median(percentile(part, 90) for part in parts) * 1000
    result.details["latency_p99_ms"] = percentile(pooled, 99) * 1000
    result.details["latency_samples"] = len(pooled)
    result.details["beyond_p99"] = beyond(len(pooled), 99)
