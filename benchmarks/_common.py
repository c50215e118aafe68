"""Shared helpers for the benchmarks.

Every experiment benchmark (E1-E12, A1-A3) regenerates one table of
EXPERIMENTS.md: it runs the experiment once (untimed), prints the
table, saves it under ``benchmarks/results/``, asserts the survey
claim's *shape*, and times a representative unit of work with
pytest-benchmark so ``--benchmark-only`` reports meaningful
per-operation numbers.

The perf runner (``bench_perf.py``) writes one ``BENCH_<section>.json``
record per section through :func:`emit_record`, which stamps each
record with where it came from.  Its ``--quick`` smoke runs (and its
pytest entries, which run quick) write under the gitignored
``.bench_quick/`` instead, so a smoke run never overwrites a committed
full-scale record.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any, Dict, Iterable, Optional

from repro.bench.harness import format_table

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
QUICK_DIR = os.path.join(REPO_ROOT, ".bench_quick")


def _write(directory: str, filename: str, text: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, filename), "w", encoding="utf-8") as f:
        f.write(text)


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    _write(RESULTS_DIR, f"{name}.txt", text + "\n")


def emit_rows(name: str, rows: Iterable[Dict[str, Any]], title: str) -> None:
    """Format, print and persist a row table."""
    emit(name, format_table(list(rows), title))


def _git(*args: str) -> Optional[str]:
    """``git`` output in the repo, or ``None`` outside a checkout."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def provenance(command: str) -> Dict[str, Any]:
    """Where a record came from.

    ``src_tree`` is the tree hash of ``src/``, which survives a squash
    merge that rewrites ``commit``.  ``dirty`` says whether ``src/`` or
    the benchmark code differs from ``commit``; the tables and records a
    run rewrites do not count.
    """
    status = _git("status", "--porcelain", "--", "src", "benchmarks/*.py")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_tree": _git("rev-parse", "HEAD:src"),
        "dirty": None if status is None else bool(status),
        "command": command,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def emit_record(name: str, text: str, record: Dict[str, Any], quick: bool) -> None:
    """Print a perf section's table and persist it with its JSON record.

    A full run writes ``benchmarks/results/<name>.txt`` and
    ``BENCH_<name>.json`` at the repo root, the committed records.  A
    quick run writes both files under ``.bench_quick/``.  The record
    gains a ``provenance`` block naming the command that regenerates it.
    """
    print()
    print(text)
    command = f"PYTHONPATH=src python benchmarks/bench_perf.py {name}" + (
        " --quick" if quick else ""
    )
    record = {**record, "provenance": provenance(command)}
    text_dir, record_dir = (QUICK_DIR, QUICK_DIR) if quick else (RESULTS_DIR, REPO_ROOT)
    _write(text_dir, f"{name}.txt", text + "\n")
    _write(record_dir, f"BENCH_{name}.json", json.dumps(record, indent=2, sort_keys=True))
