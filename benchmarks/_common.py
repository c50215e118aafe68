"""Shared helpers for the benchmarks.

Every experiment benchmark (E1-E12, A1-A3) regenerates one table of
EXPERIMENTS.md: it runs the experiment once (untimed), prints the
table, saves it under ``benchmarks/results/``, asserts the survey
claim's *shape*, and times a representative unit of work with
pytest-benchmark so ``--benchmark-only`` reports meaningful
per-operation numbers.

The perf benchmarks (``bench_p*.py``) also write a ``BENCH_*.json``
record, both through :func:`emit_record`.  Their ``--quick`` smoke runs
(and the pytest entries, which run quick) write under the gitignored
``.bench_quick/`` instead, so a smoke run never overwrites a committed
full-scale record.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable

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


def emit_record(
    name: str, text: str, record_file: str, record: Dict[str, Any], quick: bool
) -> None:
    """Print a perf bench's table and persist it with its JSON record.

    A full run writes ``benchmarks/results/<name>.txt`` and
    ``<record_file>`` at the repo root, the committed records.  A quick
    run writes both files under ``.bench_quick/``.
    """
    print()
    print(text)
    text_dir, record_dir = (QUICK_DIR, QUICK_DIR) if quick else (RESULTS_DIR, REPO_ROOT)
    _write(text_dir, f"{name}.txt", text + "\n")
    _write(record_dir, record_file, json.dumps(record, indent=2, sort_keys=True))
