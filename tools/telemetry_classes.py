"""Per-class query times on the telemetry table, and a digest of the answers.

Builds the BRAD-style telemetry table at ROWS rows (``build_telemetry_db``,
seed 0, as ``benchmarks/bench_perf.py columnar``), warms its column store
and secondary indexes with one statement per class drawn from another
seed, then runs the generated queries (``generate_telemetry_queries``,
seed 0, ten per class) once each, each on a new default executor so no
statement reuses another's parse, plan or compiled kernels, and prints
one JSON line:

- ``rows`` and ``queries``;
- ``<class>_ms``: the median wall time of that class's queries;
- ``digest``: one sha256 over every result's type-tagged rows, in query
  order, so two trees that print the same digest gave the same answers.

Run it on two commits with ``tools/ab.py`` to compare them::

    python tools/ab.py PARENT CHANGE --cmd "tools/telemetry_classes.py 1000000"

or on this tree::

    PYTHONPATH=src python tools/telemetry_classes.py [ROWS]
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_ROWS = 100_000
PER_CLASS = 10
SEED = 0
WARM_SEED = 1


def telemetry_classes(rows: int) -> Dict[str, Any]:
    """Time the generated telemetry queries at ``rows`` rows; the summary."""
    sys.path[:0] = [str(ROOT / "src")]
    from repro.bench.workload_gen import build_telemetry_db, generate_telemetry_queries
    from repro.sqldb.executor import Executor

    db = build_telemetry_db(n_rows=rows, seed=SEED)
    for query in generate_telemetry_queries(rows, 1, seed=WARM_SEED):
        Executor(db).execute_sql(query.sql)
    times: Dict[str, List[float]] = {}
    tagged = []
    queries = generate_telemetry_queries(rows, PER_CLASS, seed=SEED)
    for query in queries:
        executor = Executor(db)  # no statement reuses another's caches
        start = time.perf_counter()
        result = executor.execute_sql(query.sql)
        times.setdefault(query.template, []).append(time.perf_counter() - start)
        tagged.append([[[type(v).__name__, repr(v)] for v in row] for row in result.rows])
    summary: Dict[str, Any] = {"rows": rows, "queries": len(queries)}
    for template in sorted(times):
        summary[f"{template}_ms"] = round(statistics.median(times[template]) * 1000, 3)
    summary["digest"] = hashlib.sha256(json.dumps(tagged).encode()).hexdigest()
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or (args and not args[0].isdigit()):
        print(f"usage: {Path(__file__).name} [ROWS]  (default {DEFAULT_ROWS})", file=sys.stderr)
        return 2
    print(json.dumps(telemetry_classes(int(args[0]) if args else DEFAULT_ROWS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
