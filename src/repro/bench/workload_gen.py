"""BRAD-style parameterized workload generation at analytic scale.

The survey treats execution latency as a first-class usability constraint
(§6), but the bench domains top out at a few hundred rows — far from the
"enterprise-scale" regime the open challenges call out.  This module
materializes a million-row ``telemetry`` fact table and generates seeded,
template-parameterized query workloads over it, following the telemetry
workload generator in mitdbg/brad (``gen_telemetry_workload.py``): a
fixed set of SQL templates, ``numpy`` RNG seeded once, and per-query
random range endpoints drawn inside the table's value domains.

Workload classes are chosen to exercise the columnar engine's kernels
and its fallback boundary:

- ``range_count`` / ``scan_agg`` / ``ts_window`` — scan-heavy aggregates
  over integer/date ranges (fully vectorized; the ≥50x headline class),
- ``group_region`` — GROUP BY with NULL-skipping aggregates,
- ``like_scan`` — LIKE pattern filter (precompiled regex over original
  strings),
- ``point_lookup`` — indexable equality the planner answers from the
  secondary index, so generated workloads also cover the row path.

Everything is deterministic given ``seed``; benchmark JSON records the
seed so runs are reproducible.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

try:  # pragma: no cover - the toolchain bakes numpy in
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from ..sqldb import Column, DataType, Database, TableSchema

#: value domains of the generated telemetry table (templates draw their
#: parameters inside these, as BRAD's generator does with movie/event ids)
N_DEVICES = 5_000
N_EVENT_TYPES = 40
N_SESSIONS = 9_973
MAX_DURATION_MS = 100_000
N_DAYS = 365
BASE_DAY = "2023-01-01"

REGIONS = (
    "us-east", "us-west", "eu-central", "eu-west",
    "ap-south", "ap-northeast", "sa-east", "af-south",
)

#: workload class → SQL template (``{...}`` slots filled per query)
QUERY_TEMPLATES: Dict[str, str] = {
    "range_count": (
        "SELECT COUNT(*) FROM telemetry "
        "WHERE device_id > {dev_lo} AND device_id < {dev_hi}"
    ),
    "scan_agg": (
        "SELECT COUNT(*), SUM(duration_ms), AVG(duration_ms), "
        "MIN(duration_ms), MAX(duration_ms) FROM telemetry "
        "WHERE device_id > {dev_lo} AND device_id < {dev_hi} "
        "AND event_type > {et_lo} AND event_type < {et_hi}"
    ),
    "ts_window": (
        "SELECT COUNT(*), MIN(duration_ms), MAX(duration_ms) FROM telemetry "
        "WHERE event_day > '{day_lo}' AND event_day < '{day_hi}'"
    ),
    "group_region": (
        "SELECT region, COUNT(*), SUM(duration_ms) FROM telemetry "
        "WHERE duration_ms BETWEEN {dur_lo} AND {dur_hi} "
        "GROUP BY region ORDER BY region"
    ),
    "like_scan": (
        "SELECT COUNT(*) FROM telemetry WHERE session LIKE 'sess-{sess_prefix}%'"
    ),
    "point_lookup": (
        "SELECT device_id, duration_ms FROM telemetry WHERE id = {row_id}"
    ),
}

#: the classes the columnar engine fully vectorizes (benchmark headline)
SCAN_HEAVY_CLASSES = ("range_count", "scan_agg", "ts_window", "group_region")


@dataclass(frozen=True)
class GeneratedQuery:
    """One generated query with its workload class."""

    template: str
    sql: str


@dataclass
class TelemetryWorkload:
    """A materialized database plus its generated query workload."""

    database: Database
    queries: List[GeneratedQuery]
    seed: int
    n_rows: int

    def by_class(self, template: str) -> List[GeneratedQuery]:
        """The generated queries of one workload class."""
        return [q for q in self.queries if q.template == template]


def telemetry_schema() -> TableSchema:
    """Schema of the generated fact table."""
    return TableSchema(
        "telemetry",
        [
            # The generator always fills these six, so they are declared
            # NOT NULL — the analyzer warns (SQL502) that IS NOT NULL
            # tests on them are always true.
            Column("id", DataType.INTEGER, primary_key=True, nullable=False),
            Column("device_id", DataType.INTEGER, nullable=False),
            Column("event_type", DataType.INTEGER, nullable=False),
            Column("region", DataType.TEXT, nullable=False),
            Column("session", DataType.TEXT, nullable=False),
            Column("event_day", DataType.DATE, nullable=False),
            Column("duration_ms", DataType.INTEGER, nullable=True),
            Column("ok", DataType.BOOLEAN, nullable=True),
        ],
    )


def build_telemetry_db(
    n_rows: int = 1_000_000, seed: int = 0, name: str = "telemetry"
) -> Database:
    """Materialize the telemetry table with ``n_rows`` seeded rows.

    Columns are drawn with numpy's RNG and loaded through
    :meth:`~repro.sqldb.table.Table.insert_many` (single coercion pass,
    one version bump) — at this scale row-at-a-time inserts would cost
    more than the first dozen queries.  ``duration_ms`` and ``ok`` carry
    ~4% NULLs so generated workloads exercise NULL-skipping aggregates
    and three-valued filters.
    """
    if np is None:  # pragma: no cover - numpy is baked into the image
        raise RuntimeError("numpy is required for the telemetry generator")
    rng = np.random.RandomState(seed)
    base = datetime.date.fromisoformat(BASE_DAY)
    day_pool = [base + datetime.timedelta(days=int(d)) for d in range(N_DAYS)]
    session_pool = [f"sess-{s}" for s in range(N_SESSIONS)]

    device = rng.randint(0, N_DEVICES, size=n_rows).tolist()
    etype = rng.randint(0, N_EVENT_TYPES, size=n_rows).tolist()
    region_ix = rng.randint(0, len(REGIONS), size=n_rows).tolist()
    session_ix = rng.randint(0, N_SESSIONS, size=n_rows).tolist()
    day_ix = rng.randint(0, N_DAYS, size=n_rows).tolist()
    duration = rng.randint(0, MAX_DURATION_MS, size=n_rows).tolist()
    null_mask = (rng.random_sample(n_rows) < 0.04).tolist()
    ok_vals = (rng.random_sample(n_rows) < 0.9).tolist()
    ok_null = (rng.random_sample(n_rows) < 0.04).tolist()

    rows = [
        (
            i,
            device[i],
            etype[i],
            REGIONS[region_ix[i]],
            session_pool[session_ix[i]],
            day_pool[day_ix[i]],
            None if null_mask[i] else duration[i],
            None if ok_null[i] else ok_vals[i],
        )
        for i in range(n_rows)
    ]
    db = Database(name)
    db.create_table(telemetry_schema())
    db.insert_many("telemetry", rows)
    return db


def generate_telemetry_queries(
    n_rows: int,
    num_queries_per_template: int = 10,
    seed: int = 0,
    templates: Optional[Sequence[str]] = None,
) -> List[GeneratedQuery]:
    """Fill the query templates with seeded random parameters.

    ``n_rows`` bounds ``point_lookup`` ids to existing rows.  Follows the
    BRAD generator's shape: seed once, then for each template instance
    draw two distinct endpoints and order them into a valid range.
    """
    if np is None:  # pragma: no cover
        raise RuntimeError("numpy is required for the telemetry generator")
    rng = np.random.RandomState(seed)
    base = datetime.date.fromisoformat(BASE_DAY)
    chosen = list(templates) if templates is not None else list(QUERY_TEMPLATES)
    out: List[GeneratedQuery] = []
    for _ in range(num_queries_per_template):
        for name in chosen:
            template = QUERY_TEMPLATES[name]
            dev = rng.choice(N_DEVICES, size=2, replace=False)
            et = rng.choice(N_EVENT_TYPES, size=2, replace=False)
            days = rng.choice(N_DAYS, size=2, replace=False)
            dur = rng.choice(MAX_DURATION_MS, size=2, replace=False)
            day_lo = base + datetime.timedelta(days=int(days.min()))
            day_hi = base + datetime.timedelta(days=int(days.max()))
            sql = template.format(
                dev_lo=int(dev.min()),
                dev_hi=int(dev.max()),
                et_lo=int(et.min()),
                et_hi=int(et.max()),
                day_lo=day_lo.isoformat(),
                day_hi=day_hi.isoformat(),
                dur_lo=int(dur.min()),
                dur_hi=int(dur.max()),
                sess_prefix=int(rng.randint(1, 10)),
                row_id=int(rng.randint(0, max(1, n_rows))),
            )
            out.append(GeneratedQuery(name, sql))
    return out


def build_workload(
    n_rows: int = 1_000_000,
    num_queries_per_template: int = 10,
    seed: int = 0,
    templates: Optional[Sequence[str]] = None,
) -> TelemetryWorkload:
    """Materialize the table and its query workload in one call."""
    db = build_telemetry_db(n_rows=n_rows, seed=seed)
    queries = generate_telemetry_queries(
        n_rows, num_queries_per_template, seed=seed, templates=templates
    )
    return TelemetryWorkload(db, queries, seed, n_rows)


def build_customers_orders(
    n_customers: int, n_orders: int, seed: int = 0, name: str = "p1"
) -> Database:
    """The planner benchmark's customers/orders pair, loaded via bulk insert.

    Kept here so planner benchmarks (``benchmarks/bench_perf.py
    planner``) share one generator module; ``random.Random(seed)`` draws
    every value, so a seed fixes both tables.
    """
    rng = random.Random(seed)
    db = Database(name)
    db.create_table(TableSchema("customers", [
        Column("id", DataType.INTEGER, primary_key=True),
        Column("name", DataType.TEXT),
        Column("region", DataType.TEXT),
    ]))
    db.create_table(TableSchema("orders", [
        Column("id", DataType.INTEGER, primary_key=True),
        Column("customer_id", DataType.INTEGER),
        Column("total", DataType.FLOAT),
    ]))
    regions = ["west", "east", "north", "south"]
    db.insert_many("customers", [
        [i, f"customer-{i}", regions[i % len(regions)]]
        for i in range(n_customers)
    ])
    db.insert_many("orders", [
        [i, rng.randrange(n_customers), round(rng.uniform(0, 100), 2)]
        for i in range(n_orders)
    ])
    return db
