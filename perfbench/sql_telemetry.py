"""``sql_telemetry``: SQL reads and bulk writes on a 100,000-row fact table.

One client calls ``Database.execute_sql`` on the BRAD-style telemetry
table (``repro.bench.workload_gen``): the six generated statement
classes in turn, with a seeded 500-row ``Database.insert_many`` batch
after every 40 reads.  No NL layer runs.  Each write makes the next
point lookup rebuild the secondary index and the next scan rebuild the
column store, so p99 lands among post-write reads while p50 stays among
steady reads.  Every answer is checked against stdlib sqlite3 loaded
with the same rows and writes; one mismatch fails the run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from closedloop import Loop, run_loop
from common import OUT, RunResult, latency_metrics, peak_rss_mb, say, windows
from inputs import SqliteOracle, TelemetryOp, post_write_reads, telemetry_ops, telemetry_statements
from layers import closed_loop_metrics, delta, snapshot
from stats import median, ratio
from tracing import Tracer

ROWS = 100_000
WRITE_EVERY = 40
BATCH_ROWS = 500
SETUPS = 3


def _setup(rows: List[Tuple[Any, ...]], warmup: List[str]) -> Tuple[Any, float]:
    """Load the table and warm the column store and secondary index on
    statements outside the timed set: (database, seconds)."""
    from repro.bench.workload_gen import telemetry_schema
    from repro.sqldb import Database

    start = time.perf_counter()
    database = Database("telemetry")
    database.create_table(telemetry_schema())
    database.insert_many("telemetry", rows)
    for sql in warmup:
        database.execute_sql(sql)
    return database, time.perf_counter() - start


def _call(database: Any, batches: List[List[Tuple[Any, ...]]]):
    def call(op: TelemetryOp) -> Any:
        if op.kind == "write":
            return database.insert_many("telemetry", batches[op.batch])
        return database.execute_sql(op.sql).rows

    return call


def _check(result: RunResult, rows, ops: List[TelemetryOp], batches, loop: Loop) -> int:
    """Replay the executed operations into sqlite3; returns the matches."""
    oracle = SqliteOracle(rows)
    matched = 0
    try:
        for op, output in zip(ops, loop.outputs):
            if op.kind == "write":
                oracle.insert(batches[op.batch])
                ok = output == len(batches[op.batch])
            else:
                ok = output is not None and oracle.agrees(op.sql, output)
            matched += ok
            result.check(ok, f"differs from sqlite3: {op.sql or op.template}")
    finally:
        oracle.close()
    return matched


def run(seed: int, seconds: float, trace: bool) -> Tuple[RunResult, Dict[str, Any]]:
    from repro.bench.workload_gen import build_telemetry_db

    result = RunResult("sql_telemetry", seed, trace)
    rows = list(build_telemetry_db(ROWS, seed=seed).table("telemetry").rows)
    reads = max(600, round(240 * seconds))
    ops, batches = telemetry_ops(ROWS, seed, reads, WRITE_EVERY, BATCH_ROWS)
    warmup = [sql for _, sql in telemetry_statements(ROWS, seed + 1_000_003, 6)]
    say(f"sql_telemetry: {ROWS} rows, {len(ops)} operations generated")
    meta: Dict[str, Any] = {"rows": ROWS, "write_every": WRITE_EVERY, "batch_rows": BATCH_ROWS}
    if trace:
        return _traced(result, rows, ops, batches, warmup, seconds, meta), meta

    setups = []
    for _ in range(SETUPS):
        database, setup_s = _setup(rows, warmup)
        setups.append(setup_s)
    loop = run_loop(ops, _call(database, batches), seconds)
    done = ops[: len(loop.latencies)]
    _input_properties(meta, done)
    matched = _check(result, rows, done, batches, loop)
    result.attempted = len(done)
    result.failed = loop.failed
    latency_metrics(result, windows(loop.latencies))
    result.metrics.update(
        {
            "setup_s": median(setups),
            "throughput_qps": (result.attempted - result.failed) / loop.wall_s,
            "answered_share": ratio(sum(o is not None for o in loop.outputs), result.attempted),
            "exec_match_share": ratio(matched, result.attempted),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    result.details.update(
        {
            "setups_s": setups,
            "exhausted_ops": len(done) == len(ops),
            "errors": [e for e in loop.errors if e][:10],
            "error_share": ratio(result.failed, result.attempted),
        }
    )
    return result, meta


def _input_properties(meta: Dict[str, Any], done: List[TelemetryOp]) -> None:
    reads = sum(op.kind == "read" for op in done)
    meta["write_share"] = ratio(len(done) - reads, len(done))
    meta["post_write_read_share"] = ratio(post_write_reads(done), reads)
    meta["distinct_statements"] = len({op.sql for op in done if op.kind == "read"})


def _traced(result: RunResult, rows, ops, batches, warmup, seconds: float, meta: Dict[str, Any]) -> RunResult:
    """Untraced for half the time, then the same operations traced on a
    fresh load; both passes are checked against sqlite3."""
    database, _ = _setup(rows, warmup)
    plain = run_loop(ops, _call(database, batches), seconds / 2)
    done = ops[: len(plain.latencies)]
    _input_properties(meta, done)
    del database

    database, _ = _setup(rows, warmup)
    execution = [snapshot(database.executor.total_stats)]
    tracer = Tracer()
    with tracer:
        traced = run_loop(done, _call(database, batches), on_request=tracer.set_request)
    tracer.set_request(None)
    _check(result, rows, done, batches, plain)
    matched = _check(result, rows, done, batches, traced)

    bases: Dict[str, Any] = {"exec_match": {"matched": matched, "attempted": len(done)}}
    metrics = closed_loop_metrics(
        tracer, plain, traced, delta(execution, [snapshot(database.executor.total_stats)]), {}, bases
    )
    result.attempted = len(done)
    result.failed = traced.failed
    result.metrics.update(metrics)
    result.details["bases"] = bases
    tracer.write(OUT / "traces" / f"sql_telemetry-seed{result.seed}.jsonl.gz")
    return result
