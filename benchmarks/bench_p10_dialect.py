"""P10 — hard-tier dialect: set operations, CASE, and window functions.

Two measurements:

1. **Differential dialect corpus** — every statement of a NULL-laden
   corpus covering the new constructs (``UNION [ALL]`` / ``EXCEPT`` /
   ``INTERSECT``, searched and simple ``CASE``, the eight window forms)
   is parsed, analyzed, and executed on both the planned row path and
   the columnar path; each result must match the stdlib ``sqlite3``
   oracle as a type-tagged multiset.  The bench records parse / analyze
   / execute / oracle-match counts per construct family — all four must
   equal the family's corpus size.
2. **Hard-tier answerable rate** — the survey's point that dialect
   coverage bounds what an NLIDB can answer.  The ``union-or`` hard-tier
   questions ("departments with city Madrid or with name Sales") are
   generated per bench domain and fed to the parsing-tier system
   (``AthenaNoBISystem``, no compound queries) and the full-tier system
   (``AthenaSystem``, compound interpretation on).  The bench records
   the answered-correct rate before and after; the delta must be
   positive — at least one previously-unanswerable hard-tier question
   now answers end to end.

Emits ``benchmarks/results/p10_dialect.txt`` and ``BENCH_dialect.json``
at the repo root; ``--quick`` runs write both under ``.bench_quick/``.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _common import emit_record
from repro.bench.domains import build_domain
from repro.bench.harness import evaluate_system, format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core.complexity import ComplexityTier
from repro.core.pipeline import NLIDBContext
from repro.sqldb import Column, Database, DataType, TableSchema
from repro.sqldb.executor import Executor
from repro.sqldb.parser import parse_select
from repro.systems import AthenaNoBISystem, AthenaSystem


SEED = 0
UNION_DOMAINS = ("hr", "retail", "movies", "university")

ROWS_T = [
    (1, 10.0, "x"),
    (2, None, "y"),
    (3, 10.0, None),
    (None, 5.0, "x"),
    (2, 7.5, "y"),
    (None, None, "z"),
]
ROWS_U = [
    (2, 7.5, "y"),
    (None, 5.0, "x"),
    (4, 1.0, "w"),
    (None, None, "z"),
]

#: (family, sql) — the new-construct corpus; every statement must clear
#: parse, analyze (no ERROR diagnostics), and oracle-match on both the
#: row and columnar paths.
CORPUS: List[Tuple[str, str]] = [
    ("set-op", "SELECT a FROM t UNION SELECT a FROM u"),
    ("set-op", "SELECT a FROM t UNION ALL SELECT a FROM u"),
    ("set-op", "SELECT a FROM t EXCEPT SELECT a FROM u"),
    ("set-op", "SELECT a FROM t INTERSECT SELECT a FROM u"),
    ("set-op", "SELECT a, b FROM t UNION SELECT a, b FROM u"),
    ("set-op", "SELECT a, b FROM t EXCEPT SELECT a, b FROM u"),
    ("set-op", "SELECT a, b FROM t INTERSECT SELECT a, b FROM u"),
    ("set-op", "SELECT c FROM t UNION SELECT c FROM u"),
    ("set-op", "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM t"),
    ("set-op", "SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM u"),
    ("set-op", "SELECT a FROM t WHERE a > 1 UNION SELECT a FROM u WHERE a > 1"),
    ("set-op", "SELECT a FROM t UNION SELECT a FROM u ORDER BY a"),
    ("set-op", "SELECT a, c FROM t UNION SELECT a, c FROM u ORDER BY 2 DESC, 1 LIMIT 3"),
    ("set-op", "SELECT a FROM t EXCEPT SELECT a FROM u ORDER BY 1 DESC"),
    ("case", "SELECT a, CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t"),
    ("case", "SELECT a, CASE WHEN a > 1 THEN 'big' END FROM t"),
    ("case", "SELECT CASE a WHEN 2 THEN 'two' WHEN 3 THEN 'three' ELSE 'other' END FROM t"),
    ("case", "SELECT CASE WHEN b IS NULL THEN 0 ELSE b END FROM t"),
    ("case", "SELECT a FROM t WHERE CASE WHEN a > 1 THEN 1 ELSE 0 END = 1"),
    ("case", "SELECT CASE WHEN a > 1 THEN SUM(b) ELSE 0 END FROM t GROUP BY a"),
    ("case", "SELECT c, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t GROUP BY c"),
    ("case", "SELECT SUM(CASE WHEN a > 1 THEN 1 ELSE 0 END) FROM t"),
    ("window", "SELECT a, ROW_NUMBER() OVER (ORDER BY b, c, a) FROM t"),
    ("window", "SELECT c, RANK() OVER (PARTITION BY c ORDER BY b) FROM t"),
    ("window", "SELECT c, DENSE_RANK() OVER (ORDER BY c) FROM t"),
    ("window", "SELECT a, SUM(b) OVER (PARTITION BY c) FROM t"),
    ("window", "SELECT a, SUM(b) OVER (PARTITION BY c ORDER BY a) FROM t"),
    ("window", "SELECT a, COUNT(*) OVER (ORDER BY a) FROM t"),
    ("window", "SELECT a, AVG(b) OVER (ORDER BY a) FROM t"),
    ("window", "SELECT a, MIN(b) OVER (PARTITION BY c) FROM t"),
    ("window", "SELECT a, MAX(b) OVER (ORDER BY a) FROM t"),
    ("window", "SELECT a, SUM(a) OVER () FROM t"),
]


def _build_db() -> Tuple[Database, sqlite3.Connection]:
    db = Database("dialect-bench")
    for name, rows in (("t", ROWS_T), ("u", ROWS_U)):
        db.create_table(
            TableSchema(
                name,
                [
                    Column("a", DataType.INTEGER),
                    Column("b", DataType.FLOAT),
                    Column("c", DataType.TEXT),
                ],
            )
        )
        db.insert_many(name, [list(r) for r in rows])
    oracle = sqlite3.connect(":memory:")
    for name, rows in (("t", ROWS_T), ("u", ROWS_U)):
        oracle.execute(f"CREATE TABLE {name} (a INTEGER, b REAL, c TEXT)")
        oracle.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
    return db, oracle


def _tag(row) -> tuple:
    out = []
    for v in row:
        if v is None:
            out.append((0, ""))
        elif isinstance(v, (bool, int, float)):
            out.append((1, float(v)))
        else:
            out.append((2, str(v)))
    return tuple(out)


def _corpus_section() -> Dict[str, Dict[str, int]]:
    """parse/analyze/execute/oracle-match counts per construct family."""
    db, oracle = _build_db()
    row_ex = Executor(db, use_planner=True, use_columnar=False)
    col_ex = Executor(db, use_planner=True, use_columnar=True)

    families: Dict[str, Dict[str, int]] = {}
    for family, sql in CORPUS:
        stats = families.setdefault(
            family,
            {"statements": 0, "parsed": 0, "analyzed": 0, "row_match": 0, "col_match": 0},
        )
        stats["statements"] += 1
        parse_select(sql)
        stats["parsed"] += 1
        if db.analyze_sql(sql).ok:
            stats["analyzed"] += 1
        expected = sorted(_tag(r) for r in oracle.execute(sql).fetchall())
        if sorted(_tag(r) for r in row_ex.execute_sql(sql).rows) == expected:
            stats["row_match"] += 1
        if sorted(_tag(r) for r in col_ex.execute_sql(sql).rows) == expected:
            stats["col_match"] += 1
    oracle.close()
    return families


def _answerable_section(quick: bool) -> Dict[str, Dict[str, object]]:
    """union-or answered-correct rate, parsing tier vs full tier."""
    domains = UNION_DOMAINS[:2] if quick else UNION_DOMAINS
    per_domain = 4 if quick else 8

    out: Dict[str, Dict[str, object]] = {}
    for domain in domains:
        db = build_domain(domain, seed=SEED)
        context = NLIDBContext(db)
        examples = [
            e
            for e in WorkloadGenerator(db, seed=SEED).generate(
                ComplexityTier.NESTED, 24
            )
            if e.template == "union-or"
        ][:per_domain]
        if not examples:
            continue
        rates = {}
        for label, system in (("before", AthenaNoBISystem()), ("after", AthenaSystem())):
            outcomes = evaluate_system(system, context, examples)
            correct = sum(1 for o in outcomes if o.answered and o.correct)
            rates[label] = correct / len(examples)
        out[domain] = {
            "questions": len(examples),
            "before": rates["before"],
            "after": rates["after"],
            "delta": rates["after"] - rates["before"],
        }
    return out


def run(quick: bool = False) -> Dict[str, object]:
    families = _corpus_section()
    answerable = _answerable_section(quick)

    total = sum(s["statements"] for s in families.values())
    all_clean = all(
        s["parsed"] == s["analyzed"] == s["row_match"] == s["col_match"] == s["statements"]
        for s in families.values()
    )
    mean_delta = (
        sum(float(s["delta"]) for s in answerable.values()) / len(answerable)
        if answerable
        else 0.0
    )
    results: Dict[str, object] = {
        "seed": SEED,
        "corpus_statements": total,
        "families": families,
        "corpus_all_clean": all_clean,
        "answerable": answerable,
        "answerable_mean_delta": mean_delta,
    }

    table = [
        {
            "construct": family,
            "statements": s["statements"],
            "parsed": s["parsed"],
            "analyzer-clean": s["analyzed"],
            "row=oracle": s["row_match"],
            "columnar=oracle": s["col_match"],
        }
        for family, s in sorted(families.items())
    ]
    rate_table = [
        {
            "domain": domain,
            "union-or questions": s["questions"],
            "parsing tier": f"{s['before']:.0%}",
            "full tier": f"{s['after']:.0%}",
            "delta": f"{s['delta']:+.0%}",
        }
        for domain, s in sorted(answerable.items())
    ]
    emit_record(
        "p10_dialect",
        format_table(table, f"P10: dialect corpus vs sqlite3 oracle (seed={SEED})")
        + "\n\n"
        + format_table(
            rate_table,
            "P10: hard-tier (union-or) answerable rate, parsing vs full tier",
        ),
        "BENCH_dialect.json",
        results,
        quick,
    )

    assert all_clean, families
    assert answerable, "no union-or examples generated"
    assert mean_delta > 0, results
    return results


def test_p10_dialect(benchmark):
    """pytest-benchmark entry: run once, time one compound execution."""
    run(quick=True)
    db, oracle = _build_db()
    oracle.close()
    executor = Executor(db, use_planner=True, use_columnar=True)
    sql = "SELECT a FROM t UNION SELECT a FROM u"
    benchmark(lambda: executor.execute_sql(sql))


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer domains/questions for CI smoke runs",
    )
    args = parser.parse_args(argv)
    results = run(quick=args.quick)
    print(
        f"\ndialect corpus: {results['corpus_statements']} statements, "
        f"all clean={results['corpus_all_clean']}; hard-tier answerable "
        f"mean delta {results['answerable_mean_delta']:+.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
