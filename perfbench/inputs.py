"""Seeded workload inputs and the reference answers they are checked against.

Everything here is a pure function of the workload seed.  The program
under test only ever sees the generated questions, statements and rows;
gold results are computed on a separate copy of the data.
"""

from __future__ import annotations

import bisect
import random
import sqlite3
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.paraphrase import Paraphraser
from repro.bench.workload_gen import (
    BASE_DAY,
    MAX_DURATION_MS,
    N_DAYS,
    N_DEVICES,
    N_EVENT_TYPES,
    N_SESSIONS,
    QUERY_TEMPLATES,
    REGIONS,
)
from repro.bench.workloads import WorkloadGenerator
from repro.core.complexity import ComplexityTier
from repro.sqldb import Database, Executor, parse_select
from repro.sqldb.relation import Relation

#: paraphrase levels mixed into every NL workload (0 = as generated)
LEVELS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Question:
    """One NL request with the gold SQL that scores it."""

    text: str
    gold_sql: str
    tier: str
    level: int


def question_pool(database: Database, seed: int, per_tier: int) -> List[Question]:
    """Distinct generated questions of all four tiers at every paraphrase
    level, shuffled by ``seed``.  Paraphrases that collide with an
    earlier question are dropped, so every text appears once."""
    generator = WorkloadGenerator(database, seed=seed)
    examples = []
    for tier in ComplexityTier:
        examples.extend(generator.generate(tier, per_tier))
    paraphraser = Paraphraser(seed=seed)
    pool: Dict[str, Question] = {}
    for level in LEVELS:
        for example in examples:
            text = paraphraser.paraphrase(example.question, level)
            pool.setdefault(text, Question(text, example.sql, example.tier.name, level))
    questions = list(pool.values())
    random.Random(seed).shuffle(questions)
    return questions


def warmup_questions(
    database: Database, seed: int, count: int, exclude: Iterable[Question]
) -> List[str]:
    """``count`` questions from another seed, none of them in ``exclude``."""
    taken = {q.text for q in exclude}
    per_tier = max(1, count // (4 * len(LEVELS)) + 1)
    fresh = [
        q.text
        for q in question_pool(database, seed + 1_000_003, per_tier)
        if q.text not in taken
    ]
    return fresh[:count]


def tier_mix(questions: Iterable[Question]) -> Dict[str, int]:
    """Distinct-question count per tier."""
    return dict(sorted(Counter(q.tier for q in questions).items()))


def repeat_stream(
    pool_size: int, n: int, repeat_share: float, rng: random.Random, exponent: float = 1.0
) -> List[int]:
    """Indices into a question pool for ``n`` requests.

    Each request repeats an earlier question with probability
    ``repeat_share`` (always, once the pool is used up); the repeated
    question is drawn Zipf-skewed over the order in which questions were
    first asked, so a few early questions stay hot.  Otherwise the next
    unasked question is sent.
    """
    cumulative: List[float] = []
    total = 0.0
    for rank in range(min(pool_size, n)):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)
    out: List[int] = []
    asked = 0
    for _ in range(n):
        if asked and (asked >= pool_size or rng.random() < repeat_share):
            bound = cumulative[asked - 1]
            out.append(min(bisect.bisect_left(cumulative, rng.random() * bound), asked - 1))
        else:
            out.append(asked)
            asked += 1
    return out


def measured_repeat_share(stream: Sequence[Any]) -> float:
    """Share of requests whose question was asked earlier in the stream."""
    return 1 - len(set(stream)) / len(stream) if stream else 0.0


class GoldOracle:
    """Gold-SQL results on a private copy of the data, cached per SQL text.

    Scoring follows ``repro.bench.metrics.execution_match``: row order
    matters only when the gold query has an ORDER BY.
    """

    def __init__(self, database: Database):
        self._executor = Executor(database)
        self._cache: Dict[str, Tuple[Relation, bool]] = {}

    def gold(self, sql: str) -> Tuple[Relation, bool]:
        found = self._cache.get(sql)
        if found is None:
            statement = parse_select(sql)
            ordered = bool(getattr(statement, "order_by", None))
            found = self._cache[sql] = (self._executor.execute(statement), ordered)
        return found

    def matches(self, question: Question, answer: Optional[Relation]) -> bool:
        if answer is None:
            return False
        gold, ordered = self.gold(question.gold_sql)
        return gold.equals_ordered(answer) if ordered else gold.equals_unordered(answer)


# -- telemetry ---------------------------------------------------------------


@dataclass(frozen=True)
class TelemetryOp:
    """A read (``sql``) or a write (``batch``, an index into the batches)."""

    kind: str
    template: str
    sql: str = ""
    batch: int = -1


def telemetry_statements(n_rows: int, seed: int, count: int) -> List[Tuple[str, str]]:
    """``(class, sql)`` for ``count`` reads: the six classes of
    ``repro.bench.workload_gen.QUERY_TEMPLATES`` in turn, with ranges
    drawn inside the table's value domains as its generator draws them.

    Parameters are drawn in bulk (the library generator's
    ``choice(replace=False)`` over the 100,000-value duration domain
    costs a permutation per statement).
    """
    import datetime

    names = list(QUERY_TEMPLATES)
    rng = np.random.RandomState(seed)
    turns = -(-count // len(names))

    def ranges(domain: int) -> Tuple[np.ndarray, np.ndarray]:
        first = rng.randint(0, domain, size=turns)
        second = (first + 1 + rng.randint(0, domain - 1, size=turns)) % domain
        return np.minimum(first, second), np.maximum(first, second)

    dev, et, day, dur = ranges(N_DEVICES), ranges(N_EVENT_TYPES), ranges(N_DAYS), ranges(MAX_DURATION_MS)
    prefix = rng.randint(1, 10, size=turns)
    row_id = rng.randint(0, max(1, n_rows), size=turns)
    base = datetime.date.fromisoformat(BASE_DAY)
    out: List[Tuple[str, str]] = []
    for i in range(turns):
        params = dict(
            dev_lo=int(dev[0][i]), dev_hi=int(dev[1][i]),
            et_lo=int(et[0][i]), et_hi=int(et[1][i]),
            day_lo=(base + datetime.timedelta(days=int(day[0][i]))).isoformat(),
            day_hi=(base + datetime.timedelta(days=int(day[1][i]))).isoformat(),
            dur_lo=int(dur[0][i]), dur_hi=int(dur[1][i]),
            sess_prefix=int(prefix[i]), row_id=int(row_id[i]),
        )
        out.extend((name, QUERY_TEMPLATES[name].format(**params)) for name in names)
    return out[:count]


def telemetry_ops(
    n_rows: int, seed: int, reads: int, write_every: int, batch_rows: int
) -> Tuple[List[TelemetryOp], List[List[Tuple[Any, ...]]]]:
    """Reads of :func:`telemetry_statements`, with a write batch after
    every ``write_every`` reads.  Written rows continue the id sequence."""
    rng = np.random.RandomState(seed + 1)
    ops: List[TelemetryOp] = []
    batches: List[List[Tuple[Any, ...]]] = []
    next_id = n_rows
    for i, (template, sql) in enumerate(telemetry_statements(n_rows, seed, reads), start=1):
        ops.append(TelemetryOp("read", template, sql=sql))
        if i % write_every == 0:
            batches.append(_telemetry_rows(rng, next_id, batch_rows))
            next_id += batch_rows
            ops.append(TelemetryOp("write", "insert_many", batch=len(batches) - 1))
    return ops, batches


def _telemetry_rows(rng: np.random.RandomState, first_id: int, count: int) -> List[Tuple[Any, ...]]:
    import datetime

    base = datetime.date.fromisoformat(BASE_DAY)
    rows = []
    for offset in range(count):
        duration = None if rng.random_sample() < 0.04 else int(rng.randint(0, MAX_DURATION_MS))
        ok = None if rng.random_sample() < 0.04 else bool(rng.random_sample() < 0.9)
        rows.append(
            (
                first_id + offset,
                int(rng.randint(0, N_DEVICES)),
                int(rng.randint(0, N_EVENT_TYPES)),
                REGIONS[int(rng.randint(0, len(REGIONS)))],
                f"sess-{int(rng.randint(0, N_SESSIONS))}",
                base + datetime.timedelta(days=int(rng.randint(0, N_DAYS))),
                duration,
                ok,
            )
        )
    return rows


def post_write_reads(ops: Sequence[TelemetryOp]) -> int:
    """Reads among the first six after a write: one full turn of the six
    classes, so every class's first read after new rows is counted."""
    count = 0
    since_write: Optional[int] = None
    for op in ops:
        if op.kind == "write":
            since_write = 0
        elif since_write is not None:
            since_write += 1
            if since_write <= 6:
                count += 1
    return count


class SqliteOracle:
    """stdlib sqlite3 loaded with the same rows and writes."""

    def __init__(self, rows: Iterable[Sequence[Any]]):
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            "CREATE TABLE telemetry (id INTEGER PRIMARY KEY, device_id INTEGER, "
            "event_type INTEGER, region TEXT, session TEXT, event_day TEXT, "
            "duration_ms INTEGER, ok INTEGER)"
        )
        # Indexes only make the oracle faster; LIKE uses the session
        # index once it is case-sensitive, as the generated data is.
        self._db.execute("PRAGMA case_sensitive_like = ON")
        for columns in ("device_id, event_type, duration_ms", "event_day, duration_ms",
                        "duration_ms, region", "session"):
            self._db.execute(f"CREATE INDEX ix_{columns.split(',')[0]} ON telemetry ({columns})")
        self.insert(rows)

    def insert(self, rows: Iterable[Sequence[Any]]) -> None:
        self._db.executemany(
            "INSERT INTO telemetry VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [self._row(row) for row in rows],
        )

    @staticmethod
    def _row(row: Sequence[Any]) -> Tuple[Any, ...]:
        return tuple(
            value.isoformat() if hasattr(value, "isoformat") else value for value in row
        )

    def agrees(self, sql: str, rows: Sequence[Sequence[Any]]) -> bool:
        """Do ``rows`` equal sqlite3's answer (in order when ORDER BY)?"""
        theirs = [tuple(map(_tagged, row)) for row in self._db.execute(sql).fetchall()]
        ours = [tuple(map(_tagged, row)) for row in rows]
        if " ORDER BY " not in sql.upper():
            theirs.sort()
            ours.sort()
        return ours == theirs

    def close(self) -> None:
        self._db.close()


def _tagged(value: Any) -> Tuple[int, Any]:
    """Type-tagged comparison key: NULL, number (ints and equal floats
    agree to 9 decimals, as in ``Relation`` equality), or text."""
    if value is None:
        return (0, "")
    if isinstance(value, (bool, int, float)):
        return (1, round(float(value), 9))
    if hasattr(value, "isoformat"):
        return (2, value.isoformat())
    return (2, str(value))
