"""Evaluation metrics: execution accuracy, exact match, component F1.

Execution accuracy — "do predicted and gold SQL return the same result on
the same database" — is the primary metric, exactly as in WikiSQL [69]
and Spider [64] (§6 of the survey).  Exact (AST) match and component F1
are secondary diagnostics.  Precision/recall treat an empty
interpretation list as *abstention*: precision is accuracy over answered
questions, recall is accuracy over all questions — the decomposition
behind the survey's "entity-based = precision, ML = recall" claim (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.sqldb import Database, Executor, parse_select
from repro.sqldb.ast import BinaryOp, Expr, SelectStatement


def execution_match(
    database: Database,
    predicted_sql: str,
    gold_sql: str,
    executor: Optional[Executor] = None,
) -> bool:
    """Whether the two queries return the same result on ``database``.

    Order-sensitive when the gold query has an ORDER BY, multiset
    comparison otherwise.  Any error on the predicted side counts as a
    miss; gold must execute (it is validated at generation time).
    Pass ``executor`` to reuse one executor's parse/plan caches across
    many matches (the harness does, via the database's shared executor).
    """
    if executor is None:
        executor = Executor(database)
    gold_stmt = parse_select(gold_sql)
    gold = executor.execute(gold_stmt)
    try:
        predicted = executor.execute_sql(predicted_sql)
    except Exception:
        return False
    if gold_stmt.order_by:
        return gold.equals_ordered(predicted)
    return gold.equals_unordered(predicted)


def exact_match(predicted_sql: str, gold_sql: str) -> bool:
    """AST equality after parsing (whitespace/case of keywords ignored)."""
    try:
        return parse_select(predicted_sql) == parse_select(gold_sql)
    except Exception:
        return False


# -- component F1 ------------------------------------------------------------


def _components(stmt: SelectStatement) -> Set[Tuple[str, str]]:
    parts: Set[Tuple[str, str]] = set()
    for item in stmt.select_items:
        parts.add(("select", item.expr.to_sql().lower()))
    for table in stmt.referenced_tables():
        parts.add(("table", table.lower()))
    if stmt.where is not None:
        for predicate in _conjuncts(stmt.where):
            parts.add(("where", predicate.to_sql().lower()))
    for expr in stmt.group_by:
        parts.add(("group", expr.to_sql().lower()))
    if stmt.having is not None:
        parts.add(("having", stmt.having.to_sql().lower()))
    for order in stmt.order_by:
        parts.add(("order", order.to_sql().lower()))
    if stmt.limit is not None:
        parts.add(("limit", str(stmt.limit)))
    return parts


def _conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def component_f1(predicted_sql: str, gold_sql: str) -> float:
    """F1 over clause-level components of the two queries."""
    try:
        predicted = _components(parse_select(predicted_sql))
        gold = _components(parse_select(gold_sql))
    except Exception:
        return 0.0
    if not predicted and not gold:
        return 1.0
    if not predicted or not gold:
        return 0.0
    overlap = len(predicted & gold)
    precision = overlap / len(predicted)
    recall = overlap / len(gold)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# -- aggregated evaluation ------------------------------------------------------


@dataclass
class ExampleOutcome:
    """Per-example evaluation record."""

    question: str
    gold_sql: str
    predicted_sql: Optional[str]
    answered: bool
    correct: bool
    exact: bool
    tier: Any = None
    #: the static analyzer found error-severity diagnostics in the
    #: predicted SQL — the executor pre-flight rejected it before
    #: touching any row (counts as answered-but-wrong)
    static_rejected: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: perf measurements *about* the run, not results *of* it — excluded
    #: from equality so cached and uncached sweeps stay comparable
    interp_ms: Optional[float] = field(default=None, compare=False)
    #: schema-index candidates pruned before scoring for this example
    #: (``None`` when the context has no index)
    cand_pruned: Optional[int] = field(default=None, compare=False)


@dataclass
class EvaluationSummary:
    """Aggregate metrics over a set of outcomes."""

    total: int
    answered: int
    correct: int
    #: predictions the static analyzer rejected before execution
    static_rejections: int = 0

    @property
    def accuracy(self) -> float:
        """Correct / total (abstentions count as wrong)."""
        return self.correct / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        """Correct / answered (abstentions excluded)."""
        return self.correct / self.answered if self.answered else 0.0

    @property
    def recall(self) -> float:
        """Correct / total — identical to accuracy under this abstention
        model; kept separate for the §6 precision/recall narrative."""
        return self.accuracy

    @property
    def answer_rate(self) -> float:
        """Answered / total."""
        return self.answered / self.total if self.total else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def summarize(outcomes: Sequence[ExampleOutcome]) -> EvaluationSummary:
    """Fold outcomes into an :class:`EvaluationSummary`."""
    return EvaluationSummary(
        total=len(outcomes),
        answered=sum(1 for o in outcomes if o.answered),
        correct=sum(1 for o in outcomes if o.correct),
        static_rejections=sum(1 for o in outcomes if o.static_rejected),
    )


def by_tier(outcomes: Sequence[ExampleOutcome]) -> Dict[Any, EvaluationSummary]:
    """Per-tier summaries (keyed by the outcome's ``tier``)."""
    buckets: Dict[Any, List[ExampleOutcome]] = {}
    for outcome in outcomes:
        buckets.setdefault(outcome.tier, []).append(outcome)
    return {tier: summarize(items) for tier, items in sorted(buckets.items(), key=lambda kv: str(kv[0]))}
