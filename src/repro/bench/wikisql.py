"""WikiSQL-style synthetic dataset generation (§6 Benchmarks).

WikiSQL [69] pairs NL questions with single-table queries of a fixed
sketch shape over thousands of Wikipedia tables.  This generator
reproduces that *shape* at laptop scale (see DESIGN.md substitutions):

- tables are drawn from all seven benchmark domains (the cross-table
  spread that forces models to read column names rather than memorize),
- questions are produced from several phrasing templates per structure
  so models must learn cue words → clauses rather than one fixed string,
- condition mention order in the question is randomly permuted relative
  to the SQL condition order — the property that makes sequence decoders
  (Seq2SQL) underperform set-based slot filling (SQLNet), §4.2's claim.

Examples carry both the NL question and the gold
:class:`~repro.systems.neural.sketch.QuerySketch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sqldb import Database, DataType, TableSchema
from repro.sqldb.table import Table
from repro.systems.neural.sketch import Condition, QuerySketch

from .domains import all_domains


@dataclass(frozen=True)
class WikiSQLExample:
    """One NL/sketch pair over one table."""

    question: str
    sketch: QuerySketch

    @property
    def table(self) -> str:
        """Name of the single table the query targets."""
        return self.sketch.table


@dataclass
class WikiSQLDataset:
    """A train/test corpus plus the database holding every table."""

    database: Database
    train: List[WikiSQLExample]
    test: List[WikiSQLExample]

    def stats(self) -> Dict[str, int]:
        """Size statistics (mirrors the numbers the survey quotes)."""
        return {
            "pairs": len(self.train) + len(self.test),
            "train": len(self.train),
            "test": len(self.test),
            "tables": len(self.database.tables),
        }


_AGG_WORDS = {
    "sum": ["total", "combined"],
    "avg": ["average", "mean"],
    "min": ["minimum", "lowest"],
    "max": ["maximum", "highest"],
}

_GT_WORDS = ["more than", "over", "above", "greater than"]
_LT_WORDS = ["less than", "under", "below", "fewer than"]


def _format_number(value: float) -> str:
    """Render a numeric condition value exactly (no %g rounding, so the
    question token equals the SQL literal)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class WikiSQLGenerator:
    """Seeded generator of WikiSQL-style examples."""

    def __init__(self, seed: int = 0, scale: float = 0.6):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.database = self._combined_database(scale)

    # -- public API -----------------------------------------------------------

    def generate(
        self,
        train_size: int,
        test_size: int,
        split: str = "iid",
    ) -> WikiSQLDataset:
        """Build a dataset.

        ``split="iid"`` mixes tables across train/test;
        ``split="by-table"`` holds out whole tables for the test set
        (WikiSQL's cross-table generalization protocol).
        """
        tables = [t for t in self.database.tables if len(t) >= 4]
        if split == "by-table":
            shuffled = list(tables)
            self.rng.shuffle(shuffled)
            cut = max(1, len(shuffled) // 4)
            test_tables, train_tables = shuffled[:cut], shuffled[cut:]
        elif split == "iid":
            train_tables = test_tables = tables
        else:
            raise ValueError(f"unknown split {split!r}")
        train = self._make_examples(train_tables, train_size)
        test = self._make_examples(test_tables, test_size, avoid={e.question for e in train})
        return WikiSQLDataset(self.database, train, test)

    # -- table pool -------------------------------------------------------------

    def _combined_database(self, scale: float) -> Database:
        combined = Database("wikisql")
        for domain in all_domains(seed=self.seed, scale=scale).values():
            for table in domain.tables:
                clone = combined.create_table(
                    TableSchema(
                        table.name,
                        list(table.schema.columns),
                        synonyms=table.schema.synonyms,
                    )
                )
                clone.insert_many(table.rows)
        return combined

    # -- example construction -------------------------------------------------------

    def _make_examples(
        self,
        tables: Sequence[Table],
        count: int,
        avoid: Optional[set] = None,
    ) -> List[WikiSQLExample]:
        avoid = set(avoid or ())
        out: List[WikiSQLExample] = []
        attempts = 0
        while len(out) < count and attempts < count * 50:
            attempts += 1
            table = tables[int(self.rng.integers(len(tables)))]
            example = self._make_example(table)
            if example is None or example.question in avoid:
                continue
            avoid.add(example.question)
            out.append(example)
        return out

    def _make_example(self, table: Table) -> Optional[WikiSQLExample]:
        schema = table.schema
        numeric = [c for c in schema if c.dtype.is_numeric and not c.primary_key]
        text = [c for c in schema if c.dtype is DataType.TEXT]
        if not text:
            return None
        roll = self.rng.random()
        if roll < 0.35:
            aggregate = ""
        elif roll < 0.55:
            aggregate = "count"
        else:
            if not numeric:
                return None
            aggregate = str(self._pick(["sum", "avg", "min", "max"]))
        if aggregate in ("sum", "avg", "min", "max"):
            select_col = self._pick(numeric).name
        elif aggregate == "count":
            # deterministic: count the first text column (the label must
            # be a function of the question for models to learn it)
            select_col = text[0].name
        else:
            select_col = self._pick(text).name

        conditions = self._make_conditions(table, exclude=select_col)
        if aggregate == "" and not conditions:
            return None  # unconditioned full-column dumps are not questions
        sketch = QuerySketch(
            table=table.name,
            select_column=select_col,
            aggregate=aggregate,
            conditions=tuple(conditions),
        )
        if not self._answerable(sketch):
            return None
        question = self._phrase(table, sketch)
        if question is None:
            return None
        return WikiSQLExample(question, sketch)

    def _answerable(self, sketch: QuerySketch) -> bool:
        """Gold must return a non-empty, non-NULL answer — otherwise
        execution accuracy would reward any other empty query."""
        from repro.sqldb.executor import Executor

        try:
            result = Executor(self.database).execute(sketch.to_select())
        except Exception:
            return False
        if not result.rows:
            return False
        return any(v is not None for row in result.rows for v in row)

    def _make_conditions(self, table: Table, exclude: str) -> List[Condition]:
        schema = table.schema
        n_conds = int(self.rng.integers(0, 3))
        candidates = [
            c
            for c in schema
            if c.name != exclude and not c.primary_key and c.dtype is not DataType.DATE
            and c.dtype is not DataType.BOOLEAN
        ]
        self.rng.shuffle(candidates)
        out: List[Condition] = []
        # Equality values come from one shared row so conjunctions are
        # satisfiable; range thresholds come from column percentiles.
        if not len(table):
            return out
        anchor = table.rows[int(self.rng.integers(len(table)))]
        for column in candidates[:n_conds]:
            values = [v for v in table.column_values(column.name) if v is not None]
            if not values:
                continue
            anchor_value = anchor[table.schema.column_index(column.name)]
            if column.dtype.is_numeric:
                op = str(self._pick(["=", ">", "<"]))
                if op == ">":
                    value = round(float(np.percentile(values, 40)), 2)
                elif op == "<":
                    value = round(float(np.percentile(values, 60)), 2)
                else:
                    if anchor_value is None:
                        continue
                    value = anchor_value
                out.append(Condition(column.name, op, float(value)))
            else:
                if anchor_value is None:
                    continue
                out.append(Condition(column.name, "=", anchor_value))
        return out

    # -- surface realization ------------------------------------------------------

    def _phrase(self, table: Table, sketch: QuerySketch) -> Optional[str]:
        from repro.ontology.builder import humanize, pluralize

        noun = humanize(table.name)
        nouns = pluralize(noun)
        sel = humanize(sketch.select_column)
        cond_text = self._phrase_conditions(sketch.conditions)
        if sketch.aggregate == "":
            templates = [
                f"what is the {sel} of the {noun} {cond_text}",
                f"show the {sel} of {nouns} {cond_text}",
                f"give me the {sel} for {nouns} {cond_text}",
                f"{sel} of {nouns} {cond_text}",
            ]
        elif sketch.aggregate == "count":
            templates = [
                f"how many {nouns} {cond_text}" if cond_text else f"how many {nouns} are there",
                f"number of {nouns} {cond_text}",
                f"count of {nouns} {cond_text}",
            ]
        else:
            word = str(self._pick(_AGG_WORDS[sketch.aggregate]))
            templates = [
                f"what is the {word} {sel} of {nouns} {cond_text}",
                f"{word} {sel} of {nouns} {cond_text}",
                f"show the {word} {sel} for {nouns} {cond_text}",
            ]
        question = str(self._pick(templates)).strip()
        return " ".join(question.split())

    def _phrase_conditions(self, conditions: Tuple[Condition, ...]) -> str:
        if not conditions:
            return ""
        from repro.ontology.builder import humanize

        parts = []
        for cond in conditions:
            col = humanize(cond.column)
            if cond.op == "=":
                value = cond.value
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                connector = str(self._pick(["with", "whose", "having"]))
                verb = str(self._pick(["", "is ", "of "])) if connector == "whose" else ""
                parts.append(f"{connector} {col} {verb}{value}".replace("  ", " "))
            elif cond.op == ">":
                word = str(self._pick(_GT_WORDS))
                parts.append(f"with {col} {word} {_format_number(cond.value)}")
            else:
                word = str(self._pick(_LT_WORDS))
                parts.append(f"with {col} {word} {_format_number(cond.value)}")
        # Mention order is independent of SQL order: permute.
        if len(parts) > 1 and self.rng.random() < 0.5:
            parts = parts[::-1]
        return " and ".join(parts)

    def _pick(self, pool: Sequence):
        return pool[int(self.rng.integers(len(pool)))]


def execution_accuracy(
    database: Database, predicted: Optional[QuerySketch], gold: QuerySketch
) -> bool:
    """Whether the predicted sketch returns the gold result set."""
    from repro.sqldb.executor import Executor

    if predicted is None:
        return False
    executor = Executor(database)
    try:
        predicted_result = executor.execute(predicted.to_select())
    except Exception:
        return False
    gold_result = executor.execute(gold.to_select())
    return gold_result.equals_unordered(predicted_result)
