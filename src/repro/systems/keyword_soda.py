"""SODA-style keyword search system [15] (§3/§4.1 of the survey).

The survey places keyword-based systems at the lowest capability tier:
"they only consider each individual word for a possible match in meta
data or data instances.  Such systems can only handle simple filter
queries but cannot detect other clauses like GROUP BY and ORDER BY."

Faithful ingredients:

- each keyword is looked up in metadata and in data through the
  annotator: metadata through the schema index
  (:class:`~repro.core.schema_index.SchemaIndex`, or the brute-force
  scan when it is off), data through the value index
  (:class:`~repro.sqldb.index.ValueIndex`),
- multiple interpretations are produced and "ranked based on an
  aggregation of the scores associated with each lookup result",
- interpretations are extended through the ontology's inheritance
  (SODA's use of ontologies), but no linguistic patterns are used, so
  aggregation/grouping questions fall through,
- the system abstains when its evidence spans multiple tables (keyword
  semantics cannot justify a join path) — the high-precision /
  low-coverage profile §6 attributes to this family.
"""

from __future__ import annotations

from typing import List

from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register

from .base import EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class SodaSystem(NLIDBSystem):
    """Keyword lookup over metadata + data indexes; selection tier only."""

    name = "soda"
    family = "entity"

    def __init__(self, fuzzy_values: bool = False):
        # SODA does exact index lookups; fuzziness off by default.
        self.annotator = EntityAnnotator(
            fuzzy_values=fuzzy_values,
            similarity_threshold=0.9,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.keyword(), self.name)

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        return self.interpreter.interpret(annotated, context)


register("soda", SodaSystem)
