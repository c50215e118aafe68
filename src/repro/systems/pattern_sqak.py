"""SQAK-style pattern-based system [51] (§3 of the survey).

"Pattern-based NLID systems introduce the use of natural language
patterns for detecting more SQL clauses like aggregation, GROUP BY,
ORDER BY, etc.  Exploiting fixed patterns ... enables such systems to
overcome the limitations of keyword-based systems, but they are limited
to those fixed patterns."

Relative to :class:`~repro.systems.keyword_soda.SodaSystem`, this system
adds exactly the fixed patterns of :mod:`repro.nlp.patterns` ("total",
"average", "how many", "by X", "top N", comparisons) — and nothing else:
joins and nesting stay out of reach, and a paraphrase that leaves the
pattern inventory breaks it (the §4.1 brittleness claim).
"""

from __future__ import annotations

from typing import List

from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register

from .base import EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class SqakSystem(NLIDBSystem):
    """Keyword lookup + fixed NL patterns; single-table aggregation tier."""

    name = "sqak"
    family = "entity"

    def __init__(self):
        self.annotator = EntityAnnotator(
            fuzzy_values=False,
            similarity_threshold=0.85,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.pattern(), self.name)

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        return self.interpreter.interpret(annotated, context)


register("sqak", SqakSystem)
