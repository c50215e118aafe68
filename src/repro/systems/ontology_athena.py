"""ATHENA-style ontology-driven system [29, 44, 46] (§4.1 of the survey).

ATHENA "maps parts of the natural language query to concepts and
relationships in an ontology that captures the semantics of a relational
database ... uses an intermediate query language before translating the
input query into SQL", with "intelligent domain reasoning" for join
inference, and — through its BI extension (Sen et al. [46]) — handles "a
collection of BI queries with nesting".

Faithful ingredients:

- evidence annotation against the ontology (concepts, properties,
  declared synonyms) and data values,
- interpretation through the OQL intermediate language
  (:mod:`repro.core.intermediate`) — never directly to SQL,
- Steiner-tree join inference over the ontology relation graph
  (:class:`~repro.ontology.reasoner.Reasoner`),
- the BI nesting repertoire: scalar "above the average X" sub-queries,
  relationship IN sub-queries for fan-out filters, NOT IN anti-joins for
  "have no <concept>",
- optional query relaxation over an external KB (Lei et al. [28]) for
  colloquial terminology — pass a ``relaxer``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register
from repro.ontology.relaxation import QueryRelaxer

from .base import EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class AthenaSystem(NLIDBSystem):
    """Ontology evidence → OQL → SQL; the full-capability entity system."""

    name = "athena"
    family = "entity"

    def __init__(
        self,
        relaxer: Optional[QueryRelaxer] = None,
        similarity_threshold: float = 0.75,
        fuzzy_values: bool = True,
    ):
        self.annotator = EntityAnnotator(
            fuzzy_values=fuzzy_values,
            similarity_threshold=similarity_threshold,
            relaxer=relaxer,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.full(), self.name)

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        return self.interpreter.interpret(annotated, context)


class AthenaNoBISystem(AthenaSystem):
    """Ablation: ATHENA without the BI/nesting extension [44 without 46].

    Used by experiment E1 to separate the base ontology system from its
    nested-query extension.
    """

    name = "athena-nobi"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.interpreter = SemanticInterpreter(InterpreterConfig.parsing(), self.name)


register("athena", AthenaSystem)
register("athena-nobi", AthenaNoBISystem)
