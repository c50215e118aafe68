"""QUICK-style incremental query construction [66] (§4.1).

QUICK "binds a keyword-based query to the lookup results from an
inverted index that is built on the instances, concepts, and properties
of the underlying data.  In addition ... QUICK employs an additional
step in which users can interactively select one of the suggested query
interpretations that best fits their query."

Implementation: the keyword pipeline produces candidate interpretations
(like SODA, but keeping the full ranked list), then the *user* picks via
the shared clarification protocol — a :class:`FirstOptionUser` makes
QUICK behave exactly like ranked keyword search, while a simulated or
scripted user realizes the interactive semantics the paper describes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.feedback import (
    ClarificationOption,
    ClarificationRequest,
    ClarificationUser,
    FirstOptionUser,
)
from repro.core.interpretation import Interpretation
from repro.core.pipeline import NLIDBContext, NLIDBSystem
from repro.core.registry import register

from .base import EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class QuickSystem(NLIDBSystem):
    """Keyword interpretation with interactive candidate selection."""

    name = "quick"
    family = "entity"

    def __init__(self, user: Optional[ClarificationUser] = None, max_options: int = 4):
        self.user = user or FirstOptionUser()
        self.max_options = max_options
        self.annotator = EntityAnnotator(
            fuzzy_values=False,
            similarity_threshold=0.85,
        )
        # QUICK's grammar covers keyword-bound selections; interaction,
        # not linguistics, is its contribution.
        config = InterpreterConfig(
            allow_aggregation=False,
            allow_group_by=False,
            allow_order_limit=False,
            allow_join=False,
            allow_nested=False,
            abstain_on_cross_concept=False,
            require_full_coverage=False,
            max_interpretations=max_options,
        )
        self.interpreter = SemanticInterpreter(config, self.name)
        self.selections_asked = 0

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        candidates = self.interpreter.interpret(annotated, context)
        if len(candidates) <= 1:
            return candidates
        options = []
        for candidate in candidates[: self.max_options]:
            try:
                label = candidate.to_sql(context.ontology, context.mapping).to_sql()
            except Exception:
                label = candidate.explanation or candidate.system
            options.append(ClarificationOption(label, candidate))
        request = ClarificationRequest(
            "Which interpretation fits your query best?", options, topic=question
        )
        self.selections_asked += 1
        choice = self.user.choose(request)
        chosen = options[choice].payload
        chosen.confidence = max(c.confidence for c in candidates) + 0.01
        reordered = [chosen] + [c for c in candidates if c is not chosen]
        return reordered


register("quick", QuickSystem)
