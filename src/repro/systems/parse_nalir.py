"""NaLIR-style parse-tree system [30-32] (§4.1 of the survey).

NaLIR "uses Stanford NLP Parser to obtain a linguistic understanding of
the input query in the form of a parse tree.  Tree nodes corresponding to
entities are mapped to the underlying data using a WordNet-based
similarity function.  This may provide multiple mappings per tree node,
which are then clarified by users."

Faithful ingredients:

- the question is parsed (:mod:`repro.nlp.parser`) and only parse-tree
  noun-phrase spans are considered for entity mapping (unlike the
  annotator's free n-gram scan),
- node → element mapping uses the blended WordNet-style similarity
  (:func:`repro.nlp.matching.term_similarity`, which wraps Wu–Palmer),
- ambiguous mappings trigger a clarification request answered by a
  :class:`~repro.core.feedback.ClarificationUser` (the interactive step
  that makes NaLIR "an interactive natural language interface"),
- joins are inferred over the FK graph; nested queries are out of scope
  (the survey credits nesting only to the BI extensions of ATHENA).
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
from repro.nlp.parser import parse_tokens

from .base import AnnotatedQuestion, EntityAnnotator
from .interpreter import InterpreterConfig, SemanticInterpreter


class NalirSystem(NLIDBSystem):
    """Parse-tree mapping with user clarification; join tier."""

    name = "nalir"
    family = "entity"

    def __init__(
        self,
        user: Optional[ClarificationUser] = None,
        clarify: bool = True,
        similarity_threshold: float = 0.75,
    ):
        self.user = user or FirstOptionUser()
        self.clarify = clarify
        self.annotator = EntityAnnotator(
            fuzzy_values=True,
            similarity_threshold=similarity_threshold,
        )
        self.interpreter = SemanticInterpreter(InterpreterConfig.parsing(), self.name)
        self.clarifications_asked = 0

    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        annotated = self.annotator.annotate(question, context)
        annotated = self._restrict_to_parse_chunks(annotated)
        if self.clarify:
            annotated = self._clarify_mappings(annotated)
        return self.interpreter.interpret(annotated, context)

    # -- parse-tree restriction -----------------------------------------------------

    def _restrict_to_parse_chunks(self, annotated: AnnotatedQuestion) -> AnnotatedQuestion:
        """Keep only annotations inside parse-tree NP chunks (plus
        pattern-bearing spans, which NaLIR reads off dependencies)."""
        tree = parse_tokens(annotated.tokens)
        np_spans = []
        for np in tree.noun_phrases():
            if not np.tokens:
                continue
            start = min(t.start for t in np.tokens)
            end = max(t.end for t in np.tokens)
            np_spans.append((start, end))

        def inside_np(ann) -> bool:
            tok_start = annotated.tokens[ann.start].start
            tok_end = annotated.tokens[ann.end - 1].end
            return any(s <= tok_start and tok_end <= e for s, e in np_spans)

        kept = [a for a in annotated.annotations if inside_np(a)]
        return AnnotatedQuestion(
            annotated.question,
            annotated.tokens,
            annotated.patterns,
            kept,
            annotated.candidates,
        )

    # -- clarification --------------------------------------------------------------

    def _clarify_mappings(self, annotated: AnnotatedQuestion) -> AnnotatedQuestion:
        """For each ambiguous node mapping, ask the user to pick."""
        current = annotated
        for annotation in list(annotated.annotations):
            if annotation.kind not in ("property", "value", "concept"):
                continue
            alternatives = annotated.alternatives_for(annotation)
            if not alternatives:
                continue
            options = [ClarificationOption(annotation.describe(), annotation)]
            options.extend(
                ClarificationOption(alt.describe(), alt) for alt in alternatives[:3]
            )
            span_text = " ".join(
                t.text for t in annotated.tokens[annotation.start : annotation.end]
            )
            request = ClarificationRequest(
                f"By {span_text!r}, did you mean:", options, topic=span_text
            )
            self.clarifications_asked += 1
            choice = self.user.choose(request)
            chosen = options[choice].payload
            if chosen != annotation:
                current = current.replace(annotation, chosen)
        return current


register("nalir", NalirSystem)
