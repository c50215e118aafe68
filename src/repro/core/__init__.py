"""Core NLIDB framework: the survey's unifying frame, as code.

- :mod:`~repro.core.evidence` — span → element annotations shared by all
  entity-based systems.
- :mod:`~repro.core.intermediate` — OQL, the ontology-level intermediate
  query language (ATHENA-style), with compilation to SQL.
- :mod:`~repro.core.interpretation` — ranked candidate interpretations.
- :mod:`~repro.core.complexity` — the §3 four-tier query taxonomy.
- :mod:`~repro.core.ranking` — evidence × coverage interpretation scoring.
- :mod:`~repro.core.pipeline` — the ``NLIDBSystem`` interface and the
  per-database ``NLIDBContext``.
- :mod:`~repro.core.feedback` — clarification protocol + simulated users.
- :mod:`~repro.core.registry` — named system factories for the harness.
"""

from .complexity import ComplexityTier, classify, spider_hardness, tier_at_most
from .errors import CompilationError, InterpretationError, NLIDBError, NoAnswer
from .evidence import EvidenceAnnotation, coverage, covered_tokens, resolve_overlaps
from .feedback import (
    ClarificationOption,
    ClarificationRequest,
    ClarificationUser,
    FirstOptionUser,
    ScriptedUser,
    SimulatedOracle,
)
from .intermediate import (
    OQLCompiler,
    OQLCondition,
    OQLHasCondition,
    OQLItem,
    OQLOrder,
    OQLQuery,
    PropertyRef,
    compile_oql,
)
from .interpretation import Interpretation, best
from .pipeline import NLIDBContext, NLIDBSystem
from .ranking import (
    apply_static_analysis,
    content_indices,
    evidence_score,
    rank,
    score_interpretation,
)
from .registry import available, create, register, registered

__all__ = [
    "ComplexityTier", "classify", "tier_at_most", "spider_hardness",
    "NLIDBError", "InterpretationError", "CompilationError", "NoAnswer",
    "EvidenceAnnotation", "coverage", "covered_tokens", "resolve_overlaps",
    "OQLQuery", "OQLItem", "OQLCondition", "OQLHasCondition", "OQLOrder", "PropertyRef",
    "OQLCompiler", "compile_oql",
    "Interpretation", "best",
    "NLIDBContext", "NLIDBSystem",
    "rank", "score_interpretation", "evidence_score", "content_indices",
    "apply_static_analysis",
    "ClarificationRequest", "ClarificationOption", "ClarificationUser",
    "FirstOptionUser", "ScriptedUser", "SimulatedOracle",
    "register", "create", "available", "registered",
]
