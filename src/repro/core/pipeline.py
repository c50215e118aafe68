"""The system interface and per-database interpretation context.

`NLIDBSystem` is the single interface every surveyed approach implements
in this reproduction — the survey's own framing (§4: systems differ in
*interpretation method*, not in what they must produce).  The
:class:`NLIDBContext` bundles the per-database resources interpretation
needs (value index, ontology, reasoner) so they are built once and
shared by all systems under comparison.

:meth:`NLIDBContext.run_best` is the one place a system's candidate list
becomes an answer: static-analysis pruning, then the best survivor runs.
``NLIDBSystem.answer``, the serving layer and ``repro ask`` all call it.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.nlp.thesaurus import DEFAULT_THESAURUS
from repro.ontology.builder import build_ontology
from repro.ontology.reasoner import Reasoner
from repro.perf.profiler import profile_stage
from repro.sqldb.database import Database
from repro.sqldb.executor import Executor
from repro.sqldb.index import ValueIndex
from repro.sqldb.relation import Relation

from .errors import NoAnswer
from .interpretation import Interpretation
from .ranking import apply_static_analysis
from .schema_index import PruningCounters, SchemaIndex


class NLIDBContext:
    """Shared per-database resources for interpretation.

    Building the value index and the ontology is linear in the data; the
    context makes that a one-time cost per database, mirroring how real
    systems build their indexes offline.  The context builds its own
    ontology (with its mapping) from the database and its own thesaurus
    (the default one plus the schema's declared synonyms), and neither
    changes after construction.  Metadata lookups go through the schema
    index (or the annotator's brute-force scan), data lookups through
    ``value_index``.
    """

    def __init__(self, database: Database, use_schema_index: bool = True):
        self.database = database
        self.value_index = ValueIndex(database)
        self.ontology, self.mapping = build_ontology(database)
        self.reasoner = Reasoner(self.ontology, self.mapping)
        self.thesaurus = DEFAULT_THESAURUS
        self.executor = Executor(database)
        #: per-query ExecutionStats of the most recent execute() call
        self.last_stats = None
        #: escape hatch: ``False`` forces brute-force evidence matching
        self.use_schema_index = use_schema_index
        self._schema_index: Optional[SchemaIndex] = None
        self._register_schema_synonyms()

    def _register_schema_synonyms(self) -> None:
        """Feed schema-declared synonyms into the thesaurus so string
        and semantic matching agree with the catalog.

        The thesaurus is copied before the first mutation (copy-on-write):
        contexts usually share the module-level ``DEFAULT_THESAURUS``, and
        registering one database's synonyms into it would leak them into
        every other context in the process.
        """
        rings = []
        for table in self.database.tables:
            if table.schema.synonyms:
                rings.append([table.name, *table.schema.synonyms])
            for column in table.schema:
                if column.synonyms:
                    rings.append([column.name, *column.synonyms])
        if not rings:
            return
        self.thesaurus = self.thesaurus.copy()
        for ring in rings:
            self.thesaurus.add_synonyms(ring)

    @property
    def schema_index(self) -> Optional[SchemaIndex]:
        """The context's compressed schema index, or ``None`` when the
        ``use_schema_index`` escape hatch disabled it.

        Built lazily on first access.  Its lexicon is built once: the
        context's ontology and thesaurus do not change after
        construction.  Its value buckets rebuild when ``data_version``
        moves, so fuzzy value matching sees new rows.
        """
        if not self.use_schema_index:
            return None
        if self._schema_index is None:
            self._schema_index = SchemaIndex(
                self.ontology, self.thesaurus, self.database, self.mapping
            )
        return self._schema_index

    def schema_index_counters(self) -> Optional[PruningCounters]:
        """Live pruning counters, or ``None`` while no index exists yet.

        Deliberately does *not* build the index — the harness peeks at
        this around every example to attribute pruning deltas.
        """
        if not self.use_schema_index or self._schema_index is None:
            return None
        return self._schema_index.pruning

    def interpret(self, system: "NLIDBSystem", question: str) -> List[Interpretation]:
        """Run ``system``'s interpretation of ``question`` in this context."""
        return system.interpret(question, self)

    def execute(self, interpretation: Interpretation) -> Relation:
        """Compile (if needed) and run an interpretation.

        The executed query's counters land in ``self.last_stats``
        (:class:`~repro.sqldb.planner.ExecutionStats`).
        """
        with profile_stage("compile"):
            stmt = interpretation.to_sql(self.ontology, self.mapping)
        with profile_stage("execute"):
            result = self.executor.execute(stmt)
        self.last_stats = self.executor.last_stats
        return result

    def analyze(self, interpretation: Interpretation):
        """Static-analyzer verdict on an interpretation's compiled SQL.

        Returns the executor's cached
        :class:`~repro.sqldb.analyzer.AnalysisResult`, or ``None`` when
        the interpretation cannot be compiled at all (nothing to
        analyze).  No rows are touched.
        """
        try:
            stmt = interpretation.to_sql(self.ontology, self.mapping)
        except Exception:
            return None
        return self.executor.analysis_for(stmt)

    def run_best(
        self, system: "NLIDBSystem", interpretations: List[Interpretation]
    ) -> Tuple[Interpretation, Relation]:
        """Answer with the best statically valid candidate.

        Candidates whose compiled SQL fails semantic analysis are pruned
        and warned ones penalized (:func:`apply_static_analysis`); the
        executor pre-flight would reject the pruned ones anyway, so a
        lower-ranked but valid reading can still answer.  Returns the
        executed candidate (its compiled statement cached on it) and its
        result.  Raises :class:`~repro.core.errors.NoAnswer` when the
        list is empty or nothing survives; compile and execution errors
        propagate.
        """
        if not interpretations:
            raise NoAnswer(system.name, "no interpretation")
        candidates = apply_static_analysis(interpretations, self.analyze)
        if not candidates:
            raise NoAnswer(system.name, "no statically valid interpretation")
        return candidates[0], self.execute(candidates[0])


class NLIDBSystem(abc.ABC):
    """Base class for every NLIDB system in the reproduction.

    A system implements only :meth:`interpret`; choosing and running the
    best candidate is the context's :meth:`NLIDBContext.run_best`, shared
    with the serving layer and ``repro ask``.
    """

    #: short identifier used in benchmark tables
    name: str = "base"
    #: which interpretation family the survey places this system in
    family: str = "entity"  # "entity" | "ml" | "hybrid"

    @abc.abstractmethod
    def interpret(self, question: str, context: NLIDBContext) -> List[Interpretation]:
        """Produce ranked candidate interpretations for ``question``.

        An empty list means the system cannot interpret the question at
        all (counted as abstention by the precision/recall metrics).
        """

    def answer(self, question: str, context: NLIDBContext) -> Optional[Relation]:
        """Interpret ``question`` and run the best *statically valid*
        candidate through :meth:`NLIDBContext.run_best`.

        Returns ``None`` when the system abstains (no candidate, or none
        survives static analysis) or the chosen one fails to compile or
        execute.
        """
        interpretations = context.interpret(self, question)
        try:
            return context.run_best(self, interpretations)[1]
        except Exception:
            return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} family={self.family!r}>"
