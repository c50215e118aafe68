"""Compressed semantic schema index: sub-linear evidence matching.

Every entity-based system in the survey (§4.1) annotates question spans
by scoring them against *every* concept and property surface form in the
ontology, so interpretation cost grows linearly with catalog width —
fine for 5–10-table demo domains, fatal for the hundreds-of-table
enterprise catalogs the survey flags as the deployment reality (§7).

:class:`SchemaIndex` is a precomputed inverted lexicon over the
ontology's concepts/properties/relations (and the raw catalog
table/column identifiers): for every surface form it indexes

- the exact lower-cased form and each of its identifier words,
- their lemmas,
- their synonym-ring expansions (``Thesaurus.ring_mates``),
- their taxonomy expansions (``Thesaurus.taxonomy_mates`` at the
  minimum Wu–Palmer similarity that can still reach threshold), and
- their character trigrams, bucketed for fuzzy hits.

``EntityAnnotator`` consults :meth:`candidate_targets` to prune a span's
candidate set *before* similarity scoring.  The contract is strict: the
pruned set must be a **superset** of every candidate that can reach the
annotator's ``similarity_threshold``, and candidates come back in the
exact brute-force iteration order (concepts in declaration order, each
followed by its properties), so the pruned path produces byte-identical
annotations — same scores, same candidate ordering, same overlap
resolution.

Why the superset holds (per ``term_similarity`` channel, threshold t):

- exact/lemma (score 1.0): the form and its lemma are keys; the lookup
  probes the span word and its lemma.
- synonym (0.95): ``ring_mates`` indexes the raw members of every ring
  that can testify for the form — see its docstring.
- taxonomy (0.8·wup, needs wup ≥ t/0.8): ``taxonomy_mates`` enumerates
  taxonomy nodes with ``wup ≥ t/0.8`` using the *same* ``_wup_canonical``
  math the scorer uses, then expands them through the synonym rings that
  canonicalize onto them.
- fuzzy string (0.9·string_similarity, capped at 0.9·0.99 = 0.891):
  two q-gram arguments gate this channel.  *Zero shared trigrams*: all
  ``L+1`` padded gram positions of the span word fail to occur in the
  form, and one edit (including an OSA transposition) disturbs at most
  4 positions, so ``d ≥ (L+1)/4``; with trigram similarity 0 and prefix
  bonus 0 (a shared first character would already share the padded
  trigram ``"  c"``) the score is at most ``0.81·(1 − d/L) < 0.7`` for
  every L.  Hence words sharing no bucket with a target are safe to
  skip at any threshold ≥ :data:`MIN_THRESHOLD`; below that the
  annotator falls back to brute force.  *T ≥ 1 shared trigrams*: a
  distinct gram of the word that is absent from the form must have all
  its occurrences disturbed by edits, and each edit disturbs ≤ 4
  occurrences, so ``Dq − T ≤ 4d`` (``Dq`` = the word's distinct padded
  grams); together with the length-gap bound ``d ≥ |len(s) − Lq|``
  this caps edit similarity at ``4·Lq / (4·Lq + Dq − T)`` and trigram
  similarity at ``T/Dq``, giving the per-candidate score ceiling
  :func:`_fuzzy_reachable` enforces — candidates whose ceiling misses
  the threshold are pruned *before* scoring.  When the threshold
  exceeds the 0.891 string-channel ceiling the trigram probe is skipped
  entirely (exact/synonym/taxonomy keys alone decide).
- multi-word spans score by ``phrase_similarity`` — the average over the
  form's identifier words of each word's best match — so a phrase hit
  ≥ t implies some (span word, form word) pair ≥ t, and per-word keys
  cover it.

The same structure accelerates fuzzy *value* matching: distinct text
values are bucketed by ``(first character, length)`` — exactly the two
pre-filters the brute-force scan applies — with global ordinals
preserving the tables → text columns → distinct values iteration order,
so the best-candidate tie-break ("first in iteration order wins on
equal score") is replayed identically.

Versioning follows :class:`~repro.sqldb.index.MetadataIndex`: the
lexicon rebuilds when ``Database.catalog_version`` moves, the value
buckets when ``data_version`` moves, and both report build hit/miss
counters through :func:`repro.perf.cache.stats_for` (a served lookup at
an unchanged version is a hit; a version bump is a miss + rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.nlp.lemmatizer import lemmatize
from repro.nlp.similarity import trigrams
from repro.nlp.thesaurus import DEFAULT_THESAURUS, Thesaurus
from repro.ontology.mapping import OntologyMapping
from repro.ontology.model import Ontology
from repro.perf.cache import MISSING, LRUCache, stats_for
from repro.perf.profiler import profile_span
from repro.sqldb.database import Database
from repro.sqldb.index import split_identifier

#: below this similarity threshold the trigram filter's soundness proof
#: no longer holds and annotators must fall back to brute force
MIN_THRESHOLD = 0.7

#: the largest score the fuzzy string channel can produce
#: (``0.9 × min(string_similarity, 0.99)``); thresholds above it never
#: need the trigram probe
FUZZY_CEILING = 0.9 * 0.99


def _fuzzy_reachable(
    threshold: float, length: int, distinct_grams: int, shared: int
) -> bool:
    """Can the fuzzy string channel reach ``threshold`` given the evidence?

    ``length``/``distinct_grams`` describe the span word (chars /
    distinct padded trigrams), ``shared`` how many of those trigrams
    appear anywhere in the candidate target's indexed vocabulary (an
    upper bound on the per-form shared count).  The ceiling combines

    - ``edit ≤ 4L / (4L + Dq − T)``: a distinct word gram missing from
      the form must have every occurrence disturbed, each edit disturbs
      ≤ 4 occurrences (``Dq − T ≤ 4d``), and ``d ≥ |len(form) − L|``
      caps how much a longer form can dilute the gap,
    - ``trigram ≤ T / Dq`` (the union is at least ``Dq``),
    - ``prefix ≤ 1``,

    folded through ``string_similarity``'s blend and ``term_similarity``'s
    0.9 damp.  Strict superset guarantee: the bound only ever
    *over*-estimates the true score, so every candidate that can reach
    the threshold survives (the 1e-9 slack absorbs float rounding when
    the ceiling is attained exactly).
    """
    gap = distinct_grams - shared
    if gap <= 0:
        return True
    e_max = 4.0 * length / (4.0 * length + gap)
    g_max = min(1.0, shared / distinct_grams) if distinct_grams else 1.0
    blended = 0.5 * e_max + 0.4 * g_max + 0.1
    bound = 0.9 * min(0.99, max(blended, 0.9 * e_max))
    return bound >= threshold - 1e-9


@dataclass
class PruningCounters:
    """How much candidate work the index removed (superset-pruned)."""

    #: metadata spans looked up
    spans: int = 0
    #: concept/property targets a brute-force pass would have scored
    considered: int = 0
    #: targets actually handed back for scoring
    scored: int = 0
    #: fuzzy-value tokens looked up
    value_tokens: int = 0
    #: distinct values a brute-force scan would have visited
    value_considered: int = 0
    #: bucket entries actually handed back
    value_scored: int = 0

    @property
    def pruned(self) -> int:
        """Metadata candidates skipped without scoring."""
        return self.considered - self.scored

    @property
    def pruning_ratio(self) -> float:
        """Fraction of brute-force metadata candidates skipped."""
        return self.pruned / self.considered if self.considered else 0.0

    def snapshot(self) -> "PruningCounters":
        return PruningCounters(
            self.spans,
            self.considered,
            self.scored,
            self.value_tokens,
            self.value_considered,
            self.value_scored,
        )

    def delta(self, since: "PruningCounters") -> "PruningCounters":
        return PruningCounters(
            self.spans - since.spans,
            self.considered - since.considered,
            self.scored - since.scored,
            self.value_tokens - since.value_tokens,
            self.value_considered - since.value_considered,
            self.value_scored - since.value_scored,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "considered": self.considered,
            "scored": self.scored,
            "pruned": self.pruned,
            "pruning_ratio": round(self.pruning_ratio, 4),
            "value_tokens": self.value_tokens,
            "value_considered": self.value_considered,
            "value_scored": self.value_scored,
        }


#: one fuzzy-value bucket entry: (ordinal, table, column, value, str(value))
ValueEntry = Tuple[int, str, str, Any, str]


class SchemaIndex:
    """Inverted lexicon + fuzzy buckets over one context's schema."""

    def __init__(
        self,
        ontology: Ontology,
        thesaurus: Optional[Thesaurus] = None,
        database: Optional[Database] = None,
        mapping: Optional[OntologyMapping] = None,
    ):
        self.ontology = ontology
        self.thesaurus = thesaurus or DEFAULT_THESAURUS
        self.database = database
        self.mapping = mapping
        #: superset-pruning counters, observable by the bench harness
        self.pruning = PruningCounters()
        self._build_stats = stats_for("schema_index.lexicon")
        self._value_stats = stats_for("schema_index.values")
        # lexicon state (built lazily, versioned on catalog_version)
        self._targets: List[Tuple[str, Any]] = []
        self._n_metadata = 0
        self._exact: Optional[Dict[str, Set[int]]] = None
        self._trigram: Dict[str, Set[int]] = {}
        self._built_catalog_version: Optional[int] = None
        # span words repeat across overlapping windows and questions;
        # memoize word → admissible metadata ordinals per threshold
        self._lookup_memo = LRUCache(maxsize=8192, stats=stats_for("schema_index.lookup"))
        # fuzzy-value state (built lazily, versioned on data_version)
        self._value_buckets: Optional[Dict[Tuple[str, int], List[ValueEntry]]] = None
        self._n_values = 0
        self._built_data_version: Optional[int] = None

    # -- public API -----------------------------------------------------------

    @staticmethod
    def supports_threshold(threshold: float) -> bool:
        """Whether the trigram filter's soundness proof covers ``threshold``."""
        return threshold >= MIN_THRESHOLD

    @property
    def metadata_targets(self) -> int:
        """Number of concept + property targets (the brute-force loop size)."""
        self._ensure_lexicon()
        return self._n_metadata

    def candidate_targets(
        self, words: Sequence[str], threshold: float
    ) -> List[Tuple[str, Any]]:
        """Ordered ``(kind, element)`` candidates for one metadata span.

        Guaranteed to be a superset of every concept/property whose
        surface score can reach ``threshold`` (which must be ≥
        :data:`MIN_THRESHOLD`), in brute-force iteration order.
        """
        self._ensure_lexicon()
        allowed: Set[int] = set()
        for word in words:
            allowed |= self._word_ordinals(word, threshold)
        ordinals = sorted(allowed)
        self.pruning.spans += 1
        self.pruning.considered += self._n_metadata
        self.pruning.scored += len(ordinals)
        return [self._targets[i] for i in ordinals]

    def _word_ordinals(self, word: str, threshold: float) -> frozenset:
        """Admissible metadata ordinals for one span word (memoized)."""
        key = (word, threshold)
        cached = self._lookup_memo.get(key, MISSING)
        if cached is not MISSING:
            return cached
        exact = self._exact
        assert exact is not None
        n_meta = self._n_metadata
        allowed: Set[int] = set()
        hit = exact.get(word)
        if hit:
            allowed.update(i for i in hit if i < n_meta)
        lemma = lemmatize(word)
        if lemma != word:
            hit = exact.get(lemma)
            if hit:
                allowed.update(i for i in hit if i < n_meta)
        if threshold <= FUZZY_CEILING:
            grams = trigrams(word)
            counts: Dict[int, int] = {}
            for gram in grams:
                bucket = self._trigram.get(gram)
                if bucket:
                    for i in bucket:
                        if i < n_meta and i not in allowed:
                            counts[i] = counts.get(i, 0) + 1
            length = max(1, len(word))
            distinct = len(grams)
            for i, shared in counts.items():
                if _fuzzy_reachable(threshold, length, distinct, shared):
                    allowed.add(i)
        out = frozenset(allowed)
        self._lookup_memo.put(key, out)
        return out

    def lookup(self, word: str, kinds: Optional[Set[str]] = None) -> List[Tuple[str, Any]]:
        """All indexed targets (any kind) reachable from one word.

        General lexicon access for non-annotator clients; ``kinds``
        filters to e.g. ``{"relation", "table", "column"}``.
        """
        self._ensure_lexicon()
        exact = self._exact
        assert exact is not None
        allowed: Set[int] = set()
        for key in (word, lemmatize(word)):
            hit = exact.get(key)
            if hit:
                allowed.update(hit)
        for gram in trigrams(word):
            bucket = self._trigram.get(gram)
            if bucket:
                allowed.update(bucket)
        out = [self._targets[i] for i in sorted(allowed)]
        if kinds is not None:
            out = [t for t in out if t[0] in kinds]
        return out

    def fuzzy_value_pool(self, word: str) -> List[ValueEntry]:
        """Bucketed candidates for one fuzzy value token, in the global
        tables → text columns → distinct values iteration order.

        Buckets replicate the brute-force scan's two pre-filters
        (``|len(text) − len(word)| ≤ 3`` and equal first character), so
        replaying the score comparison over this pool reproduces the
        brute-force best candidate exactly, tie-breaks included.
        """
        self._ensure_values()
        buckets = self._value_buckets
        assert buckets is not None
        first = word[:1]
        pools = []
        for length in range(max(1, len(word) - 3), len(word) + 4):
            bucket = buckets.get((first, length))
            if bucket:
                pools.append(bucket)
        self.pruning.value_tokens += 1
        self.pruning.value_considered += self._n_values
        if not pools:
            return []
        if len(pools) == 1:
            merged = pools[0]
        else:
            merged = []
            for pool in pools:
                merged.extend(pool)
            merged.sort(key=lambda entry: entry[0])
        self.pruning.value_scored += len(merged)
        return merged

    # -- lexicon construction --------------------------------------------------

    def _ensure_lexicon(self) -> None:
        version = self.database.catalog_version if self.database is not None else 0
        if self._exact is not None and version == self._built_catalog_version:
            self._build_stats.hits += 1
            return
        self._build_stats.misses += 1
        with profile_span("schema_index"):
            self._build_lexicon()
        self._built_catalog_version = version
        self._build_stats.puts += 1

    def _build_lexicon(self) -> None:
        self._targets = []
        self._exact = {}
        self._trigram = {}
        self._lookup_memo.clear()
        # metadata targets first, in exactly the annotator's brute-force
        # iteration order: each concept, then its properties
        for concept in self.ontology.concepts.values():
            self._add_target("concept", concept, concept.surface_forms())
            for prop in concept.properties.values():
                self._add_target("property", prop, prop.surface_forms())
        self._n_metadata = len(self._targets)
        for relation in self.ontology.relations:
            self._add_target("relation", relation, relation.surface_forms())
        if self.database is not None:
            for table in self.database.tables:
                self._add_target("table", table.name, {table.name.lower()})
                for column in table.schema:
                    self._add_target(
                        "column",
                        (table.name, column.name),
                        {column.name.lower()},
                    )

    def _add_target(self, kind: str, element: Any, forms: Set[str]) -> None:
        ordinal = len(self._targets)
        self._targets.append((kind, element))
        for form in forms:
            self._index_form(ordinal, form)

    def _index_form(self, ordinal: int, form: str) -> None:
        # the whole form is a matching unit (single-word spans score
        # against it directly), and so is each identifier word (phrase
        # scoring aligns span words against them)
        units = {form.lower().strip()}
        units.update(split_identifier(form) or [form.lower()])
        exact = self._exact
        assert exact is not None
        for term in units:
            if not term:
                continue
            for key in self._term_keys(term):
                exact.setdefault(key, set()).add(ordinal)
            for gram in trigrams(term):
                self._trigram.setdefault(gram, set()).add(ordinal)

    def _term_keys(self, term: str) -> Set[str]:
        keys = {term, lemmatize(term)}
        keys |= self.thesaurus.ring_mates(term)
        keys |= self.thesaurus.taxonomy_mates(term, MIN_THRESHOLD / 0.8)
        return keys

    # -- fuzzy-value buckets ---------------------------------------------------

    def _ensure_values(self) -> None:
        if self.database is None:
            if self._value_buckets is None:
                self._value_buckets = {}
            return
        version = self.database.data_version
        if self._value_buckets is not None and version == self._built_data_version:
            self._value_stats.hits += 1
            return
        self._value_stats.misses += 1
        with profile_span("schema_index"):
            self._build_values()
        self._built_data_version = version
        self._value_stats.puts += 1

    def _build_values(self) -> None:
        assert self.database is not None
        buckets: Dict[Tuple[str, int], List[ValueEntry]] = {}
        ordinal = 0
        count = 0
        for table in self.database.tables:
            for column in table.schema.text_columns():
                if (
                    self.mapping is not None
                    and self.mapping.property_for_column(table.name, column.name) is None
                ):
                    # the annotator skips unmapped columns before scoring
                    continue
                for value in table.distinct_values(column.name):
                    text = str(value)
                    key = (text[:1].lower(), len(text))
                    buckets.setdefault(key, []).append(
                        (ordinal, table.name, column.name, value, text)
                    )
                    ordinal += 1
                    count += 1
        self._value_buckets = buckets
        self._n_values = count
