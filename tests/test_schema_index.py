"""Schema index: byte-identity with brute force, versioning, pruning.

The index's contract is a *proof obligation*, not a heuristic: pruned
annotation must equal brute-force annotation exactly — same spans, same
scores, same candidate ordering — for every registered system, on every
domain, through the fuzzy-value and thesaurus-expansion paths.  These
tests check the contract differentially (seeded hypothesis typo
generation included), plus the escape hatches, version invalidation,
catalog generator determinism, and the harness's pruning columns.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.systems  # noqa: F401  (imported to populate the registry)
from repro.bench.catalog_gen import build_wide_catalog
from repro.bench.domains import build_domain, domain_names
from repro.bench.workload_gen import build_telemetry_db
from repro.bench.workloads import WorkloadGenerator
from repro.core.pipeline import NLIDBContext
from repro.core.registry import available, create
from repro.core.schema_index import (
    FUZZY_CEILING,
    MIN_THRESHOLD,
    SchemaIndex,
    _fuzzy_reachable,
)
from repro.core.evidence import EvidenceAnnotation, resolve_overlaps
from repro.sqldb import Column, DataType, TableSchema
from repro.systems.base import EntityAnnotator

#: probes exercising the paths clean workloads rarely take: fuzzy
#: values, fuzzy schema words, synonym rings, taxonomy phrasings
PROBES = [
    "show customers in Berlni",
    "list the empolyees with highest pay",
    "total compensation by division",
    "average salery of staff",
    "workers per department",
    "films released after 2000",
]


def annotator_systems():
    out = []
    for name in available():
        annotator = getattr(create(name), "annotator", None)
        if annotator is not None:
            out.append((name, annotator))
    return out


def contexts_for(db):
    return NLIDBContext(db), NLIDBContext(db, use_schema_index=False)


def questions_for(db, per_tier=2):
    generated = WorkloadGenerator(db, seed=7).generate_mixed(per_tier)
    return [example.question for example in generated] + PROBES


def assert_identity(db, questions, systems=None):
    indexed, brute = contexts_for(db)
    for name, annotator in systems or annotator_systems():
        for question in questions:
            a = annotator.annotate(question, indexed)
            b = annotator.annotate(question, brute)
            assert a == b, (name, question)


# -- identity: every system, every demo domain + telemetry + wide catalog ------


@pytest.mark.parametrize("domain", domain_names())
def test_identity_demo_domain(domain):
    db = build_domain(domain, seed=3)
    assert_identity(db, questions_for(db))


def test_identity_telemetry_db():
    """The eighth demo database (the P6 telemetry workload's)."""
    db = build_telemetry_db(n_rows=500, seed=0)
    questions = PROBES + [
        "average duration_ms by region",
        "count events with status error",
    ]
    assert_identity(db, questions)


def test_identity_wide_catalog_100():
    db = build_wide_catalog(100, seed=1)
    assert_identity(db, questions_for(db, per_tier=1))


# -- identity under seeded hypothesis typo generation --------------------------

_VOCAB = [
    "employees", "employee", "department", "salary", "name", "city",
    "customers", "orders", "price", "compensation", "division", "staff",
    "berlin", "hamburg", "highest", "average", "total", "show", "with",
]


@st.composite
def typo_words(draw):
    word = draw(st.sampled_from(_VOCAB))
    mode = draw(st.integers(min_value=0, max_value=3))
    if mode == 0 or len(word) < 4:
        return word
    i = draw(st.integers(min_value=1, max_value=len(word) - 2))
    if mode == 1:  # deletion
        return word[:i] + word[i + 1:]
    if mode == 2:  # transposition
        return word[:i] + word[i + 1] + word[i] + word[i + 2:]
    ch = draw(st.sampled_from("aeiort"))  # substitution
    return word[:i] + ch + word[i + 1:]


class TestHypothesisIdentity:
    DB = build_domain("hr", seed=3)
    INDEXED = NLIDBContext(DB)
    BRUTE = NLIDBContext(DB, use_schema_index=False)
    #: thresholds spanning the soundness floor, the fuzzy band and the
    #: above-ceiling band (trigram probe skipped entirely)
    ANNOTATORS = [
        EntityAnnotator(similarity_threshold=0.7),
        EntityAnnotator(similarity_threshold=0.85),
        EntityAnnotator(similarity_threshold=0.95),
    ]

    @given(st.lists(typo_words(), min_size=1, max_size=5))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_indexed_equals_brute(self, words):
        question = " ".join(words)
        for annotator in self.ANNOTATORS:
            a = annotator.annotate(question, self.INDEXED)
            b = annotator.annotate(question, self.BRUTE)
            assert a == b, (annotator.similarity_threshold, question)


# -- escape hatches ------------------------------------------------------------


def test_context_escape_hatch():
    db = build_domain("retail", seed=0)
    context = NLIDBContext(db, use_schema_index=False)
    assert context.schema_index is None
    assert context.schema_index_counters() is None


def test_annotator_escape_hatch():
    db = build_domain("retail", seed=0)
    context = NLIDBContext(db)
    brute = NLIDBContext(db, use_schema_index=False)
    annotator = EntityAnnotator()
    assert annotator._index_for(brute) is None
    # still annotates identically, just brute-force
    for question in PROBES:
        assert annotator.annotate(question, brute) == annotator.annotate(question, context)


def test_low_threshold_falls_back_to_brute_force():
    assert not SchemaIndex.supports_threshold(0.69)
    assert SchemaIndex.supports_threshold(MIN_THRESHOLD)
    db = build_domain("retail", seed=0)
    context = NLIDBContext(db)
    low = EntityAnnotator(similarity_threshold=0.5)
    assert low._index_for(context) is None
    brute = NLIDBContext(db, use_schema_index=False)
    for question in PROBES:
        assert low.annotate(question, context) == low.annotate(question, brute)


# -- versioned invalidation ----------------------------------------------------


def test_lexicon_invalidates_on_catalog_change():
    db = build_domain("retail", seed=0)
    context = NLIDBContext(db)
    index = context.schema_index
    before = index.metadata_targets
    db.create_table(
        TableSchema(
            "warehouses",
            [
                Column("id", DataType.INTEGER, primary_key=True),
                Column("warehouse_label", DataType.TEXT),
            ],
        )
    )
    # the context's ontology does not change, but the catalog targets do
    after = index.metadata_targets
    assert after == before  # ontology targets unchanged...
    assert ("table", "warehouses") in index.lookup("warehouses", kinds={"table"})


def test_value_buckets_invalidate_on_data_change():
    db = build_domain("retail", seed=0)
    context = NLIDBContext(db)
    index = context.schema_index
    pool_before = {entry[4] for entry in index.fuzzy_value_pool("zanzibar")}
    assert "Zanzibar" not in pool_before
    table = db.tables[0]
    text_pos = next(
        i for i, c in enumerate(table.schema) if c.dtype == DataType.TEXT
    )
    row = list(table.rows[0])
    row[text_pos] = "Zanzibar"
    if list(table.schema)[0].primary_key:
        row[0] = max(r[0] for r in table.rows) + 1
    db.insert(table.name, row)
    pool_after = {entry[4] for entry in index.fuzzy_value_pool("zanzibar")}
    assert "Zanzibar" in pool_after


# -- pruning counters and the fuzzy bound --------------------------------------


def test_pruning_counters_advance():
    db = build_wide_catalog(30, seed=2)
    context = NLIDBContext(db)
    annotator = EntityAnnotator()
    for question in PROBES:
        annotator.annotate(question, context)
    counters = context.schema_index_counters()
    assert counters.spans > 0
    assert counters.scored <= counters.considered
    assert counters.pruned > 0
    assert 0.0 < counters.pruning_ratio <= 1.0
    snap = counters.snapshot()
    annotator.annotate(PROBES[0], context)
    delta = counters.delta(snap)
    assert delta.spans > 0
    assert delta.considered == delta.scored + delta.pruned


def test_fuzzy_reachable_bound_is_monotone():
    # more shared trigrams can only widen what is reachable
    for threshold in (MIN_THRESHOLD, 0.75, 0.85, FUZZY_CEILING):
        reachable = [
            _fuzzy_reachable(threshold, 8, 9, shared) for shared in range(10)
        ]
        assert reachable == sorted(reachable)  # False ... True
        assert reachable[-1]  # shared == distinct is always reachable
    # a full-overlap word is reachable even at the ceiling
    assert _fuzzy_reachable(FUZZY_CEILING, 4, 5, 5)


# -- harness integration -------------------------------------------------------


def test_harness_reports_pruning_and_latency_columns():
    from repro.bench.harness import evaluate_system, rows_for_outcomes

    db = build_domain("hr", seed=0)
    context = NLIDBContext(db)
    examples = WorkloadGenerator(db, seed=0).generate_mixed(1)
    outcomes = evaluate_system(create("athena"), context, examples)
    assert all(o.interp_ms is not None for o in outcomes)
    assert any(o.cand_pruned for o in outcomes)
    rows = rows_for_outcomes("athena", outcomes)
    row = rows[-1].as_dict()
    assert row["cand_pruned"] == sum(o.cand_pruned for o in outcomes)
    assert row["interp_p50"] != "" and row["interp_p95"] != ""
    # measurements are about the run, not of it: excluded from equality
    brute_context = NLIDBContext(db, use_schema_index=False)
    brute_outcomes = evaluate_system(create("athena"), brute_context, examples)
    assert outcomes == brute_outcomes
    assert all(o.cand_pruned is None for o in brute_outcomes)


# -- wide-catalog generator ----------------------------------------------------


def test_wide_catalog_width_and_determinism():
    with pytest.raises(ValueError):
        build_wide_catalog(0)
    a = build_wide_catalog(25, seed=4)
    b = build_wide_catalog(25, seed=4)
    assert len(a.tables) == 25
    def fingerprint(db):
        # Column is a frozen dataclass (value equality); TableSchema is
        # not, so compare (name, columns, synonyms, rows) explicitly
        return [
            (t.name, t.schema.columns, t.schema.synonyms, t.rows) for t in db.tables
        ]

    assert fingerprint(a) == fingerprint(b)
    assert a.foreign_keys == b.foreign_keys
    other = build_wide_catalog(25, seed=5)
    assert [(t.name, t.rows) for t in other.tables] != [
        (t.name, t.rows) for t in a.tables
    ]


def test_wide_catalog_overlapping_columns():
    db = build_wide_catalog(40, seed=0)
    names = [c.name for t in db.tables for c in t.schema]
    assert len(set(names)) < len(names)  # replicas share column vocabulary


# -- resolve_overlaps: covered-set fast path == quadratic reference ------------


def _resolve_reference(annotations):
    """The previous O(kept^2) implementation, kept as the oracle."""
    def composite(a):
        return a.score + 0.05 * (a.end - a.start - 1)

    ranked = sorted(
        annotations, key=lambda a: (-composite(a), a.start, a.kind, a.target)
    )
    kept = []
    for ann in ranked:
        if any(ann.overlaps(k) for k in kept):
            continue
        kept.append(ann)
    kept.sort(key=lambda a: a.start)
    return kept


@st.composite
def annotation_lists(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    out = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=9))
        end = draw(st.integers(min_value=start + 1, max_value=start + 4))
        out.append(
            EvidenceAnnotation(
                start=start,
                end=end,
                kind=draw(st.sampled_from(["concept", "property", "value"])),
                target=draw(st.sampled_from(["a.b", "c.d", "e.f", "g.h"])),
                score=draw(
                    st.floats(min_value=0.1, max_value=1.0, allow_nan=False)
                ),
            )
        )
    return out


@given(annotation_lists())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_resolve_overlaps_matches_reference(annotations):
    assert resolve_overlaps(annotations) == _resolve_reference(annotations)
