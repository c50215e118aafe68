"""Ontology model: concepts, data properties, and relations.

ATHENA [44] interprets questions against a *domain ontology* that
abstracts the backend database: concepts (entity types) with data
properties (attributes) connected by named relations, optionally arranged
in an inheritance hierarchy.  The ontology also carries the domain
vocabulary (synonyms per element), which is what makes entity-based
systems easy to enrich with domain knowledge (§4.1 of the survey).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.sqldb.types import DataType


class OntologyError(Exception):
    """Raised for inconsistent ontology definitions or unknown elements."""


class _Named:
    """The surface forms shared by every ontology element: its name and
    synonyms, lower-cased.  Elements are not renamed once built, so the
    set is computed on first use and kept."""

    name: str
    synonyms: Tuple[str, ...]

    def surface_forms(self) -> FrozenSet[str]:
        """All names this element answers to (lower-cased)."""
        forms = self.__dict__.get("_surface_forms")
        if forms is None:
            forms = frozenset((self.name.lower(), *(s.lower() for s in self.synonyms)))
            self.__dict__["_surface_forms"] = forms
        return forms


@dataclass
class DataProperty(_Named):
    """An attribute of a concept (maps to a table column)."""

    name: str
    concept: str
    dtype: DataType
    synonyms: Tuple[str, ...] = ()


@dataclass
class Relation(_Named):
    """A named, directed relation between two concepts."""

    name: str
    src: str
    dst: str
    synonyms: Tuple[str, ...] = ()
    functional: bool = False  # src has at most one dst (N:1)


@dataclass
class Concept(_Named):
    """An entity type with attributes and an optional parent concept."""

    name: str
    synonyms: Tuple[str, ...] = ()
    parent: Optional[str] = None
    properties: Dict[str, DataProperty] = field(default_factory=dict)

    def property(self, name: str) -> DataProperty:
        """Look up one data property (case-insensitive)."""
        prop = self.properties.get(name.lower())
        if prop is None:
            raise OntologyError(f"concept {self.name!r} has no property {name!r}")
        return prop


class Ontology:
    """A domain ontology: concepts + relations + inheritance."""

    def __init__(self, name: str = "ontology"):
        self.name = name
        self.concepts: Dict[str, Concept] = {}
        self.relations: List[Relation] = []
        #: bumped by every mutation that changes the relation graph
        #: (``add_concept``, ``add_relation``); :meth:`graph` keys on it
        self.version = 0
        self._graphs: Optional[Tuple[int, nx.MultiGraph, nx.Graph]] = None

    # -- construction -----------------------------------------------------------

    def add_concept(
        self,
        name: str,
        synonyms: Iterable[str] = (),
        parent: Optional[str] = None,
    ) -> Concept:
        """Register a concept; raises on duplicates or missing parent."""
        key = name.lower()
        if key in self.concepts:
            raise OntologyError(f"concept {name!r} already defined")
        if parent is not None and parent.lower() not in self.concepts:
            raise OntologyError(f"parent concept {parent!r} not defined")
        concept = Concept(name, tuple(synonyms), parent)
        self.concepts[key] = concept
        self.version += 1
        return concept

    def add_property(
        self,
        concept: str,
        name: str,
        dtype: DataType,
        synonyms: Iterable[str] = (),
    ) -> DataProperty:
        """Attach a data property to ``concept``."""
        owner = self.concept(concept)
        prop = DataProperty(name, owner.name, dtype, tuple(synonyms))
        owner.properties[name.lower()] = prop
        return prop

    def add_relation(
        self,
        name: str,
        src: str,
        dst: str,
        synonyms: Iterable[str] = (),
        functional: bool = False,
    ) -> Relation:
        """Add a directed relation ``src -> dst``."""
        relation = Relation(
            name, self.concept(src).name, self.concept(dst).name, tuple(synonyms), functional
        )
        self.relations.append(relation)
        self.version += 1
        return relation

    # -- lookup ---------------------------------------------------------------

    def concept(self, name: str) -> Concept:
        """Look up a concept by exact name (case-insensitive)."""
        concept = self.concepts.get(name.lower())
        if concept is None:
            raise OntologyError(f"no concept named {name!r}")
        return concept

    def has_concept(self, name: str) -> bool:
        """Whether a concept named ``name`` exists."""
        return name.lower() in self.concepts

    def all_properties(self) -> List[DataProperty]:
        """Every data property across all concepts."""
        out: List[DataProperty] = []
        for concept in self.concepts.values():
            out.extend(concept.properties.values())
        return out

    def find_concepts(self, surface: str) -> List[Concept]:
        """Concepts whose name or synonyms match ``surface`` exactly."""
        s = surface.lower()
        return [c for c in self.concepts.values() if s in c.surface_forms()]

    def find_properties(self, surface: str) -> List[DataProperty]:
        """Properties (of any concept) matching ``surface`` exactly."""
        s = surface.lower()
        return [p for p in self.all_properties() if s in p.surface_forms()]

    # -- hierarchy ----------------------------------------------------------------

    def ancestors(self, concept: str) -> List[str]:
        """Parent chain of ``concept``, nearest first."""
        chain: List[str] = []
        current = self.concept(concept)
        seen = {current.name.lower()}
        while current.parent:
            parent_key = current.parent.lower()
            if parent_key in seen:
                break  # defensive: cycles
            chain.append(self.concept(parent_key).name)
            seen.add(parent_key)
            current = self.concept(parent_key)
        return chain

    def descendants(self, concept: str) -> List[str]:
        """All concepts that (transitively) inherit from ``concept``."""
        target = self.concept(concept).name
        out = []
        for other in self.concepts.values():
            if other.name != target and target in self.ancestors(other.name):
                out.append(other.name)
        return out

    def is_a(self, child: str, parent: str) -> bool:
        """Whether ``child`` equals or inherits from ``parent``."""
        child_name = self.concept(child).name
        parent_name = self.concept(parent).name
        return child_name == parent_name or parent_name in self.ancestors(child_name)

    def inherited_properties(self, concept: str) -> List[DataProperty]:
        """Own plus inherited data properties, own first."""
        own = list(self.concept(concept).properties.values())
        for ancestor in self.ancestors(concept):
            own.extend(self.concept(ancestor).properties.values())
        return own

    # -- graph ---------------------------------------------------------------

    def graph(self) -> nx.MultiGraph:
        """Undirected relation graph over concepts (for path search).

        One frozen graph per ontology :attr:`version`, shared by every
        caller: built on first use and rebuilt on the first call after
        ``add_concept`` or ``add_relation``."""
        if self._graphs is None or self._graphs[0] != self.version:
            graph = nx.MultiGraph()
            graph.add_nodes_from(c.name for c in self.concepts.values())
            for relation in self.relations:
                graph.add_edge(relation.src, relation.dst, relation=relation)
            # inheritance edges connect children to parents with zero cost
            for concept in self.concepts.values():
                if concept.parent:
                    graph.add_edge(
                        concept.name, self.concept(concept.parent).name, relation=None
                    )
            simple = nx.Graph()
            simple.add_nodes_from(graph.nodes)
            simple.add_edges_from(graph.edges())
            self._graphs = (self.version, nx.freeze(graph), nx.freeze(simple))
        return self._graphs[1]

    def simple_graph(self) -> nx.Graph:
        """:meth:`graph` with parallel edges collapsed (what
        ``steiner_tree`` takes), frozen and rebuilt alongside it."""
        self.graph()
        return self._graphs[2]

    def vocabulary(self) -> Set[str]:
        """Every surface form the ontology knows about."""
        vocab: Set[str] = set()
        for concept in self.concepts.values():
            vocab |= concept.surface_forms()
            for prop in concept.properties.values():
                vocab |= prop.surface_forms()
        for relation in self.relations:
            vocab |= relation.surface_forms()
        return vocab

    def stats(self) -> Dict[str, int]:
        """Element counts (used in benchmark reporting)."""
        return {
            "concepts": len(self.concepts),
            "properties": len(self.all_properties()),
            "relations": len(self.relations),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Ontology({self.name!r}, {s['concepts']} concepts, "
            f"{s['properties']} properties, {s['relations']} relations)"
        )
