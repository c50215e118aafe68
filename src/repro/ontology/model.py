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
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.sqldb.types import DataType


class OntologyError(Exception):
    """Raised for inconsistent ontology definitions or unknown elements."""


@dataclass
class DataProperty:
    """An attribute of a concept (maps to a table column)."""

    name: str
    concept: str
    dtype: DataType
    synonyms: Tuple[str, ...] = ()

    def surface_forms(self) -> Set[str]:
        """All names this property answers to (lower-cased)."""
        return {self.name.lower(), *(s.lower() for s in self.synonyms)}


@dataclass
class Relation:
    """A named, directed relation between two concepts."""

    name: str
    src: str
    dst: str
    synonyms: Tuple[str, ...] = ()
    functional: bool = False  # src has at most one dst (N:1)

    def surface_forms(self) -> Set[str]:
        """All names this relation answers to (lower-cased)."""
        return {self.name.lower(), *(s.lower() for s in self.synonyms)}


@dataclass
class Concept:
    """An entity type with attributes and an optional parent concept."""

    name: str
    synonyms: Tuple[str, ...] = ()
    parent: Optional[str] = None
    properties: Dict[str, DataProperty] = field(default_factory=dict)

    def surface_forms(self) -> Set[str]:
        """All names this concept answers to (lower-cased)."""
        return {self.name.lower(), *(s.lower() for s in self.synonyms)}

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
        """Undirected relation graph over concepts (for path search)."""
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
        return graph

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
