"""Ontology reasoning: relationship paths and join inference.

The "intelligent domain reasoning" the survey attributes to ATHENA [44]:
given the set of concepts a question mentions, find how they connect.
For two concepts this is a shortest path over the relation graph; for
three or more it is a Steiner tree (computed with networkx's
approximation over the terminals' connected component), whose edges
translate — through the ontology mapping — into the SQL join chain.
Concepts in different components cannot be joined: every search raises
:class:`~repro.ontology.model.OntologyError` for them.

The relation graph is the ontology's own (:meth:`Ontology.graph`): one
frozen graph per ontology version, shared by every reasoner and read on
each call, so a reasoner costs nothing to make and sees relations added
after it was made.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms import approximation as nx_approx

from repro.sqldb.schema import ForeignKey

from .mapping import OntologyMapping
from .model import Ontology, OntologyError, Relation


class Reasoner:
    """Path/tree search over an ontology's relation graph."""

    def __init__(self, ontology: Ontology, mapping: Optional[OntologyMapping] = None):
        self.ontology = ontology
        self.mapping = mapping

    def connected(self, concept_a: str, concept_b: str) -> bool:
        """Whether two concepts are connected by any relation path."""
        a = self.ontology.concept(concept_a).name
        b = self.ontology.concept(concept_b).name
        if a == b:
            return True
        return nx.has_path(self.ontology.graph(), a, b)

    def relation_path(self, src: str, dst: str) -> List[Relation]:
        """Relations along the shortest path ``src`` → ``dst``.

        Inheritance edges contribute no relation (concepts share tables),
        so they are skipped in the output.
        """
        return [
            relation
            for _, _, relation in self.oriented_path(src, dst)
            if relation is not None
        ]

    def steiner_concepts(self, concepts: Sequence[str]) -> List[str]:
        """Minimal connected concept set covering all ``concepts``.

        This is the interpretation-tree selection step of ATHENA: the
        Steiner tree over the mentioned concepts decides which additional
        (unmentioned) concepts must participate in the query so the joins
        close.
        """
        names = sorted({self.ontology.concept(c).name for c in concepts})
        if len(names) <= 1:
            return names
        # steiner_tree requires a Graph (not MultiGraph): edges collapsed.
        graph = self.ontology.simple_graph()
        component = nx.node_connected_component(graph, names[0])
        if not component.issuperset(names):
            raise OntologyError(f"concepts {names} are not connected")
        # steiner_tree maps every node to its nearest terminal, so it must
        # not see other components; a filter view keeps the graph's own
        # node order (a node-set view iterates the set)
        graph = nx.subgraph_view(graph, filter_node=component.__contains__)
        # terminals sharing a component always span a non-empty tree
        return sorted(nx_approx.steiner_tree(graph, names).nodes)

    def join_concepts(self, concepts: Sequence[str]) -> List[Tuple[str, Relation]]:
        """Order the Steiner concepts into a join sequence.

        Returns ``[(concept, relation-used-to-reach-it), ...]`` starting
        from the first concept (relation ``None`` for the root, omitted).
        """
        nodes = self.steiner_concepts(concepts)
        if not nodes:
            return []
        # Build the induced subgraph and walk it BFS from the first
        # mentioned concept for a deterministic join order.
        sub = self.ontology.graph().subgraph(nodes)
        root = self.ontology.concept(concepts[0]).name
        if root not in sub:
            root = nodes[0]
        out: List[Tuple[str, Relation]] = []
        seen = {root}
        frontier = [root]
        while frontier:
            current = frontier.pop(0)
            for neighbor in sorted(sub.neighbors(current)):
                if neighbor in seen:
                    continue
                relation = self._pick_relation(current, neighbor)
                out.append((neighbor, relation))
                seen.add(neighbor)
                frontier.append(neighbor)
        return out

    def oriented_path(self, src: str, dst: str) -> List[Tuple[str, str, Optional[Relation]]]:
        """Shortest path as ``(from_concept, to_concept, relation)`` hops.

        Used to decide join duplication semantics: traversing a
        functional relation from its ``dst`` (one) side to its ``src``
        (many) side fans out, so projections need DISTINCT.
        """
        a = self.ontology.concept(src).name
        b = self.ontology.concept(dst).name
        if a == b:
            return []
        try:
            nodes = nx.shortest_path(self.ontology.graph(), a, b)
        except nx.NetworkXNoPath:
            raise OntologyError(f"concepts {src!r} and {dst!r} are not connected") from None
        return [
            (u, v, self._pick_relation(u, v)) for u, v in zip(nodes, nodes[1:])
        ]

    def fans_out(self, src: str, dst: str) -> bool:
        """Whether joining from ``src`` toward ``dst`` can duplicate
        ``src`` rows (traverses to a "many" side anywhere on the path)."""
        for u, v, relation in self.oriented_path(src, dst):
            if relation is None:
                continue  # inheritance hop
            if not relation.functional:
                return True  # many-to-many
            if relation.dst == u and relation.src == v:
                return True  # one side -> many side
        return False

    def fk_chain(self, src: str, dst: str) -> List[ForeignKey]:
        """Foreign keys realizing the relation path ``src`` → ``dst``.

        Requires a mapping; inheritance hops contribute nothing.
        """
        if self.mapping is None:
            raise OntologyError("reasoner has no mapping; cannot derive FKs")
        chain: List[ForeignKey] = []
        for u, v, relation in self.oriented_path(src, dst):
            if relation is None:
                continue  # inheritance edge: same table family
            chain.extend(self.mapping.fk_chain_of(relation.name, u, v))
        return chain

    # -- helpers ----------------------------------------------------------------

    def _pick_relation(self, u: str, v: str) -> Optional[Relation]:
        """Deterministically choose one relation between two concepts."""
        data = self.ontology.graph().get_edge_data(u, v)
        if not data:
            return None
        relations = [d["relation"] for d in data.values() if d.get("relation")]
        if not relations:
            return None
        return sorted(relations, key=lambda r: r.name)[0]
