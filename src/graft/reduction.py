"""Spanning-tree projection of the knowledge DAG and chain extraction.

The projection keeps exactly one parent per node: the annotated canonical
parent when present, otherwise the first parent discovered in breadth-first
order from the root (lexicographic node-id tie-break within a BFS level).
Cutting the resulting tree at every c-entered node partitions it into
chains: subtrees whose interiors are s-decisions, terminating at leaves or
at the next c-node down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphValidationError
from .graph import EdgeType, KnowledgeGraph, _survey


def digest(payload) -> str:
    """The first 16 hex digits of the SHA-256 of ``payload`` as compact JSON with sorted keys."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FactoredTree:
    root: str
    parent: dict[str, str]  # absent for root
    edge_type: dict[str, EdgeType]  # type of the edge into each non-root node
    children: dict[str, tuple[str, ...]]  # lexicographically sorted

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted([self.root, *self.parent.keys()]))

    @cached_property
    def depth(self) -> dict[str, int]:
        out = {self.root: 0}
        stack = [self.root]
        while stack:
            n = stack.pop()
            for c in self.children.get(n, ()):
                out[c] = out[n] + 1
                stack.append(c)
        return out

    def path_from_root(self, node: str) -> tuple[str, ...]:
        """Nodes from the root down to ``node``, inclusive."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return tuple(reversed(path))

    def is_ancestor_or_self(self, anc: str, node: str) -> bool:
        while True:
            if node == anc:
                return True
            if node == self.root:
                return False
            node = self.parent[node]

    @cached_property
    def s_children_table(self) -> dict[str, tuple[str, ...]]:
        """node -> its s-children, for every node that has some, in node order."""
        s = EdgeType.SUBDIVIDES_IN
        pick_one = {n: tuple(c for c in cs if self.edge_type[c] is s) for n, cs in sorted(self.children.items())}
        return {n: kids for n, kids in pick_one.items() if kids}

    @cached_property
    def internal_s_nodes(self) -> tuple[str, ...]:
        """The nodes with s-children, sorted: one policy row each."""
        return tuple(self.s_children_table)

    @cached_property
    def uniform_rows(self) -> dict:
        """internal s-node -> its uniform ``ProbabilityRow``; copy the dict before editing it."""
        from .policy import ProbabilityRow

        table = self.s_children_table
        return {n: ProbabilityRow(kids, tuple(1.0 / len(kids) for _ in kids)) for n, kids in table.items()}

    def s_children(self, node: str) -> tuple[str, ...]:
        return self.s_children_table.get(node, ())

    def c_children(self, node: str) -> tuple[str, ...]:
        return tuple(c for c in self.children.get(node, ()) if self.edge_type[c] is EdgeType.CHARACTERIZED_BY)

    def version_hash(self) -> str:
        """Content hash identifying this tree (fingerprints are scoped to it)."""
        payload = {
            "root": self.root,
            "parent": dict(sorted(self.parent.items())),
            "edge_type": {n: t.value for n, t in sorted(self.edge_type.items())},
        }
        return digest(payload)


@dataclass(frozen=True)
class Chain:
    """One decision unit: a c-rooted subtree with s-decision interior.

    ``alphabet`` lists the chain's terminal options (tree leaves or nodes
    whose children are c-entered); it is empty for pass-through chains whose
    root carries no s-decision.
    """

    id: str  # the root node's id
    root: str
    members: tuple[str, ...]  # sorted; excludes the global root
    alphabet: tuple[str, ...]  # sorted; empty for pass-through chains

    @property
    def is_decision(self) -> bool:
        return bool(self.alphabet)


@dataclass(frozen=True)
class ChainIndex:
    chains: dict[str, Chain]  # keyed by chain id
    enclosing: dict[str, str]  # nu: node -> chain id; global root absent
    nesting_parent: dict[str, str] = field(default_factory=dict)  # rho; absent = no enclosing chain

    @cached_property
    def decision_chain_ids(self) -> tuple[str, ...]:
        return tuple(sorted(c.id for c in self.chains.values() if c.is_decision))


def reduce_to_tree(g: KnowledgeGraph) -> FactoredTree:
    """Project the DAG onto its spanning tree.

    Raises GraphValidationError when the graph breaks a structural
    invariant; this is what ties "validate accepts" to "reduce succeeds".
    """
    report, incoming, bfs_depth = _survey(g)
    if not report.ok:
        raise GraphValidationError(report)

    parent: dict[str, str] = {}
    edge_type: dict[str, EdgeType] = {}
    for n in g.nodes:
        if n == g.root:
            continue
        candidates = incoming[n]  # non-empty: validation proved n reachable
        if n in g.canonical_parent:
            keep = g.canonical_parent[n]
            kept_type = next(t for p, t in candidates if p == keep)
        else:
            keep, kept_type = min(candidates, key=lambda pt: (bfs_depth[pt[0]], pt[0]))
        parent[n] = keep
        edge_type[n] = kept_type

    kids: dict[str, list[str]] = {n: [] for n in g.nodes}
    for n, p in parent.items():
        kids[p].append(n)
    children = {n: tuple(sorted(cs)) for n, cs in kids.items() if cs}

    return FactoredTree(root=g.root, parent=parent, edge_type=edge_type, children=children)


def _chain_start_nodes(t: FactoredTree) -> list[str]:
    starts = [n for n in t.nodes if n != t.root and t.edge_type[n] is EdgeType.CHARACTERIZED_BY]
    if t.s_children(t.root):
        starts.append(t.root)
    return sorted(starts)


def extract_chains(t: FactoredTree) -> ChainIndex:
    """Cut the tree at every c-entered node and index the resulting chains."""
    starts = _chain_start_nodes(t)

    chains: dict[str, Chain] = {}
    enclosing: dict[str, str] = {}
    for r in starts:
        members: list[str] = [] if r == t.root else [r]
        terminals: list[str] = []
        # walk s-edges only; c-entered children open their own chains
        stack = list(t.s_children(r))
        while stack:
            n = stack.pop()
            members.append(n)
            sub = t.s_children(n)
            if sub:
                stack.extend(sub)
            else:
                terminals.append(n)
        alphabet = tuple(sorted(terminals)) if t.s_children(r) else ()
        chains[r] = Chain(id=r, root=r, members=tuple(sorted(members)), alphabet=alphabet)
        for m in chains[r].members:
            enclosing[m] = r

    nesting: dict[str, str] = {}
    for r in starts:
        if r == t.root:
            continue
        p = t.parent[r]
        if p in enclosing:
            nesting[r] = enclosing[p]
        # else: parent is the global root with c-children only -> no enclosing chain

    return ChainIndex(chains=chains, enclosing=enclosing, nesting_parent=nesting)
