"""Attribute knowledge DAGs: the raw input every substrate is compiled from.

A graph document is JSON with the normative top-level fields ``root``,
``nodes``, ``edges``, ``canonical_parent`` and ``rules``.  Two edge kinds
exist: ``c`` (characterized_by, "all of these apply") and ``s``
(subdivides_in, "pick one").  Cross-rules couple a trigger value set on some
chains to a target slice on one chain, with effect ``force`` or ``zero_out``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import GraphFormatError


class EdgeType(str, Enum):
    CHARACTERIZED_BY = "c"
    SUBDIVIDES_IN = "s"


EFFECTS = ("force", "zero_out")


@dataclass(frozen=True)
class Rule:
    """Cross-rule: when every trigger value is picked, edit the target slice."""

    hint: str
    trigger: frozenset[str]
    target: frozenset[str]
    effect: str  # "force" | "zero_out"


@dataclass(frozen=True, eq=True)
class KnowledgeGraph:
    root: str
    nodes: tuple[str, ...]  # document order
    hints: dict[str, str] = field(default_factory=dict)
    edges: tuple[tuple[str, str, EdgeType], ...] = ()
    canonical_parent: dict[str, str] = field(default_factory=dict)
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphFormatError(message)


def _check_node_id(value) -> str:
    _require(isinstance(value, str), f"node id must be text, got {value!r}")
    _require(value != "", "empty node id")
    _require(value.strip() == value, f"node id {value!r} has surrounding whitespace")
    _require("," not in value and "\n" not in value, f"node id {value!r} contains a forbidden character")
    return value


def _listed(value, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a list")
    return value


def _known(end, seen: set[str], where: str) -> str:
    _require(isinstance(end, str) and end in seen, f"unknown NodeId {end!r} in {where}")
    return end


def graph_from_document(doc: dict) -> KnowledgeGraph:
    """Build a KnowledgeGraph from a parsed document mapping."""
    _require(isinstance(doc, dict), "graph document must be a mapping")
    for key in ("root", "nodes"):
        _require(key in doc, f"missing required field {key!r}")

    nodes: list[str] = []
    hints: dict[str, str] = {}
    seen: set[str] = set()
    for item in _listed(doc["nodes"], "field 'nodes'"):
        if isinstance(item, str):
            node_id, hint = _check_node_id(item), None
        else:
            _require(isinstance(item, dict) and "id" in item, f"bad node entry {item!r}")
            node_id = _check_node_id(item["id"])
            hint = item.get("hint")
        _require(node_id not in seen, f"duplicate NodeId {node_id!r}")
        seen.add(node_id)
        nodes.append(node_id)
        if hint is not None:
            _require(isinstance(hint, str), f"hint for {node_id!r} must be text")
            hints[node_id] = hint

    root = _check_node_id(doc["root"])
    _require(root in seen, f"root {root!r} is not a declared node")

    edges: list[tuple[str, str, EdgeType]] = []
    for item in _listed(doc.get("edges", []), "field 'edges'"):
        _require(isinstance(item, dict) and {"parent", "child", "type"} <= set(item), f"bad edge entry {item!r}")
        parent, child = (_known(item[end], seen, "edge") for end in ("parent", "child"))
        _require(item["type"] in ("c", "s"), f"unknown edge type {item['type']!r}")
        edges.append((parent, child, EdgeType(item["type"])))

    canonical: dict[str, str] = {}
    canonical_doc = doc.get("canonical_parent", {})
    _require(isinstance(canonical_doc, dict), "field 'canonical_parent' must be an object")
    for node_id, parent in canonical_doc.items():
        canonical[_known(node_id, seen, "canonical_parent")] = _known(parent, seen, "canonical_parent")

    rules: list[Rule] = []
    for item in _listed(doc.get("rules", []), "field 'rules'"):
        _require(isinstance(item, dict) and {"trigger", "target", "effect"} <= set(item), f"bad rule entry {item!r}")
        for key in ("trigger", "target"):
            for end in _listed(item[key], f"rule field {key!r}"):
                _known(end, seen, "rule")
        _require(item["effect"] in EFFECTS, f"unknown rule effect {item['effect']!r}")
        _require(isinstance(item.get("hint", ""), str), f"rule hint {item.get('hint')!r} must be text")
        rules.append(
            Rule(
                hint=item.get("hint", ""),
                trigger=frozenset(item["trigger"]),
                target=frozenset(item["target"]),
                effect=item["effect"],
            )
        )

    return KnowledgeGraph(
        root=root,
        nodes=tuple(nodes),
        hints=hints,
        edges=tuple(edges),
        canonical_parent=canonical,
        rules=tuple(rules),
    )


def parse_graph(text: str) -> KnowledgeGraph:
    """Parse a JSON graph document into a KnowledgeGraph."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed document: {exc}") from exc
    return graph_from_document(doc)


def graph_to_document(g: KnowledgeGraph) -> dict:
    """Inverse of graph_from_document, preserving document order."""
    nodes = []
    for n in g.nodes:
        entry: dict = {"id": n}
        if n in g.hints:
            entry["hint"] = g.hints[n]
        nodes.append(entry)
    doc: dict = {
        "root": g.root,
        "nodes": nodes,
        "edges": [{"parent": p, "child": c, "type": t.value} for p, c, t in g.edges],
    }
    if g.canonical_parent:
        doc["canonical_parent"] = dict(sorted(g.canonical_parent.items()))
    if g.rules:
        doc["rules"] = [
            {
                "hint": r.hint,
                "trigger": sorted(r.trigger),
                "target": sorted(r.target),
                "effect": r.effect,
            }
            for r in g.rules
        ]
    return doc


def serialize_graph(g: KnowledgeGraph) -> str:
    return json.dumps(graph_to_document(g), indent=2, sort_keys=True) + "\n"


def depth_first(vertices, successors) -> tuple[list[str], list[tuple[str, str]], dict[str, str]]:
    """Iterative three-colour depth-first search (Tarjan 1972).

    Starts from each unvisited vertex in ``vertices`` order and follows each
    ``successors`` list in its order.  Returns the postorder, whose reverse is
    a topological order when there is no back edge; the back edges
    ``(tail, head)`` in the order met; and the search tree's parent links.
    A back edge closes the cycle that climbs those links from its tail to
    its head.
    """
    grey: dict[str, bool] = {}  # the visited vertices: True while on the search path
    parent: dict[str, str] = {}
    postorder: list[str] = []
    back_edges: list[tuple[str, str]] = []
    for start in vertices:
        if start in grey:
            continue
        grey[start] = True
        stack = [(start, iter(successors[start]))]
        while stack:
            u, todo = stack[-1]
            for v in todo:
                if v not in grey:
                    grey[v] = True
                    parent[v] = u
                    stack.append((v, iter(successors[v])))
                    break
                if grey[v]:
                    back_edges.append((u, v))
            else:
                stack.pop()
                grey[u] = False
                postorder.append(u)
    return postorder, back_edges, parent


def _survey(g: KnowledgeGraph) -> tuple[ValidationReport, dict[str, list[tuple[str, EdgeType]]], dict[str, int]]:
    """One pass over the graph: the validation report, each node's incoming
    ``(parent, edge type)`` pairs in edge order, and the breadth-first
    distance from the root of every reachable node."""
    violations: list[Violation] = []
    node_set = set(g.nodes)

    children: dict[str, list[str]] = {n: [] for n in g.nodes}
    kinds: dict[str, set[EdgeType]] = {n: set() for n in g.nodes}
    parents: dict[str, list[tuple[str, EdgeType]]] = {n: [] for n in g.nodes}
    seen_pairs: set[tuple[str, str]] = set()
    for p, c, t in g.edges:
        if (p, c) in seen_pairs:
            violations.append(Violation("duplicate-edge", f"{p}->{c}", f"duplicate edge {p} -> {c}"))
        seen_pairs.add((p, c))
        children[p].append(c)
        kinds[p].add(t)
        parents[c].append((p, t))

    # uniform-children: all outgoing edges of a node share one type
    for n in g.nodes:
        if len(kinds[n]) > 1:
            violations.append(Violation("mixed-children", n, f"mixed children at {n}"))

    # reachability and distance from the root (over directed edges)
    depth = {g.root: 0}
    frontier = [g.root]
    for n in frontier:  # grows while it is walked
        for c in children[n]:
            if c not in depth:
                depth[c] = depth[n] + 1
                frontier.append(c)
    for n in g.nodes:
        if n not in depth:
            violations.append(Violation("unreachable", n, f"unreachable node {n}"))

    for _, head in depth_first(g.nodes, children)[1]:
        violations.append(Violation("cycle", head, f"cycle through {head}"))

    # canonical_parent entries must name an actual incoming edge
    for n, p in g.canonical_parent.items():
        if p not in {q for q, _ in parents.get(n, [])}:
            violations.append(Violation("bad-canonical-parent", n, f"canonical_parent of {n} names non-parent {p}"))

    # root must not be edge-entered
    if parents.get(g.root):
        violations.append(Violation("root-entered", g.root, f"root {g.root} has incoming edges"))

    for r in g.rules:
        if not r.trigger:
            violations.append(Violation("empty-trigger", r.hint, f"rule {r.hint!r} has empty trigger"))
        if not r.target:
            violations.append(Violation("empty-target", r.hint, f"rule {r.hint!r} has empty target"))
        for end in sorted(r.trigger | r.target):
            if end not in node_set:
                violations.append(Violation("unknown-rule-node", end, f"rule {r.hint!r} references unknown {end}"))

    return ValidationReport(tuple(violations)), parents, depth


def validate_graph(g: KnowledgeGraph) -> ValidationReport:
    """Check the structural invariants a substrate build relies on.

    Violations are report entries, never exceptions; an empty report means
    the graph is reachable-acyclic with uniform-typed children and coherent
    canonical_parent/rule references.
    """
    return _survey(g)[0]
