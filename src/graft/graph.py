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


def graph_from_document(doc: dict) -> KnowledgeGraph:
    """Build a KnowledgeGraph from a parsed document mapping."""
    _require(isinstance(doc, dict), "graph document must be a mapping")
    for key in ("root", "nodes"):
        _require(key in doc, f"missing required field {key!r}")

    nodes: list[str] = []
    hints: dict[str, str] = {}
    seen: set[str] = set()
    for item in doc["nodes"]:
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
    for item in doc.get("edges", ()):
        _require(
            isinstance(item, dict) and {"parent", "child", "type"} <= set(item),
            f"bad edge entry {item!r}",
        )
        parent, child = item["parent"], item["child"]
        for end in (parent, child):
            _require(end in seen, f"unknown NodeId {end!r} in edge")
        _require(item["type"] in ("c", "s"), f"unknown edge type {item['type']!r}")
        edges.append((parent, child, EdgeType(item["type"])))

    canonical: dict[str, str] = {}
    for node_id, parent in doc.get("canonical_parent", {}).items():
        _require(node_id in seen, f"unknown NodeId {node_id!r} in canonical_parent")
        _require(parent in seen, f"unknown NodeId {parent!r} in canonical_parent")
        canonical[node_id] = parent

    rules: list[Rule] = []
    for item in doc.get("rules", ()):
        _require(
            isinstance(item, dict) and {"trigger", "target", "effect"} <= set(item),
            f"bad rule entry {item!r}",
        )
        for end in list(item["trigger"]) + list(item["target"]):
            _require(end in seen, f"unknown NodeId {end!r} in rule")
        _require(item["effect"] in EFFECTS, f"unknown rule effect {item['effect']!r}")
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


def validate_graph(g: KnowledgeGraph) -> ValidationReport:
    """Check the structural invariants a substrate build relies on.

    Violations are report entries, never exceptions; an empty report means
    the graph is reachable-acyclic with uniform-typed children and coherent
    canonical_parent/rule references.
    """
    violations: list[Violation] = []
    node_set = set(g.nodes)

    children: dict[str, list[tuple[str, EdgeType]]] = {n: [] for n in g.nodes}
    parents: dict[str, list[tuple[str, EdgeType]]] = {n: [] for n in g.nodes}
    seen_pairs: set[tuple[str, str]] = set()
    for p, c, t in g.edges:
        if (p, c) in seen_pairs:
            violations.append(Violation("duplicate-edge", f"{p}->{c}", f"duplicate edge {p} -> {c}"))
        seen_pairs.add((p, c))
        children[p].append((c, t))
        parents[c].append((p, t))

    # uniform-children: all outgoing edges of a node share one type
    for n in g.nodes:
        kinds = {t for _, t in children[n]}
        if len(kinds) > 1:
            violations.append(Violation("mixed-children", n, f"mixed children at {n}"))

    # reachability from root (over directed edges)
    reached = {g.root}
    frontier = [g.root]
    while frontier:
        nxt = []
        for n in frontier:
            for c, _ in children[n]:
                if c not in reached:
                    reached.add(c)
                    nxt.append(c)
        frontier = nxt
    for n in g.nodes:
        if n not in reached:
            violations.append(Violation("unreachable", n, f"unreachable node {n}"))

    # cycle detection (iterative three-color DFS)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in g.nodes}
    for start in g.nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            kids = children[node]
            if idx < len(kids):
                stack[-1] = (node, idx + 1)
                child = kids[idx][0]
                if color[child] == GRAY:
                    violations.append(Violation("cycle", child, f"cycle through {child}"))
                elif color[child] == WHITE:
                    color[child] = GRAY
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()

    # canonical_parent entries must name an actual incoming edge
    for n, p in g.canonical_parent.items():
        if p not in {q for q, _ in parents.get(n, [])}:
            violations.append(
                Violation("bad-canonical-parent", n, f"canonical_parent of {n} names non-parent {p}")
            )

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

    return ValidationReport(tuple(violations))
