import json

import pytest

from graft import (
    GraphFormatError,
    GraphValidationError,
    parse_graph,
    reduce_to_tree,
    serialize_graph,
    validate_graph,
)
from graft.fixtures import morning_graph, morning_graph_document
from graft.cli import main
from graft.graph import graph_from_document

from oracles import random_substrate_document


def test_minimal_single_node_document():
    g = parse_graph('{"root": "only", "nodes": [{"id": "only"}]}')
    assert g.root == "only"
    assert g.nodes == ("only",)
    assert g.edges == ()


def test_morning_fixture_counts():
    g = morning_graph()
    assert len(g.nodes) == 14
    assert len(g.rules) == 1
    assert len(g.edges) == 13


def test_edge_to_undeclared_node_rejected():
    doc = {
        "root": "a",
        "nodes": [{"id": "a"}],
        "edges": [{"parent": "a", "child": "ghost", "type": "c"}],
    }
    with pytest.raises(GraphFormatError, match="unknown NodeId"):
        graph_from_document(doc)


def test_rule_with_unknown_node_rejected():
    doc = morning_graph_document()
    doc["rules"][0]["trigger"] = ["ghost"]
    with pytest.raises(GraphFormatError, match="unknown NodeId"):
        graph_from_document(doc)


def test_duplicate_node_rejected():
    doc = {"root": "a", "nodes": [{"id": "a"}, {"id": "a"}]}
    with pytest.raises(GraphFormatError, match="duplicate NodeId"):
        graph_from_document(doc)


def test_unknown_edge_type_rejected():
    doc = {
        "root": "a",
        "nodes": [{"id": "a"}, {"id": "b"}],
        "edges": [{"parent": "a", "child": "b", "type": "x"}],
    }
    with pytest.raises(GraphFormatError, match="edge type"):
        graph_from_document(doc)


def test_validate_morning_fixture_clean():
    assert validate_graph(morning_graph()).ok


def test_mixed_children_flagged():
    doc = {
        "root": "a",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"parent": "a", "child": "b", "type": "c"},
            {"parent": "a", "child": "c", "type": "s"},
        ],
    }
    report = validate_graph(graph_from_document(doc))
    assert any(v.kind == "mixed-children" and v.subject == "a" for v in report.violations)


def test_cycle_flagged():
    doc = {
        "root": "a",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"parent": "a", "child": "b", "type": "c"},
            {"parent": "b", "child": "c", "type": "c"},
            {"parent": "c", "child": "b", "type": "c"},
        ],
    }
    report = validate_graph(graph_from_document(doc))
    assert any(v.kind == "cycle" for v in report.violations)


def test_every_back_edge_and_unreachable_node_is_reported_in_order(tmp_path, capsys):
    # r -> a -> b -> a closes over c-edges, r -> c -> d -> c over s-edges, e -> e is unreachable
    edges = [("r", "a", "c"), ("a", "b", "c"), ("b", "a", "c"), ("r", "c", "c"), ("c", "d", "s"), ("d", "c", "s"),
             ("e", "e", "c")]  # fmt: skip
    doc = {
        "root": "r",
        "nodes": ["r", "a", "b", "c", "d", "e"],
        "edges": [{"parent": p, "child": c, "type": t} for p, c, t in edges],
    }
    expected = ["unreachable node e", "cycle through a", "cycle through c", "cycle through e"]
    assert [v.message for v in validate_graph(graph_from_document(doc)).violations] == expected
    (tmp_path / "cyclic.json").write_text(json.dumps(doc))
    assert main(["validate", str(tmp_path / "cyclic.json")]) == 1
    assert capsys.readouterr().out.splitlines() == expected


def test_unreachable_flagged():
    doc = {"root": "a", "nodes": [{"id": "a"}, {"id": "b"}]}
    report = validate_graph(graph_from_document(doc))
    assert any(v.kind == "unreachable" and v.subject == "b" for v in report.violations)


def test_canonical_parent_must_name_real_edge():
    doc = {
        "root": "a",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"parent": "a", "child": "b", "type": "c"},
            {"parent": "a", "child": "c", "type": "c"},
        ],
        "canonical_parent": {"c": "b"},
    }
    report = validate_graph(graph_from_document(doc))
    assert any(v.kind == "bad-canonical-parent" for v in report.violations)


def test_round_trip_field_equality():
    for doc in [morning_graph_document()] + [random_substrate_document(s) for s in range(20)]:
        g = graph_from_document(doc)
        assert parse_graph(serialize_graph(g)) == g


def test_validate_accepts_iff_reduce_succeeds():
    docs = [morning_graph_document()] + [random_substrate_document(s) for s in range(15)]
    # mutate some into invalid variants
    broken = morning_graph_document()
    broken["edges"][5]["type"] = "c"  # mixed children at breakfast
    docs.append(broken)
    unreachable = morning_graph_document()
    unreachable["nodes"].append({"id": "floating"})
    docs.append(unreachable)
    for doc in docs:
        g = graph_from_document(doc)
        ok = validate_graph(g).ok
        try:
            reduce_to_tree(g)
            reduced = True
        except GraphValidationError:
            reduced = False
        assert ok == reduced
