import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graft import EdgeType, extract_chains, reduce_to_tree
from graft.graph import graph_from_document
from graft.fixtures import morning_graph

from oracles import kept_parents, random_substrate_document


@st.composite
def multi_parent_dags(draw, max_nodes=9):
    """A DAG document whose nodes may have several parents: edges run forward
    in a shuffled name order, each node's out-edges share one type, and some
    multi-parent nodes carry a canonical parent annotation."""
    n = draw(st.integers(1, max_nodes))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    kinds = [draw(st.sampled_from("cs")) for _ in names]
    edges, canonical = [], {}
    for j in range(1, n):
        parents = draw(st.lists(st.integers(0, j - 1), min_size=1, max_size=3, unique=True))
        edges += [{"parent": names[i], "child": names[j], "type": kinds[i]} for i in parents]
        if len(parents) > 1 and draw(st.booleans()):
            canonical[names[j]] = names[draw(st.sampled_from(parents))]
    edges = draw(st.permutations(edges))
    return {"root": names[0], "nodes": list(names), "edges": list(edges), "canonical_parent": canonical}


def test_tree_shaped_input_is_identity():
    g = morning_graph()
    t = reduce_to_tree(g)
    assert set((t.parent[c], c, t.edge_type[c]) for c in t.parent) == set(g.edges)


def test_canonical_parent_annotation_wins():
    # fourier features reachable from both a periodic-domain and a spectral
    # architecture node; the annotation keeps the periodic-domain parent
    doc = {
        "root": "root",
        "nodes": [
            {"id": "root"},
            {"id": "periodic_domain"},
            {"id": "spectral_architecture"},
            {"id": "fourier_features"},
        ],
        "edges": [
            {"parent": "root", "child": "periodic_domain", "type": "c"},
            {"parent": "root", "child": "spectral_architecture", "type": "c"},
            {"parent": "periodic_domain", "child": "fourier_features", "type": "c"},
            {"parent": "spectral_architecture", "child": "fourier_features", "type": "c"},
        ],
        "canonical_parent": {"fourier_features": "periodic_domain"},
    }
    t = reduce_to_tree(graph_from_document(doc))
    assert t.parent["fourier_features"] == "periodic_domain"


def test_bfs_depth_rule_keeps_shallower_parent():
    # parents at BFS depths 2 and 3; the depth-2 parent is retained
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "a", "b", "c", "x"]],
        "edges": [
            {"parent": "r", "child": "a", "type": "c"},
            {"parent": "a", "child": "b", "type": "c"},
            {"parent": "b", "child": "c", "type": "c"},
            {"parent": "b", "child": "x", "type": "c"},  # b at depth 2
            {"parent": "c", "child": "x", "type": "c"},  # c at depth 3
        ],
    }
    t = reduce_to_tree(graph_from_document(doc))
    assert t.parent["x"] == "b"


def test_bfs_tie_breaks_lexicographically():
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "p1", "p2", "x"]],
        "edges": [
            {"parent": "r", "child": "p1", "type": "c"},
            {"parent": "r", "child": "p2", "type": "c"},
            {"parent": "p2", "child": "x", "type": "c"},
            {"parent": "p1", "child": "x", "type": "c"},
        ],
    }
    t = reduce_to_tree(graph_from_document(doc))
    assert t.parent["x"] == "p1"


@settings(deadline=None)
@given(multi_parent_dags())
def test_the_kept_parent_is_canonical_else_nearest_the_root(doc):
    assert reduce_to_tree(graph_from_document(doc)).parent == kept_parents(doc)


def test_children_sorted_lexicographically():
    t = reduce_to_tree(morning_graph())
    for kids in t.children.values():
        assert list(kids) == sorted(kids)


def test_reduction_deterministic_byte_for_byte():
    doc = random_substrate_document(3)
    blobs = set()
    for _ in range(3):
        t = reduce_to_tree(graph_from_document(doc))
        blobs.add(
            json.dumps(
                {
                    "parent": dict(sorted(t.parent.items())),
                    "types": {k: v.value for k, v in sorted(t.edge_type.items())},
                },
                sort_keys=True,
            )
        )
    assert len(blobs) == 1


def test_morning_chains():
    s_tree = reduce_to_tree(morning_graph())
    ci = extract_chains(s_tree)
    decision = sorted(c.id for c in ci.chains.values() if c.is_decision)
    assert decision == ["breakfast", "helmet", "style", "transport"]
    assert not ci.chains["clothes"].is_decision
    assert ci.nesting_parent["style"] == "clothes"
    assert ci.nesting_parent["helmet"] == "clothes"
    assert "breakfast" not in ci.nesting_parent  # rho bottoms out at the root
    for chain, alphabet in [
        ("breakfast", ("breakfast_no", "breakfast_yes")),
        ("transport", ("transport_bike", "transport_car")),
    ]:
        assert ci.chains[chain].alphabet == alphabet


def test_single_chain_tree():
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "pick", "l1", "l2", "l3"]],
        "edges": [{"parent": "r", "child": "pick", "type": "c"}]
        + [{"parent": "pick", "child": f"l{i}", "type": "s"} for i in (1, 2, 3)],
    }
    t = reduce_to_tree(graph_from_document(doc))
    ci = extract_chains(t)
    assert len(ci.chains) == 1
    chain = ci.chains["pick"]
    assert chain.alphabet == ("l1", "l2", "l3")
    assert set(ci.enclosing) == {"pick", "l1", "l2", "l3"}
    assert set(ci.enclosing.values()) == {"pick"}
    assert ci.nesting_parent == {}


def test_root_with_s_children_owns_a_chain():
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "l1", "l2"]],
        "edges": [{"parent": "r", "child": f"l{i}", "type": "s"} for i in (1, 2)],
    }
    ci = extract_chains(reduce_to_tree(graph_from_document(doc)))
    assert list(ci.chains) == ["r"]
    assert ci.chains["r"].alphabet == ("l1", "l2")
    assert "r" not in ci.enclosing  # the global root itself maps to no chain
    assert ci.enclosing == {"l1": "r", "l2": "r"}


def test_depth_3_nesting_rho_composition():
    # c under s under c: chain B nested in chain A through an s-branch
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "A", "a1", "a2", "B", "b1", "b2", "deep", "d1"]],
        "edges": [
            {"parent": "r", "child": "A", "type": "c"},
            {"parent": "A", "child": "a1", "type": "s"},
            {"parent": "A", "child": "a2", "type": "s"},
            {"parent": "a1", "child": "B", "type": "c"},
            {"parent": "B", "child": "b1", "type": "s"},
            {"parent": "B", "child": "b2", "type": "s"},
            {"parent": "b1", "child": "deep", "type": "c"},
            {"parent": "deep", "child": "d1", "type": "s"},
        ],
    }
    ci = extract_chains(reduce_to_tree(graph_from_document(doc)))
    assert ci.nesting_parent["B"] == "A"
    assert ci.nesting_parent["deep"] == "B"
    # rho chain-of-parents length 2 from the deepest chain
    hops = []
    cur = "deep"
    while cur in ci.nesting_parent:
        cur = ci.nesting_parent[cur]
        hops.append(cur)
    assert hops == ["B", "A"]


def test_partition_property_on_random_instances():
    for seed in range(25):
        g = graph_from_document(random_substrate_document(seed))
        t = reduce_to_tree(g)
        ci = extract_chains(t)
        members = [m for c in ci.chains.values() for m in c.members]
        assert len(members) == len(set(members))
        assert set(members) == set(t.nodes) - {t.root}
        # nu is constant along s-edges
        for node in t.nodes:
            if node == t.root:
                continue
            if t.edge_type[node] is EdgeType.SUBDIVIDES_IN and t.parent[node] != t.root:
                parent_chain = ci.enclosing.get(t.parent[node])
                if parent_chain is not None:
                    assert ci.enclosing[node] == parent_chain
