"""Property tests for the depth-first search behind check_acyclic and assign_levels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graft import BuildError, DependencyGraph, assign_levels, check_acyclic

from oracles import longest_path_levels


@st.composite
def dags(draw, max_vertices=10):
    """A random DAG whose sorted vertex order is not a topological order:
    edges run forward in a shuffled order, split between both edge kinds."""
    n = draw(st.integers(1, max_vertices))
    names = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    nesting = {e for e in edges if draw(st.booleans())}
    return names, set(edges) - nesting, nesting


def dependency_graph(vertices, rule_edges, nesting_edges) -> DependencyGraph:
    return DependencyGraph(
        vertices=tuple(sorted(vertices)),
        rule_edges=frozenset(rule_edges),
        nesting_edges=frozenset(nesting_edges),
    )


def reaches(edges, a, b) -> bool:
    seen, stack = {a}, [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for x, y in edges:
            if x == v and y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def forms_cycle(chains, edges) -> bool:
    """Some ordering of ``chains`` closes into a cycle of ``edges``."""
    chains = sorted(chains)

    def extend(path, rest):
        if not rest:
            return (path[-1], chains[0]) in edges
        return any(extend(path + [v], rest - {v}) for v in rest if (path[-1], v) in edges)

    return extend([chains[0]], frozenset(chains[1:]))


@settings(deadline=None)
@given(dags())
def test_levels_are_longest_path_lengths(dag):
    names, rule_edges, nesting_edges = dag
    h = dependency_graph(names, rule_edges, nesting_edges)
    assert check_acyclic(h) is None
    assert assign_levels(h).level == longest_path_levels(names, h.edges)


@settings(deadline=None)
@given(dags(), st.data())
def test_a_back_edge_yields_a_witness_that_is_a_cycle(dag, data):
    names, rule_edges, nesting_edges = dag
    edges = rule_edges | nesting_edges
    # a back edge b -> a closes a cycle whenever a reaches b (a == b: a self-loop)
    a, b = data.draw(st.sampled_from([(a, b) for a in names for b in names if reaches(edges, a, b)]))
    h = dependency_graph(names, rule_edges | {(b, a)}, nesting_edges)
    witness = check_acyclic(h)
    assert witness is not None
    assert forms_cycle(witness.chains, h.edges)
    with pytest.raises(BuildError) as err:
        assign_levels(h)
    assert err.value.stage == "cycle"
    assert forms_cycle(err.value.witness.chains, h.edges)


def test_a_5000_vertex_path_needs_no_recursion():
    # names sort against the path direction
    names = [f"v{4999 - i:04d}" for i in range(5000)]
    path = list(zip(names, names[1:]))
    h = dependency_graph(names, path, ())
    assert check_acyclic(h) is None
    assert assign_levels(h).level == {v: i for i, v in enumerate(names)}
    closed = dependency_graph(names, path + [(names[-1], names[0])], ())
    assert check_acyclic(closed).chains == frozenset(names)
