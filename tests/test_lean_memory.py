"""Lean memory entries: path nodes as sorted tuples, one vote map per entry,
and a memory load that reads its file line by line.

The votes of ``partial_spec`` and ``compile_prior`` must equal the node by
node vote path in ``oracles.py`` bit for bit, errors included, on random
substrates with nested chains and rules.
"""

import copy
import json
import re
import tracemalloc

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from graft import (
    MemoryEntry,
    MemoryRepository,
    MethodTuple,
    PriorParams,
    build_substrate,
    compile_prior,
    fingerprint,
    graph_from_document,
    layout,
    make_synthetic_env,
    method_path_nodes,
    min_injective_k,
    partial_spec,
    run_trial,
    sample_method,
)
from graft import io
from graft.errors import GraftError, StalePathError
from graft.loop import SyntheticEnvSpec

from oracles import compile_prior_by_node, partial_spec_by_node, random_rows, random_substrate


def row_bits(rows: dict) -> list:
    """Rows as (node, options, masses as exact bit patterns), in dict order."""
    return [(node, r.options, [m.hex() for m in r.mass]) for node, r in rows.items()]


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except GraftError as exc:
        return ("raised", type(exc).__name__, str(exc))


def as_before(entry: MemoryEntry) -> MemoryEntry:
    """``entry`` with its path nodes as the frozenset entries held before."""
    old = copy.copy(entry)
    old.method_path_nodes = frozenset(entry.method_path_nodes)
    return old


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_votes_match_the_node_by_node_path_bit_for_bit(seed, data):
    s = random_substrate(seed)
    e = layout(s.tree)
    k = min_injective_k(e)
    rows = random_rows(s, seed + 1)
    methods = [sample_method(s, rows, i) for i in range(6)]
    problems = [fingerprint(e, method_path_nodes(s, m), k) for m in methods[:3]]
    # one entry may carry extra names: tree nodes (a second pick under a node,
    # or a pick under a node off the path), a removed node, or a name twice
    faulty = data.draw(st.integers(0, len(methods) - 1))
    extra = data.draw(st.lists(st.sampled_from([*sorted(s.tree.depth), "removed_a", "removed_b"]), max_size=3))
    new, old = MemoryRepository(e.tree_version, s.tree_version), MemoryRepository(e.tree_version, s.tree_version)
    for i, m in enumerate(methods):
        names = sorted(method_path_nodes(s, m))
        names = [*names, names[0], *extra] if i == faulty else names
        entry = MemoryEntry(problems[i % 3], m, names, {}, data.draw(st.floats(0.0, 100.0)))
        assert entry.method_path_nodes == tuple(sorted(set(names)))
        new.entries.append(entry)
        old.entries.append(as_before(entry))

    for entry, before in zip(new.entries, old.entries):
        got = outcome(lambda: row_bits(partial_spec(entry, s.tree)))
        assert got == outcome(lambda: row_bits(partial_spec_by_node(before, s.tree)))
    for query in problems:
        for n in (1, 3, 6):
            params = PriorParams(n_neighbors=n)
            got = outcome(lambda: row_bits(compile_prior(new, query, s, params).rows))
            assert got == outcome(lambda: row_bits(compile_prior_by_node(old, query, s, params).rows))


def test_a_second_pick_and_a_removed_node_raise_as_before(morning_substrate, morning_rows, morning_embedding):
    s = morning_substrate
    m = sample_method(s, morning_rows, 0)
    names = sorted(method_path_nodes(s, m))
    node = next(n for n in names if s.tree.s_children(n))
    sibling = next(c for c in s.tree.s_children(node) if c not in names)
    fp = fingerprint(morning_embedding, names, min_injective_k(morning_embedding))
    for extra, message in (
        ([sibling], f"method path picks multiple children of {node}"),
        (["gone", "also_gone"], "removed nodes ['also_gone', 'gone']; re-encode the entry"),
        ([sibling, "gone"], "removed nodes ['gone']; re-encode the entry"),
    ):
        entry = MemoryEntry(fp, m, [*names, *extra], {}, 1.0)
        with pytest.raises(StalePathError, match=re.escape(message)):
            partial_spec(entry, s.tree)
        assert outcome(partial_spec, entry, s.tree) == outcome(partial_spec_by_node, as_before(entry), s.tree)


def test_two_second_picks_raise_for_the_first_row():
    # the children sort against their parents' order, so a walk over the
    # sorted path meets the second pick under B before the one under A
    doc = {
        "root": "r",
        "nodes": ["r", "A", "B", "z1", "z2", "a1", "a2"],
        "edges": [
            {"parent": "r", "child": "A", "type": "c"},
            {"parent": "r", "child": "B", "type": "c"},
            *({"parent": "A", "child": c, "type": "s"} for c in ("z1", "z2")),
            *({"parent": "B", "child": c, "type": "s"} for c in ("a1", "a2")),
        ],
    }
    s = build_substrate(graph_from_document(doc))
    m = MethodTuple.from_picks({"A": "z1", "B": "a1"})
    e = layout(s.tree)
    entry = MemoryEntry(fingerprint(e, ["r", "A", "z1"], min_injective_k(e)), m, doc["nodes"], {}, 1.0)
    with pytest.raises(StalePathError, match="picks multiple children of A$"):
        partial_spec(entry, s.tree)
    assert outcome(partial_spec, entry, s.tree) == outcome(partial_spec_by_node, as_before(entry), s.tree)


def _trial_repository():
    """A repository holding one four-attempt trial of a small synthetic environment."""
    env = make_synthetic_env(SyntheticEnvSpec(problem_count=2, mutation_rate=0.3, noise_level=0.5), seed=2)
    repo = MemoryRepository(env.problem_substrate.tree_version, env.action_substrate.tree_version)
    run_trial(env.bind(0), env.action_substrate, repo, env.problems[0].fingerprint, budget=4, seed=0)
    return env, repo


def test_loaded_trial_built_and_positional_entries_hold_sorted_tuples(tmp_path):
    env, repo = _trial_repository()
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    loaded = io.load_memory(path).entries
    m = repo.entries[0].method
    positional = MemoryEntry(repo.entries[0].problem_fp, m, method_path_nodes(env.action_substrate, m), {}, 1.0)
    for entry in [*repo.entries, *loaded, positional]:
        nodes = entry.method_path_nodes
        assert type(nodes) is tuple and list(nodes) == sorted(set(nodes))
    assert [e.method_path_nodes for e in loaded] == [e.method_path_nodes for e in repo.entries]
    assert positional.method_path_nodes == repo.entries[0].method_path_nodes
    # the entries of one load share each name's string
    shared = {}
    for entry in loaded:
        for name in entry.method_path_nodes:
            assert shared.setdefault(name, name) is name


def test_a_record_listing_a_name_twice_or_out_of_order_loads_sorted(tmp_path):
    _, repo = _trial_repository()
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    record = json.loads(path.read_text().splitlines()[0])
    names = record["method_path_nodes"]
    record["method_path_nodes"] = [*reversed(names), names[0]]
    path.write_text(json.dumps(record) + "\n")
    [entry] = io.load_memory(path).entries
    assert entry.method_path_nodes == tuple(names)


def test_the_memory_load_streams_its_file(tmp_path):
    # the load's peak, above what the loaded repository keeps, stays below
    # half the file: the text and its lines are never all held at once
    _, repo = _trial_repository()
    trial = list(repo.entries)
    for i in range(400):
        for entry in trial:
            fresh = copy.copy(entry)
            fresh.reward = (i * 7.25) % 100.0
            repo.entries.append(fresh)
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = io.load_memory(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == len(repo)
    assert retained > before
    assert peak - retained < size / 2, (peak - retained, size)
