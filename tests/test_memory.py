import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graft import (
    EdgeType,
    Fingerprint,
    GraftError,
    MemoryEntry,
    MemoryRepository,
    MethodTuple,
    PriorParams,
    StalePathError,
    VersionMismatchError,
    build_substrate,
    compile_prior,
    enumerate_support,
    fingerprint,
    grow_tree,
    jaccard,
    layout,
    method_path_nodes,
    method_probability,
    min_injective_k,
    neighbor_weight,
    partial_spec,
    rank_neighbors,
    record,
    remove_node,
    run_trial,
    sample_method,
    uniform_rows,
)
from graft import io
from graft.graph import graph_from_document
from graft.fixtures import morning_graph

from oracles import rank_neighbors_by_jaccard


def toy_action_substrate():
    # two chains: ch_a picks a1/a2, ch_b picks b1/b2/b3
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "ch_a", "a1", "a2", "ch_b", "b1", "b2", "b3"]],
        "edges": [
            {"parent": "r", "child": "ch_a", "type": "c"},
            {"parent": "r", "child": "ch_b", "type": "c"},
            {"parent": "ch_a", "child": "a1", "type": "s"},
            {"parent": "ch_a", "child": "a2", "type": "s"},
            {"parent": "ch_b", "child": "b1", "type": "s"},
            {"parent": "ch_b", "child": "b2", "type": "s"},
            {"parent": "ch_b", "child": "b3", "type": "s"},
        ],
    }
    return build_substrate(graph_from_document(doc))


def make_fp(cells, tag="ptree", k=64):
    return Fingerprint(cells=frozenset(cells), resolution=k, tree_tag=tag, keep="s")


def entry_for(substrate, picks, fp, reward, observables=None):
    m = MethodTuple.from_picks(picks)
    return MemoryEntry(
        problem_fp=fp,
        method=m,
        method_path_nodes=method_path_nodes(substrate, m),
        observables=observables or {},
        reward=reward,
    )


@pytest.fixture
def action_substrate():
    return toy_action_substrate()


@pytest.fixture
def repo():
    return MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")


class TestRecord:
    def test_append(self, repo, action_substrate):
        e = entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp({(0, 0, 1)}), 50.0)
        record(repo, e)
        assert len(repo) == 1

    def test_same_problem_two_methods_both_kept(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1)})
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, 40.0))
        record(repo, entry_for(action_substrate, {"ch_a": "a2", "ch_b": "b2"}, fp, 60.0))
        assert len(repo) == 2

    def test_reward_out_of_range_rejected(self, repo, action_substrate):
        with pytest.raises(ValueError, match="reward"):
            entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp({(0, 0, 1)}), 101.0)

    def test_version_mismatch_rejected(self, repo, action_substrate):
        e = entry_for(
            action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp({(0, 0, 1)}, tag="other"), 10.0
        )
        with pytest.raises(VersionMismatchError):
            record(repo, e)


class TestRankNeighbors:
    def test_self_match_first(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1), (1, 1, 1)})
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, 10.0))
        record(
            repo,
            entry_for(action_substrate, {"ch_a": "a2", "ch_b": "b2"}, make_fp({(5, 5, 2)}), 90.0),
        )
        ranked = rank_neighbors(repo, fp, 2)
        assert ranked[0][1] == 1.0
        assert ranked[0][0].reward == 10.0

    def test_disjoint_ties_break_by_reward_then_insertion(self, repo, action_substrate):
        query = make_fp({(9, 9, 3)})
        rewards = [30.0, 70.0, 70.0]
        for i, r in enumerate(rewards):
            record(
                repo,
                entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp({(i, 0, 1)}), r),
            )
        ranked = rank_neighbors(repo, query, 3)
        assert [e.reward for e, _ in ranked] == [70.0, 70.0, 30.0]
        assert [s for _, s in ranked] == [0.0, 0.0, 0.0]
        # equal-reward tie keeps insertion order: entry 1 before entry 2
        assert ranked[0][0] is repo.entries[1]
        assert ranked[1][0] is repo.entries[2]

    def test_hand_computed_jaccard_ordering(self, repo, action_substrate):
        query = make_fp({(i, 0, 0) for i in range(4)})
        cell_sets = [
            {(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)},  # J = 1
            {(0, 0, 0), (1, 0, 0), (9, 9, 9)},  # J = 2/5
            {(0, 0, 0), (8, 8, 8)},  # J = 1/5
            {(7, 7, 7)},  # J = 0
            {(0, 0, 0), (1, 0, 0), (2, 0, 0)},  # J = 3/4
        ]
        for i, cells in enumerate(cell_sets):
            record(
                repo,
                entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp(cells), 50.0),
            )
        ranked = rank_neighbors(repo, query, 5)
        assert [s for _, s in ranked] == [1.0, 3 / 4, 2 / 5, 1 / 5, 0.0]

    def test_stale_entries_skipped(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1)})
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, 10.0))
        repo.entries[0].stale = True
        assert rank_neighbors(repo, fp, 3) == []


# -- the columnar index against jaccard, entry by entry --------------------------

UNIVERSES = (3, 100)  # few cells give ties in similarity; 100 is more than one 64-bit word
REWARDS = (0.0, 10.0, 55.5, 100.0)  # few values give ties in reward
UNSEEN = (999, 0, 1)  # a cell no stored fingerprint holds
TOY = toy_action_substrate()


def ranking_outcome(rank, repo, query, n):
    """Identity of each neighbour and the exact bits of its similarity, or
    the error's type and message."""
    try:
        return [(id(e), type(s), s.hex()) for e, s in rank(repo, query, n)]
    except GraftError as exc:
        return type(exc), str(exc)


def assert_ranks_as_jaccard(repo, query):
    for n in (-1, 0, 1, 3, len(repo) + 2):
        assert ranking_outcome(rank_neighbors, repo, query, n) == ranking_outcome(
            rank_neighbors_by_jaccard, repo, query, n
        )


@st.composite
def cell_sets(draw, universe):
    return frozenset((i % 10, i // 10, 1) for i in draw(st.sets(st.integers(0, universe - 1), min_size=1)))


def append_entries(repo, specs, via_record):
    """Each spec is (cells, reward, stale, share): ``share`` reuses the last
    entry's Fingerprint object, as the entries of one trial do."""
    for cells, reward, stale, share in specs:
        fp = repo.entries[-1].problem_fp if share and repo.entries else make_fp(cells)
        entry = entry_for(TOY, {"ch_a": "a1", "ch_b": "b1"}, fp, reward)
        entry.stale = stale
        if via_record:
            record(repo, entry)
        else:
            repo.entries.append(entry)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_ranks_as_jaccard_entry_by_entry(data):
    universe = data.draw(st.sampled_from(UNIVERSES))
    cells = cell_sets(universe)
    specs = st.lists(st.tuples(cells, st.sampled_from(REWARDS), st.booleans(), st.booleans()), max_size=10)
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    if data.draw(st.booleans()):  # one fingerprint holding every cell of the universe
        every_cell = frozenset((i % 10, i // 10, 1) for i in range(universe))
        append_entries(repo, [(every_cell, 50.0, False, False)], via_record=True)
    append_entries(repo, data.draw(specs), via_record=True)
    query = make_fp(data.draw(cells) | ({UNSEEN} if data.draw(st.booleans()) else set()))
    assert_ranks_as_jaccard(repo, query)

    if repo.entries:
        for i in data.draw(st.sets(st.integers(0, len(repo) - 1))):
            repo.entries[i].stale = not repo.entries[i].stale
    append_entries(repo, data.draw(specs), via_record=True)
    append_entries(repo, data.draw(specs), via_record=False)
    assert_ranks_as_jaccard(repo, query)

    change = data.draw(st.sampled_from(["none", "replace", "shrink", "swap-last"]))
    if change == "replace":
        repo.entries = list(repo.entries)
    elif change == "shrink":
        del repo.entries[len(repo) // 2 :]
    elif change == "swap-last" and repo.entries:
        repo.entries.pop()
        append_entries(repo, data.draw(specs)[:1], via_record=False)
    append_entries(repo, data.draw(specs), via_record=False)
    assert_ranks_as_jaccard(repo, make_fp(data.draw(cells)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_raises_as_jaccard_does(data):
    cells = cell_sets(UNIVERSES[0])
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    good = st.lists(st.tuples(cells, st.sampled_from(REWARDS), st.booleans(), st.just(False)), max_size=4)
    append_entries(repo, data.draw(good), via_record=True)
    assert_ranks_as_jaccard(repo, make_fp(data.draw(cells)))
    kind = data.draw(st.sampled_from(["tag", "resolution", "empty"]))
    mismatch = {"tag": dict(tag="other"), "resolution": dict(k=32), "empty": {}}[kind]
    bad = make_fp(set() if kind == "empty" else data.draw(cells), **mismatch)
    entry = entry_for(TOY, {"ch_a": "a2", "ch_b": "b3"}, bad, 10.0)
    entry.stale = data.draw(st.booleans())
    # at the end the index extends over it; anywhere else it is rebuilt
    repo.entries.insert(data.draw(st.integers(0, len(repo))), entry)
    append_entries(repo, data.draw(good), via_record=False)
    query = make_fp(set()) if data.draw(st.booleans()) else make_fp(data.draw(cells))
    assert_ranks_as_jaccard(repo, query)
    entry.stale = not entry.stale
    assert_ranks_as_jaccard(repo, query)


# -- stale flags changed between rankings ----------------------------------------

PICKS = [{"ch_a": a, "ch_b": b} for a in ("a1", "a2") for b in ("b1", "b2", "b3")]
LEAVES = ("a1", "a2", "b1", "b2", "b3")


def append_varied(repo, specs):
    """Each spec is (cells, reward, picks index); the picks vary, so that
    ``remove_node`` flags some entries and not others."""
    for cells, reward, pick in specs:
        record(repo, entry_for(TOY, PICKS[pick], make_fp(cells), reward))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_ranks_as_jaccard_as_stale_flags_change(data):
    cells = cell_sets(UNIVERSES[1])
    specs = st.lists(st.tuples(cells, st.sampled_from(REWARDS), st.integers(0, len(PICKS) - 1)), min_size=1, max_size=8)
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    other = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    append_varied(repo, data.draw(specs))
    append_varied(other, data.draw(specs))
    shared = repo.entries[data.draw(st.integers(0, len(repo) - 1))]
    record(other, shared)  # one entry object in both repositories
    append_varied(other, data.draw(specs))
    query = make_fp(data.draw(cells))
    steps = st.lists(st.sampled_from(["flip", "flip-and-back", "shared", "remove_node", "append"]), max_size=6)
    for step in ["none", *data.draw(steps)]:
        if step in ("flip", "flip-and-back"):
            entry = repo.entries[data.draw(st.integers(0, len(repo) - 1))]
            entry.stale = not entry.stale
            if step == "flip-and-back":
                entry.stale = not entry.stale
        elif step == "shared":
            shared.stale = not shared.stale
        elif step == "remove_node":
            remove_node(TOY, uniform_rows(TOY), data.draw(st.sampled_from(LEAVES)), repo=repo)
        elif step == "append":
            append_varied(repo, data.draw(specs))
        assert_ranks_as_jaccard(repo, query)
        assert_ranks_as_jaccard(other, query)


class IterCountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_ranking_after_appends_makes_no_pass_over_the_entries(repo, action_substrate):
    repo.entries = IterCountingList()
    fp = make_fp({(0, 0, 1)})
    for reward in (10.0, 20.0):
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, reward))
    rank_neighbors(repo, fp, 3)
    for reward in (30.0, 40.0):
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, reward))
    repo.entries.passes = 0
    assert [e.reward for e, _ in rank_neighbors(repo, fp, 3)] == [40.0, 30.0, 20.0]
    assert repo.entries.passes == 0
    repo.entries[3].stale = True  # a ranking reads flags by index, never by a pass
    assert [e.reward for e, _ in rank_neighbors(repo, fp, 3)] == [30.0, 20.0, 10.0]
    assert [e.reward for e, _ in rank_neighbors(repo, fp, 3)] == [30.0, 20.0, 10.0]
    assert repo.entries.passes == 0


def test_ranking_widens_its_cut_past_a_stale_top():
    """The 50 entries most similar to the query are stale, so the best cut
    holds no live entry and must be widened until three are found."""
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    query = make_fp({(i, 0, 1) for i in range(8)})
    for i in range(200):  # similarity 8/8, 7/8, ..., 1/8 in blocks of 25 tied entries
        cells = {(j, 0, 1) for j in range(8 - i // 25)}
        entry = entry_for(TOY, {"ch_a": "a1", "ch_b": "b1"}, make_fp(cells), REWARDS[i % len(REWARDS)])
        entry.stale = i < 50
        record(repo, entry)
    assert ranking_outcome(rank_neighbors, repo, query, 3) == ranking_outcome(rank_neighbors_by_jaccard, repo, query, 3)
    assert [(e.reward, s) for e, s in rank_neighbors(repo, query, 3)] == [(100.0, 6 / 8)] * 3


# -- one row per distinct fingerprint ---------------------------------------------

SHAPES = [frozenset((i, 0, 1) for i in range(k)) for k in (1, 2, 3)] + [frozenset({(0, 0, 1), (5, 0, 1)})]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_ranks_as_jaccard_over_equal_fingerprints(data):
    """Every entry gets its own Fingerprint object, equal to others of its
    shape, and keep "s" or "all" makes two rows of one shape, so ties span
    rows; each batch between rankings lands mid-order in rows made before,
    and a burst gives one row more new entries than a few appends."""
    shape, keep = st.integers(0, len(SHAPES) - 1), st.sampled_from(["s", "all"])
    reward = st.one_of(st.sampled_from(REWARDS), st.floats(0.0, 100.0))
    batch = st.lists(st.tuples(shape, keep, reward, st.booleans()), min_size=1, max_size=12)
    burst = st.tuples(shape, keep, st.lists(st.tuples(reward, st.booleans()), min_size=33, max_size=40))
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    for _ in range(data.draw(st.integers(1, 4))):
        specs = data.draw(batch)
        if data.draw(st.booleans()):
            k, kept, rewards = data.draw(burst)
            specs += [(k, kept, r, stale) for r, stale in rewards]
        for k, keep, r, stale in specs:
            fp = Fingerprint(cells=SHAPES[k], resolution=64, tree_tag="ptree", keep=keep)
            entry = entry_for(TOY, {"ch_a": "a1", "ch_b": "b1"}, fp, r)
            entry.stale = stale
            record(repo, entry)
        query = make_fp(SHAPES[data.draw(shape)] | ({UNSEEN} if data.draw(st.booleans()) else set()))
        for n in (1, 3, 10, len(repo) + 2):
            assert ranking_outcome(rank_neighbors, repo, query, n) == ranking_outcome(
                rank_neighbors_by_jaccard, repo, query, n
            )


# -- levels that span cell counts ----------------------------------------------------

QUERY = sorted((i, 0, 1) for i in range(6))
OUTSIDE = [(i, 1, 1) for i in range(8)]  # cells off the query
UNHELD = [(i, 2, 1) for i in range(2)]  # query cells that no entry holds
GROUPS = [("ptree", 64)] * 6 + [("other", 64), ("ptree", 32)]  # the last two raise when live


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_ranks_as_jaccard_across_cell_counts(data):
    """An entry holds i query cells and e others, so its similarity is i / (e + q);
    half the time e = 2i - q, which puts it at 1/2 whatever its cell count
    (3/6 = 4/8 = 5/10 ...).  The query may hold cells no row holds, live rows
    of another (tree_tag, resolution) raise in index order, stale entries sit
    inside levels, and n runs past the live entries."""
    query = make_fp(set(QUERY) | set(UNHELD[: data.draw(st.integers(0, len(UNHELD)))]))
    q = len(query.cells)
    groups = GROUPS if data.draw(st.booleans()) else GROUPS[:1]
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    for _ in range(data.draw(st.integers(1, 3))):  # batches between rankings
        for _ in range(data.draw(st.integers(1, 12))):
            i = data.draw(st.integers(0, len(QUERY)))
            e = 2 * i - q if 2 * i >= q and data.draw(st.booleans()) else data.draw(st.integers(int(i == 0), 6))
            cells = data.draw(st.sets(st.sampled_from(QUERY), min_size=i, max_size=i))
            cells |= data.draw(st.sets(st.sampled_from(OUTSIDE), min_size=e, max_size=e))
            tag, k = data.draw(st.sampled_from(groups))
            fp, reward = make_fp(cells, tag=tag, k=k), data.draw(st.sampled_from(REWARDS))
            entry = entry_for(TOY, {"ch_a": "a1", "ch_b": "b1"}, fp, reward)
            entry.stale = data.draw(st.booleans())
            repo.entries.append(entry)
        live = sum(not entry.stale for entry in repo.entries)
        for n in (1, 3, live + 1, len(repo) + 3):
            assert ranking_outcome(rank_neighbors, repo, query, n) == ranking_outcome(
                rank_neighbors_by_jaccard, repo, query, n
            )


class ReadCountingList(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_ranking_reads_only_the_entries_it_returns_or_skips(n):
    """10,000 entries on 10 fingerprints: a ranking reads the n entries it
    returns and the stale ones it skips, and one more that checks the list
    only grew since the index was built."""
    import random

    rng = random.Random(n)
    shapes = [frozenset((i, j, 1) for i in range(4 + j)) for j in range(10)]
    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version="atree")
    for i in range(10_000):
        entry = entry_for(TOY, {"ch_a": "a1", "ch_b": "b1"}, make_fp(shapes[i % 10] | shapes[0]), rng.uniform(0, 100))
        entry.stale = rng.random() < 0.05
        repo.entries.append(entry)
    repo.entries = ReadCountingList(repo.entries)
    query = make_fp(shapes[3])
    rank_neighbors(repo, query, n)  # builds the index: one row per distinct fingerprint
    assert len(repo._index.rows) == 10
    ranked = sorted(range(len(repo)), key=lambda i: (-jaccard(query, repo.entries[i].problem_fp), -repo.entries[i].reward, i))
    live = [i for i in ranked if not repo.entries[i].stale][:n]
    skipped = sum(repo.entries[i].stale for i in ranked[: ranked.index(live[-1])])
    repo.entries.reads = 0
    found = rank_neighbors(repo, query, n)
    assert repo.entries.reads <= n + skipped + 1
    assert [e for e, _ in found] == [repo.entries[i] for i in live]
    assert ranking_outcome(rank_neighbors, repo, query, n) == ranking_outcome(rank_neighbors_by_jaccard, repo, query, n)


def test_equal_picks_share_their_pairs(tmp_path):
    class Flat:  # every method scores 50
        convergence_reward = None

        def implement(self, action, state):
            return action

        def execute(self, state):
            return {"hit": 0.5}

        def score(self, observables):
            return 50.0

    repo = MemoryRepository(problem_tree_version="ptree", action_tree_version=TOY.tree_version)
    run_trial(Flat(), TOY, repo, make_fp({(0, 0, 1)}), budget=len(PICKS), seed=5)
    io.save_memory(repo, tmp_path / "memory.jsonl")
    loaded = io.load_memory(tmp_path / "memory.jsonl")
    assert len(loaded) == len(repo) == len(PICKS)
    for made, read in zip(repo.entries, loaded.entries):
        # fresh strings, so that equal literals cannot stand in for shared pairs
        fresh = MethodTuple.from_picks({"".join(k): "".join(v) for k, v in made.method.items})
        assert read.method == made.method == fresh
        assert all(p is q is r for p, q, r in zip(made.method.items, read.method.items, fresh.items))


class TestNeighborWeight:
    def test_sigmoid_midpoint(self):
        assert abs(neighbor_weight(0.55, 100.0) - 0.5) < 1e-12

    def test_zero_reward_zero_weight(self):
        assert neighbor_weight(0.9, 0.0) == 0.0

    def test_perfect_similarity_value(self):
        expected = 1.0 / (1.0 + math.exp(-7.0 * (1.0 - 0.55)))
        w = neighbor_weight(1.0, 100.0)
        assert abs(w - expected) < 1e-15
        assert abs(w - 0.9589) < 2e-4  # reported constant


class TestPartialSpec:
    def test_one_hot_on_path_uniform_off_path(self, action_substrate):
        e = entry_for(
            action_substrate, {"ch_a": "a1", "ch_b": "b2"}, make_fp({(0, 0, 1)}), 50.0
        )
        spec = partial_spec(e, action_substrate.tree)
        assert spec["ch_a"].as_mapping() == {"a1": 1.0, "a2": 0.0}
        assert spec["ch_b"].as_mapping() == {"b1": 0.0, "b2": 1.0, "b3": 0.0}

    def test_inactive_chain_rows_uniform(self):
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "A", "on", "off", "B", "b1", "b2"]],
            "edges": [
                {"parent": "r", "child": "A", "type": "c"},
                {"parent": "A", "child": "off", "type": "s"},
                {"parent": "A", "child": "on", "type": "s"},
                {"parent": "on", "child": "B", "type": "c"},
                {"parent": "B", "child": "b1", "type": "s"},
                {"parent": "B", "child": "b2", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        e = entry_for(s, {"A": "off", "B": None}, make_fp({(0, 0, 1)}), 50.0)
        spec = partial_spec(e, s.tree)
        assert spec["A"].as_mapping() == {"off": 1.0, "on": 0.0}
        assert spec["B"].as_mapping() == {"b1": 0.5, "b2": 0.5}

    def test_stale_path_raises(self, action_substrate):
        e = MemoryEntry(
            problem_fp=make_fp({(0, 0, 1)}),
            method=MethodTuple.from_picks({"ch_a": "a1", "ch_b": "b1"}),
            method_path_nodes=frozenset({"r", "ch_a", "a1", "removed_node"}),
            observables={},
            reward=10.0,
        )
        with pytest.raises(StalePathError, match="re-encode"):
            partial_spec(e, action_substrate.tree)


class TestCompilePrior:
    def test_empty_repo_uniform_bitwise(self, repo, action_substrate):
        rows = compile_prior(repo, make_fp({(0, 0, 1)}), action_substrate)
        base = uniform_rows(action_substrate)
        assert rows.rows == base.rows

    def test_zero_weight_neighbors_fall_back_bitwise(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1)})
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, 0.0))
        rows = compile_prior(repo, fp, action_substrate)
        assert rows.rows == uniform_rows(action_substrate).rows

    def test_single_perfect_neighbor_mass(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1)})
        record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b2"}, fp, 100.0))
        rows = compile_prior(repo, fp, action_substrate)
        w = neighbor_weight(1.0, 100.0)
        assert rows.rows["ch_a"].probability_of("a1") == pytest.approx(w + (1 - w) / 2, abs=1e-12)
        assert rows.rows["ch_b"].probability_of("b2") == pytest.approx(w + (1 - w) / 3, abs=1e-12)

    def test_three_neighbor_blend_hand_computed(self, repo, action_substrate):
        # similarities anchored at J = 0.60, 0.45, 0.44 via crafted cell sets
        shared = [(i, 0, 0) for i in range(12)]
        p_new = make_fp(set(shared))
        b1 = set(shared[:9]) | {(100 + i, 1, 1) for i in range(3)}   # J = 9/15
        b2 = set(shared[:9]) | {(200 + i, 1, 1) for i in range(8)}   # J = 9/20
        b3 = set(shared[:11]) | {(300 + i, 1, 1) for i in range(13)}  # J = 11/25
        rewards = [90.0, 70.0, 50.0]
        picks = [
            {"ch_a": "a1", "ch_b": "b1"},
            {"ch_a": "a1", "ch_b": "b2"},
            {"ch_a": "a2", "ch_b": "b1"},
        ]
        for cells, r, p in zip([b1, b2, b3], rewards, picks):
            record(repo, entry_for(action_substrate, p, make_fp(cells), r))
        ranked = rank_neighbors(repo, p_new, 3)
        assert [round(s, 10) for _, s in ranked] == [0.6, 0.45, 0.44]

        rows = compile_prior(repo, p_new, action_substrate)

        # independent arithmetic straight from the update equations
        sims = [0.6, 0.45, 0.44]
        ws = [
            (1.0 / (1.0 + math.exp(-7.0 * (s - 0.55)))) * (r / 100.0)
            for s, r in zip(sims, rewards)
        ]
        w_tot = sum(ws)
        w_bar = min(1.0, w_tot / 3.0)
        votes_a1 = ws[0] + ws[1]
        expected_a1 = w_bar * (votes_a1 / w_tot) + (1 - w_bar) * 0.5
        assert rows.rows["ch_a"].probability_of("a1") == pytest.approx(expected_a1, abs=1e-12)
        votes_b1 = ws[0] + ws[2]
        expected_b1 = w_bar * (votes_b1 / w_tot) + (1 - w_bar) / 3.0
        assert rows.rows["ch_b"].probability_of("b1") == pytest.approx(expected_b1, abs=1e-12)

    def test_reward_sweep_strictly_increases_picked_mass(self, action_substrate):
        fp = make_fp({(0, 0, 1)})
        last = -1.0
        for reward in range(0, 101, 5):
            repo = MemoryRepository("ptree", "atree")
            record(repo, entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, fp, float(reward)))
            rows = compile_prior(repo, fp, action_substrate)
            mass = rows.rows["ch_a"].probability_of("a1")
            assert mass > last
            last = mass

    def test_unvisited_rows_collapse_to_uniform_bitwise(self, repo, action_substrate):
        # the neighbour leaves ch_b inactive in a nested variant; here we use a
        # tree where one chain is gated so its rows are never on the path
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "A", "on", "off", "B", "b1", "b2"]],
            "edges": [
                {"parent": "r", "child": "A", "type": "c"},
                {"parent": "A", "child": "off", "type": "s"},
                {"parent": "A", "child": "on", "type": "s"},
                {"parent": "on", "child": "B", "type": "c"},
                {"parent": "B", "child": "b1", "type": "s"},
                {"parent": "B", "child": "b2", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        repo2 = MemoryRepository("ptree", s.tree_version)
        fp = make_fp({(0, 0, 1)})
        record(repo2, entry_for(s, {"A": "off", "B": None}, fp, 80.0))
        rows = compile_prior(repo2, fp, s)
        assert rows.rows["B"] == uniform_rows(s).rows["B"]  # bitwise
        assert rows.rows["A"].probability_of("off") > 0.5

    def test_rows_are_distributions(self, repo, action_substrate):
        fp = make_fp({(0, 0, 1)})
        rng = np.random.default_rng(5)
        for i in range(6):
            cells = {(int(rng.integers(0, 6)), 0, 0) for _ in range(int(rng.integers(1, 5)))}
            picks = {
                "ch_a": ["a1", "a2"][int(rng.integers(2))],
                "ch_b": ["b1", "b2", "b3"][int(rng.integers(3))],
            }
            record(repo, entry_for(action_substrate, picks, make_fp(cells), float(rng.integers(101))))
        rows = compile_prior(repo, fp, action_substrate)
        for row in rows.rows.values():
            assert abs(sum(row.mass) - 1.0) < 1e-12
            assert all(m >= 0.0 for m in row.mass)

    def test_rule_supremacy_under_adversarial_votes(self):
        s = build_substrate(morning_graph())
        pe = layout(s.tree)  # problem side reuses the same tree for this check
        repo = MemoryRepository(pe.tree_version, s.tree_version)
        fp = fingerprint(pe, s.tree.path_from_root("breakfast_yes"), min_injective_k(pe))
        # a neighbour that biked without a helmet (recorded before the rule existed, say)
        bad = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_yes",
                "clothes": "clothes",
                "style": "style_casual",
                "helmet": "helmet_no",
                "transport": "transport_bike",
            }
        )
        repo.entries.append(
            MemoryEntry(
                problem_fp=fp,
                method=bad,
                method_path_nodes=method_path_nodes(s, bad),
                observables={},
                reward=100.0,
            )
        )
        rows = compile_prior(repo, fp, s)
        # the helmet row is biased towards no, but sampling never violates the rule
        assert rows.rows["helmet"].probability_of("helmet_no") > 0.9
        for seed in range(3000):
            m = sample_method(s, rows, seed)
            if m.picks["transport"] == "transport_bike":
                assert m.picks["helmet"] == "helmet_yes"


class TestGrowTree:
    def test_third_child_gets_sibling_mean(self, action_substrate):
        rows = uniform_rows(action_substrate)
        s2, rows2 = grow_tree(action_substrate, rows, "ch_a", "a3")
        assert rows2.rows["ch_a"].as_mapping() == {
            "a1": pytest.approx(1 / 3, abs=1e-15),
            "a2": pytest.approx(1 / 3, abs=1e-15),
            "a3": pytest.approx(1 / 3, abs=1e-15),
        }
        assert s2.joint_size == 9  # 3 x 3 now

    def test_sibling_mean_on_skewed_row(self, action_substrate):
        from graft.policy import PolicyRows, ProbabilityRow

        rows = uniform_rows(action_substrate)
        skewed = dict(rows.rows)
        skewed["ch_b"] = ProbabilityRow(options=("b1", "b2", "b3"), mass=(0.6, 0.3, 0.1))
        rows = PolicyRows(rows=skewed, tree_version=rows.tree_version)
        _, rows2 = grow_tree(action_substrate, rows, "ch_b", "b4")
        mean = (0.6 + 0.3 + 0.1) / 3
        total = 1.0 + mean
        assert rows2.rows["ch_b"].probability_of("b4") == pytest.approx(mean / total, abs=1e-12)
        assert rows2.rows["ch_b"].probability_of("b1") == pytest.approx(0.6 / total, abs=1e-12)

    def test_mixed_edge_type_rejected(self, action_substrate):
        with pytest.raises(Exception, match="mixed"):
            grow_tree(action_substrate, uniform_rows(action_substrate), "ch_a", "a3", edge_kind=EdgeType.CHARACTERIZED_BY)

    def test_old_method_paths_still_evaluate_after_batch_growth(self, action_substrate):
        rows = uniform_rows(action_substrate)
        m_old = MethodTuple.from_picks({"ch_a": "a1", "ch_b": "b2"})
        p_old = method_probability(action_substrate, rows, m_old)
        assert p_old > 0.0
        s2, rows2 = grow_tree(action_substrate, rows, "ch_a", "a3")
        s3, rows3 = grow_tree(s2, rows2, "ch_b", "b4")
        assert s3.tree_version != action_substrate.tree_version
        p_new = method_probability(s3, rows3, m_old)
        assert p_new > 0.0

    def test_version_bump_invalidates_fingerprint_tags(self, action_substrate):
        e1 = layout(action_substrate.tree)
        s2, _ = grow_tree(action_substrate, uniform_rows(action_substrate), "ch_a", "a3")
        e2 = layout(s2.tree)
        assert e1.tree_version != e2.tree_version


class TestRemoveNode:
    def test_remove_one_of_two_leaves_survivor_takes_all(self, action_substrate):
        s2, rows2 = remove_node(action_substrate, uniform_rows(action_substrate), "a2")
        assert rows2.rows["ch_a"].as_mapping() == {"a1": 1.0}

    def test_proportional_redistribution(self, action_substrate):
        from graft.policy import PolicyRows, ProbabilityRow

        rows = uniform_rows(action_substrate)
        skewed = dict(rows.rows)
        skewed["ch_b"] = ProbabilityRow(options=("b1", "b2", "b3"), mass=(0.5, 0.3, 0.2))
        rows = PolicyRows(rows=skewed, tree_version=rows.tree_version)
        _, rows2 = remove_node(action_substrate, rows, "b3")
        assert rows2.rows["ch_b"].mass == (0.5 / 0.8, 0.3 / 0.8)

    def test_sole_child_rejected(self):
        doc = {
            "root": "r",
            "nodes": [{"id": "r"}, {"id": "X"}, {"id": "only"}],
            "edges": [
                {"parent": "r", "child": "X", "type": "c"},
                {"parent": "X", "child": "only", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        with pytest.raises(GraftError, match="sole child"):
            remove_node(s, uniform_rows(s), "only")

    def test_referencing_entries_flagged_stale(self, action_substrate):
        repo = MemoryRepository("ptree", action_substrate.tree_version)
        e = entry_for(action_substrate, {"ch_a": "a2", "ch_b": "b1"}, make_fp({(0, 0, 1)}), 10.0)
        record(repo, e)
        other = entry_for(action_substrate, {"ch_a": "a1", "ch_b": "b1"}, make_fp({(0, 0, 1)}), 10.0)
        record(repo, other)
        remove_node(action_substrate, uniform_rows(action_substrate), "a2", repo=repo)
        assert repo.entries[0].stale
        assert not repo.entries[1].stale
        assert len(repo) == 2  # flagged, not deleted
