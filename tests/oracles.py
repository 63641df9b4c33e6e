"""Independent oracles and random-instance generators for the test suite.

Everything here recomputes results from the substrate's raw data (tree,
chain index, raw rules, rows) with its own arithmetic and its own activity
and level definitions, so the library's kernel/probability path is checked
against a genuinely separate derivation.
"""

from __future__ import annotations

import heapq
from collections import deque
import itertools
from typing import Mapping, Optional

import numpy as np

from graft import KnowledgeGraph, MethodTuple, Substrate, build_substrate, graph_from_document, jaccard
from graft.embedding import K_MAX, Embedding
from graft.errors import ResolutionSearchError
from graft.errors import StalePathError, SupportExhaustedError, VersionMismatchError
from graft.loop import ADVISOR_STRATEGIES, _editable_chains
from graft.memory import MemoryEntry, MemoryRepository, PriorParams, _apply_certain_rules, neighbor_weight, rank_neighbors
from graft.policy import _OPERATORS, INACTIVE, MAX_RETRIES, PolicyRows, ProbabilityRow, _draw, uniform_rows, validate_tuple


# -- neighbour ranking, entry by entry ------------------------------------------


def rank_neighbors_by_jaccard(repo: MemoryRepository, p_new, n: int) -> list[tuple[MemoryEntry, float]]:
    """Top-n non-stale entries by similarity desc, reward desc, insertion
    order, calling ``jaccard`` once per entry."""
    scored = ((-jaccard(p_new, e.problem_fp), -e.reward, i, e) for i, e in enumerate(repo.entries) if not e.stale)
    return [(e, -neg_sim) for neg_sim, _, _, e in heapq.nsmallest(n, scored)]


# -- prior votes, node by node ----------------------------------------------------
# The vote path before votes were read from one map per entry: each s-node
# asks every neighbour for its pick, intersecting the node's s-children with
# the path.


def check_path_current(entry: MemoryEntry, tree) -> None:
    missing = [n for n in entry.method_path_nodes if n not in tree.depth]
    if missing:
        raise StalePathError(f"method path references removed nodes {sorted(missing)}; re-encode the entry")


def vote_at(entry: MemoryEntry, tree, node: str) -> str | None:
    """The child this entry's path picks at ``node``, or None off-path."""
    path = entry.method_path_nodes
    hits = [c for c in tree.s_children(node) if c in path] if node in path else ()
    if len(hits) > 1:
        raise StalePathError(f"method path picks multiple children of {node}")
    return hits[0] if hits else None


def partial_spec_by_node(entry: MemoryEntry, tree) -> dict[str, ProbabilityRow]:
    """One neighbour's row votes: one-hot along its path, uniform elsewhere."""
    check_path_current(entry, tree)
    spec: dict[str, ProbabilityRow] = {}
    for node, uniform in tree.uniform_rows.items():
        chosen = vote_at(entry, tree, node)
        if chosen is None:
            spec[node] = uniform
        else:
            spec[node] = ProbabilityRow(uniform.options, tuple(1.0 if c == chosen else 0.0 for c in uniform.options))
    return spec


def compile_prior_by_node(repo: MemoryRepository, p_new, substrate: Substrate, params=PriorParams()) -> PolicyRows:
    """Blend neighbour votes with the uniform prior, then apply certain rules."""
    if p_new.tree_tag != repo.problem_tree_version:
        raise VersionMismatchError("query fingerprint does not match the repository's problem tree")
    tree = substrate.tree
    base = uniform_rows(substrate)

    neighbors = rank_neighbors(repo, p_new, params.n_neighbors)
    weights = [neighbor_weight(sim, e.reward) for e, sim in neighbors]
    w_tot = sum(weights)
    n_eff = sum(1 for w in weights if w > 0.0)

    if w_tot == 0.0 or n_eff == 0:
        rows = dict(base.rows)  # exact fallback: the uniform prior, bitwise
    else:
        w_bar = min(1.0, max(0.0, w_tot / n_eff))
        for entry, _ in neighbors:
            check_path_current(entry, tree)
        rows = {}
        for node, mu in base.rows.items():
            votes = [vote_at(e, tree, node) for e, _ in neighbors]
            if all(v is None for v in votes):
                rows[node] = mu  # the average collapses to the uniform row, bitwise
                continue
            data = [0.0] * len(mu.options)
            for w, vote in zip(weights, votes):
                if vote is None:
                    for i, u in enumerate(mu.mass):
                        data[i] += w * u
                else:
                    data[mu.options.index(vote)] += w
            data = [d / w_tot for d in data]
            blended = tuple(w_bar * d + (1.0 - w_bar) * u for d, u in zip(data, mu.mass))
            rows[node] = ProbabilityRow(options=mu.options, mass=blended)

    _apply_certain_rules(substrate, rows)
    return PolicyRows(rows=rows, tree_version=substrate.tree_version)


# -- the resolution search over numpy arrays ------------------------------------


def min_injective_k_numpy(e: Embedding, cap: int = K_MAX) -> int:
    """Smallest resolution at which binning separates every node; hard cap."""
    nodes = sorted(e.position)
    xs = np.array([e.position[n][0] for n in nodes])
    ys = np.array([e.position[n][1] for n in nodes])
    ds = np.array([e.depth[n] for n in nodes], dtype=np.int64)
    n = len(nodes)
    for k in range(1, cap + 1):
        ix = np.minimum(k - 1, np.floor(k * xs)).astype(np.int64)
        iy = np.minimum(k - 1, np.floor(k * ys)).astype(np.int64)
        keys = (ix * (k + 1) + iy) * np.int64(len(nodes) + e.max_depth + 2) + ds
        if len(np.unique(keys)) == n:
            return k
    raise ResolutionSearchError(f"no K <= {cap} separates all nodes")


# -- the spanning-tree parent, by its definition ----------------------------------


def kept_parents(doc: dict) -> dict[str, str]:
    """node -> the parent the spanning tree keeps: the annotated canonical
    parent, else the parent fewest edges from the root, ties by name."""
    distance, queue = {doc["root"]: 0}, deque([doc["root"]])
    while queue:
        n = queue.popleft()
        for e in doc["edges"]:
            if e["parent"] == n and e["child"] not in distance:
                distance[e["child"]] = distance[n] + 1
                queue.append(e["child"])
    kept: dict[str, str] = {}
    for e in doc["edges"]:
        child, p = e["child"], e["parent"]
        if child not in kept or (distance[p], p) < (distance[kept[child]], kept[child]):
            kept[child] = p
    return {**kept, **doc.get("canonical_parent", {})}


# -- independent longest-path levels ------------------------------------------


def longest_path_levels(vertices, edges) -> dict[str, int]:
    """Recursive longest-path length per vertex (memoised, not a fix-point)."""
    incoming: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        incoming[b].append(a)
    memo: dict[str, int] = {}

    def lp(v: str) -> int:
        if v not in memo:
            memo[v] = 0 if not incoming[v] else 1 + max(lp(a) for a in incoming[v])
        return memo[v]

    return {v: lp(v) for v in vertices}


# -- independent enumeration of the joint -------------------------------------


def _on_picked_path(substrate: Substrate, node: str, pick: str) -> bool:
    # node lies on the path from its chain root down to the picked terminal
    cur = pick
    while True:
        if cur == node:
            return True
        if cur == substrate.tree.root:
            return False
        cur = substrate.tree.parent[cur]


def _oracle_active(substrate: Substrate, chain_id: str, assignment: dict) -> bool:
    """Activity from first principles: every s-decision on the path from the
    global root to the chain root must have its on-path child selected."""
    tree = substrate.tree
    root = substrate.chains.chains[chain_id].root
    path = tree.path_from_root(root)
    for here, below in zip(path, path[1:]):
        if not tree.s_children(here):
            continue
        owner = substrate.chains.enclosing[below]
        pick = assignment.get(owner)
        if pick is None:
            return False
        if not _on_picked_path(substrate, below, pick):
            return False
    return True


def _oracle_chain_distribution(substrate, rows: PolicyRows, chain_id: str) -> dict[str, float]:
    """Path product of rows, recomputed without the library's chain_prior."""
    tree = substrate.tree
    chain = substrate.chains.chains[chain_id]
    out: dict[str, float] = {}
    for leaf in chain.alphabet:
        path = tree.path_from_root(leaf)
        start = path.index(chain.root)
        p = 1.0
        for here, below in zip(path[start:], path[start + 1 :]):
            row = rows.rows[here]
            p *= row.mass[row.options.index(below)]
        out[leaf] = p
    return out


def _oracle_levels(substrate: Substrate) -> dict[str, int]:
    edges = set()
    for child, parent in substrate.chains.nesting_parent.items():
        edges.add((parent, child))
    ci = substrate.chains
    for rule in substrate.graph.rules:
        target_chain = ci.enclosing[next(iter(rule.target))]
        for t in rule.trigger:
            tc = ci.enclosing[t]
            if tc != target_chain:
                edges.add((tc, target_chain))
    return longest_path_levels(list(ci.chains), edges)


def _oracle_edited(substrate: Substrate, rows, chain_id: str, assignment: dict) -> dict[str, float]:
    dist = _oracle_chain_distribution(substrate, rows, chain_id)
    levels = _oracle_levels(substrate)
    ci = substrate.chains
    for rule in substrate.graph.rules:
        target_chain = ci.enclosing[next(iter(rule.target))]
        if target_chain != chain_id:
            continue
        trigger_chains = {ci.enclosing[t] for t in rule.trigger}
        if any(tc == chain_id or levels[tc] >= levels[chain_id] for tc in trigger_chains):
            continue  # can never fire
        met = True
        for t in rule.trigger:
            pick = assignment.get(ci.enclosing[t])
            if pick is None or not _on_picked_path(substrate, t, pick):
                met = False
                break
        if not met:
            continue
        slice_members = {
            a
            for a in dist
            if any(substrate.tree.is_ancestor_or_self(g, a) for g in rule.target)
        }
        if rule.effect == "zero_out":
            keep = {a for a in dist if a not in slice_members}
        else:
            keep = {a for a in dist if a in slice_members}
        denom = sum(dist[a] for a in keep)
        assert denom > 0.0, "oracle hit empty support; generator should prevent this"
        dist = {a: (dist[a] / denom if a in keep else 0.0) for a in dist}
    return dist


def oracle_joint(substrate: Substrate, rows: PolicyRows) -> dict[MethodTuple, float]:
    """Every structurally admissible tuple with its probability.

    Enumerates the Cartesian product over decision chains, filters by the
    oracle's own activity logic, assigns pass-through chain markers, and
    multiplies per-chain edited distributions.
    """
    ci = substrate.chains
    decision = list(ci.decision_chain_ids)
    domains = [list(ci.chains[c].alphabet) + [None] for c in decision]
    out: dict[MethodTuple, float] = {}
    for combo in itertools.product(*domains):
        assignment = dict(zip(decision, combo))
        admissible = True
        for cid, value in assignment.items():
            active = _oracle_active(substrate, cid, assignment)
            if active != (value is not None):
                admissible = False
                break
        if not admissible:
            continue
        picks = dict(assignment)
        for cid, chain in ci.chains.items():
            if chain.is_decision:
                continue
            picks[cid] = chain.root if _oracle_active(substrate, cid, assignment) else None
        prob = 1.0
        for cid, value in assignment.items():
            if value is None:
                continue
            dist = _oracle_edited(substrate, rows, cid, assignment)
            prob *= dist[value]
        out[MethodTuple.from_picks(picks)] = prob
    return out


# -- the per-call kernel path, as it was before the compiled table ---------------
#
# Each kernel walks the chain's rows again and scans every rule; the draw, the
# probability, the enumeration and the advisor call it once per chain.  The
# compiled table must agree with these bit for bit.


def per_call_chain_prior(substrate: Substrate, rows: PolicyRows, chain_id: str) -> ProbabilityRow:
    """Path product of the rows along a decision chain's interior s-nodes."""
    chain = substrate.chains.chains[chain_id]
    if not chain.is_decision:
        raise ValueError(f"chain {chain_id} carries no decision")
    probs: dict[str, float] = {}
    stack = [(chain.root, 1.0)]
    while stack:
        node, acc = stack.pop()
        kids = substrate.tree.s_children(node)
        if not kids:
            probs[node] = acc
            continue
        row = rows.rows[node]
        stack.extend((child, acc * row.probability_of(child)) for child in kids)
    return ProbabilityRow(options=chain.alphabet, mass=tuple(probs[a] for a in chain.alphabet))


def _check_lower_levels_resolved(substrate: Substrate, chain_id: str, resolved) -> None:
    # a chain's kernel reads only its dependency-graph parents: the gate and the rule triggers
    for cid in substrate.chain_parents[chain_id]:
        if cid not in resolved:
            raise ValueError(f"chain {cid} (level {substrate.levels[cid]}) unresolved below {chain_id}")


def per_call_edited_chain_distribution(
    substrate: Substrate, rows: PolicyRows, chain_id: str, resolved: Mapping[str, Optional[str]]
) -> ProbabilityRow:
    """The chain prior after composing every rule whose trigger is met.

    Application order is rule-list order; composition commutes on the valid
    region so the order is immaterial.
    """
    _check_lower_levels_resolved(substrate, chain_id, resolved)
    dist = per_call_chain_prior(substrate, rows, chain_id)
    for rule in substrate.rules:
        if rule.target_chain == chain_id and rule.fired_by(resolved):
            dist = _OPERATORS[rule.effect](dist, rule.target_slice, rule_hint=rule.hint)
    return dist


def per_call_chain_kernel(
    substrate: Substrate, rows: PolicyRows, chain_id: str, resolved: Mapping[str, Optional[str]]
) -> dict[Optional[str], float]:
    """Kernel over the augmented alphabet: values plus the inactive marker."""
    gate = substrate.gate.get(chain_id)
    if gate is not None and resolved.get(gate[0]) != gate[1]:
        kernel: dict[Optional[str], float] = {v: 0.0 for v in substrate.chain_value_domain(chain_id)}
        kernel[INACTIVE] = 1.0
        return kernel
    chain = substrate.chains.chains[chain_id]
    if chain.is_decision:
        dist = per_call_edited_chain_distribution(substrate, rows, chain_id, resolved)
        kernel = dict(zip(dist.options, dist.mass))
    else:
        kernel = {chain.root: 1.0}
    kernel[INACTIVE] = 0.0
    return kernel


def per_call_method_probability(substrate: Substrate, rows: PolicyRows, m: MethodTuple) -> float:
    """Product of chain kernels in level order; 0 for inadmissible tuples."""
    validate_tuple(substrate, m)
    picks = m.picks
    prob = 1.0
    for cid in substrate.chain_order:
        kernel = per_call_chain_kernel(substrate, rows, cid, picks)
        factor = kernel[picks[cid]]
        if factor == 0.0:
            return 0.0
        prob *= factor
    return prob


def per_call_enumerate_support(substrate: Substrate, rows: PolicyRows) -> list[tuple[MethodTuple, float]]:
    """All structurally admissible tuples with exact kernel-product mass."""
    order = substrate.chain_order
    out: list[tuple[MethodTuple, float]] = []
    resolved: dict[str, Optional[str]] = {}  # picks of order[:depth], in order
    stack: list[tuple[int, Optional[str], float]] = []  # (depth, value, mass with it)

    def expand(depth: int, acc: float) -> None:
        if depth == len(order):
            out.append((MethodTuple.from_picks(resolved), acc))
            return
        kernel = per_call_chain_kernel(substrate, rows, order[depth], resolved)
        inactive = kernel[INACTIVE] > 0.0  # then it is the only value to take
        branches = [(depth, v, acc * w) for v, w in kernel.items() if (v is INACTIVE) == inactive]
        stack.extend(reversed(branches))

    expand(0, 1.0)
    while stack:
        depth, value, acc = stack.pop()
        while len(resolved) > depth:
            resolved.popitem()
        resolved[order[depth]] = value
        expand(depth + 1, acc)
    return out


def _per_call_sample_once(substrate: Substrate, rows: PolicyRows, rng: np.random.Generator) -> MethodTuple:
    resolved: dict[str, Optional[str]] = {}
    for cid in substrate.chain_order:
        kernel = per_call_chain_kernel(substrate, rows, cid, resolved)
        positive = [(v, w) for v, w in kernel.items() if w > 0.0]
        if len(positive) == 1:
            resolved[cid] = positive[0][0]
        else:
            resolved[cid] = _draw(rng, [v for v, _ in positive], [w for _, w in positive])
    return MethodTuple.from_picks(resolved)


def per_call_sample_method(substrate: Substrate, rows: PolicyRows, seed: int, avoid=frozenset()) -> MethodTuple:
    """Level-by-level draw (PCG64), rejection-resampling against ``avoid``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_RETRIES if avoid else 1):
        m = _per_call_sample_once(substrate, rows, rng)
        if m not in avoid:
            return m
    remaining = [(m, p) for m, p in per_call_enumerate_support(substrate, rows) if p > 0.0 and m not in avoid]
    if not remaining:
        raise SupportExhaustedError("avoid set covers the whole positive support")
    return _draw(rng, [m for m, _ in remaining], [p for _, p in remaining])


def per_call_advisor_edit(history, last: MethodTuple, substrate: Substrate, rows: PolicyRows, strategy: str, seed: int,
                          avoid=frozenset()) -> Optional[MethodTuple]:
    """Propose a tuple differing from ``last`` on exactly one chain."""
    strategy_fn = ADVISOR_STRATEGIES[strategy]
    picks = last.picks
    shared = {
        cid: tuple(r.reward for r in history.records if r.method.picks.get(cid) == picks[cid])
        for cid in _editable_chains(substrate, last)
    }
    if not shared:
        return None

    rng = np.random.Generator(np.random.PCG64(seed))
    order = strategy_fn(shared, rng)
    tried = history.methods()

    for cid in order:
        kernel = per_call_chain_kernel(substrate, rows, cid, picks)
        candidates = [v for v, w in kernel.items() if v is not None and w > 0.0 and v != picks[cid]]
        weights = [kernel[v] for v in candidates]
        while candidates:
            # weighted draw without replacement from the edited kernel
            idx = _draw(rng, list(range(len(candidates))), weights)
            v = candidates.pop(idx)
            weights.pop(idx)
            edited = last.with_value(cid, v)
            if edited in avoid or edited in tried:
                continue
            if per_call_method_probability(substrate, rows, edited) > 0.0:
                return edited
    return None


# -- random instances ----------------------------------------------------------


def random_substrate_document(seed: int) -> dict:
    """Random buildable graph: up to 5 decision chains (some nested, a few
    through pass-through group nodes, some with multi-level interiors), up to
    4 options each, up to 3 forward rules with distinct target chains.
    Triggers and targets occasionally name interior s-nodes rather than
    alphabet members."""
    rng = np.random.default_rng(seed)
    doc = {"root": "root", "nodes": [{"id": "root"}], "edges": [], "rules": []}
    chain_info: list[dict] = []  # creation order; rules point forward

    def new_chain(parent_node: str) -> None:
        idx = len(chain_info)
        head = f"ch{idx}"
        doc["nodes"].append({"id": head})
        doc["edges"].append({"parent": parent_node, "child": head, "type": "c"})
        n_opts = int(rng.integers(2, 5))
        options = []
        interior = []
        for j in range(n_opts):
            opt = f"ch{idx}_o{j}"
            doc["nodes"].append({"id": opt})
            doc["edges"].append({"parent": head, "child": opt, "type": "s"})
            options.append(opt)
        # sometimes deepen one option into a second s-level
        if n_opts < 4 and rng.random() < 0.35:
            deep = options[int(rng.integers(n_opts))]
            options.remove(deep)
            interior.append(deep)
            for j in range(2):
                opt = f"{deep}_s{j}"
                doc["nodes"].append({"id": opt})
                doc["edges"].append({"parent": deep, "child": opt, "type": "s"})
                options.append(opt)
        chain_info.append({"id": head, "alphabet": options, "interior": interior})

    n_top = int(rng.integers(2, 4))
    for _ in range(n_top):
        new_chain("root")
    # nest additional chains under existing alphabet members, sometimes through
    # a pass-through group node (c-children only, no decision of its own)
    while len(chain_info) < 5 and rng.random() < 0.5:
        host = chain_info[int(rng.integers(len(chain_info)))]
        anchor = host["alphabet"][int(rng.integers(len(host["alphabet"])))]
        if len(chain_info) <= 3 and rng.random() < 0.4:
            group = f"grp{len(chain_info)}"
            doc["nodes"].append({"id": group})
            doc["edges"].append({"parent": anchor, "child": group, "type": "c"})
            new_chain(group)
            new_chain(group)
        else:
            new_chain(anchor)

    def pick_slice(info, max_frac_full=True):
        # a value set over a chain: alphabet members, or an interior node
        # standing for the pair of leaves beneath it
        if info["interior"] and rng.random() < 0.3:
            return [info["interior"][0]]
        alphabet = info["alphabet"]
        k = int(rng.integers(1, len(alphabet)))
        return sorted(alphabet[int(i)] for i in rng.choice(len(alphabet), size=k, replace=False))

    n_rules = int(rng.integers(0, 4))
    targets_used: set[int] = set()
    for _ in range(n_rules):
        t_idx = int(rng.integers(1, len(chain_info)))
        if t_idx in targets_used:
            continue
        targets_used.add(t_idx)
        target = chain_info[t_idx]
        n_triggers = int(rng.integers(1, 3))
        trig_idxs = rng.choice(t_idx, size=min(n_triggers, t_idx), replace=False)
        trigger_nodes = []
        for i in sorted(int(x) for x in trig_idxs):
            source = chain_info[i]
            if source["interior"] and rng.random() < 0.25:
                trigger_nodes.append(source["interior"][0])
            else:
                trigger_nodes.append(source["alphabet"][int(rng.integers(len(source["alphabet"])))])
        slice_nodes = pick_slice(target)
        effect = "zero_out" if rng.random() < 0.5 else "force"
        if effect == "zero_out":
            # keep the slice a proper subset of the leaves so the build accepts it
            covered = set()
            for node in slice_nodes:
                covered.update(a for a in target["alphabet"] if a == node or a.startswith(node + "_"))
            if covered >= set(target["alphabet"]):
                effect = "force"
        doc["rules"].append(
            {
                "hint": f"rule targeting {target['id']}",
                "trigger": trigger_nodes,
                "target": slice_nodes,
                "effect": effect,
            }
        )
    return doc


def random_substrate(seed: int) -> Substrate:
    return build_substrate(graph_from_document(random_substrate_document(seed)))


def random_rows(substrate: Substrate, seed: int) -> PolicyRows:
    """Random strictly positive rows (so denominators never vanish)."""
    rng = np.random.default_rng(seed)
    rows = {}
    for node in substrate.tree.internal_s_nodes:
        kids = substrate.tree.s_children(node)
        raw = rng.uniform(0.1, 1.0, size=len(kids))
        raw = raw / raw.sum()
        rows[node] = ProbabilityRow(options=kids, mass=tuple(float(x) for x in raw))
    return PolicyRows(rows=rows, tree_version=substrate.tree_version)


def random_tree_document(seed: int, max_depth: int = 7, max_nodes: int = 300) -> dict:
    """Random valid tree-shaped graph for the embedding suite.

    Edge type flips after at most two consecutive same-type levels, keeping
    per-axis splits coarse enough for the resolution search cap.
    """
    rng = np.random.default_rng(seed)
    doc = {"root": "n0", "nodes": [{"id": "n0"}], "edges": []}
    counter = [1]
    frontier = [("n0", 0, "", 0)]  # node, depth, last type, run length
    while frontier:
        node, depth, last, run = frontier.pop(0)
        if depth >= max_depth or counter[0] >= max_nodes:
            continue
        if depth > 0 and rng.random() < 0.25:
            continue  # leaf
        if run >= 2:
            kind = "c" if last == "s" else "s"
        else:
            kind = "s" if rng.random() < 0.5 else "c"
        new_run = run + 1 if kind == last else 1
        for _ in range(int(rng.integers(2, 5))):
            if counter[0] >= max_nodes:
                break
            child = f"n{counter[0]}"
            counter[0] += 1
            doc["nodes"].append({"id": child})
            doc["edges"].append({"parent": node, "child": child, "type": kind})
            frontier.append((child, depth + 1, kind, new_run))
    return doc
