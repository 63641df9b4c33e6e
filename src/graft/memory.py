"""Long-term memory of solved instances and reward-calibrated prior compilation.

Each stored entry pairs a problem fingerprint with the method tuple that ran
on it, the run's observables, and a reward in [0, R_MAX].  At problem
arrival the nearest entries (Jaccard on the identity-preserving resolution)
vote on every policy row through a sigmoid-gated reward weight; the votes
are blended with the uniform prior, and rule operators are applied on top so
documented constraints cannot be undone by neighbour evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from .build import Substrate, build_substrate
from .embedding import Fingerprint, jaccard
from .errors import GraftError, StalePathError, VersionMismatchError
from .graph import EdgeType, KnowledgeGraph, graph_to_document
from .policy import (
    MethodTuple,
    PolicyRows,
    ProbabilityRow,
    op_force,
    op_zero,
    uniform_rows,
)
from .reduction import FactoredTree

if TYPE_CHECKING:
    import numpy as np

R_MAX = 100.0


@dataclass
class MemoryEntry:
    problem_fp: Fingerprint
    method: MethodTuple
    method_path_nodes: frozenset[str]
    observables: dict[str, float]
    reward: float
    stale: bool = False

    def __post_init__(self):
        if not 0.0 <= self.reward <= R_MAX:
            raise ValueError(f"reward {self.reward} outside [0, {R_MAX}]")
        check_observables(self.observables)


def check_observables(observables: dict[str, float]) -> None:
    """Refuse an observable whose value is not a number; a bool is not one."""
    for key, value in observables.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"observable {key!r} must be a number, found {type(value).__name__}")


class _NeighborIndex:
    """Columns over a repository's entries for exact Jaccard ranking.

    Every distinct cell ``(x, y, depth)`` is interned to a bit position, at
    any resolution, and each entry keeps its cells as a row of uint64 words
    beside its cell count, its reward and a small id for its fingerprint's
    ``(tree_tag, resolution)``.  Rows are only ever added.  Stale flags are
    not copied: a ranking reads them from the entries it returns or skips.
    """

    def __init__(self) -> None:
        self.entries: list[MemoryEntry] | None = None  # the list indexed
        self.n = 0
        self.last: MemoryEntry | None = None  # entries[n - 1] when it was indexed
        self.bits: dict[tuple[int, int, int], int] = {}
        self.groups: dict[tuple[str, int], int] = {}
        self.words = self.count = self.reward = self.group = None  # numpy columns, made by _reserve

    def covers_prefix_of(self, entries: list[MemoryEntry]) -> bool:
        """Whether ``entries`` is the list indexed, grown only at its end."""
        n = self.n
        return n == 0 or (entries is self.entries and len(entries) >= n and entries[n - 1] is self.last)

    def _mask(self, cells) -> int:
        mask = 0
        for cell in cells:
            bit = self.bits.get(cell)
            if bit is None:
                bit = self.bits[cell] = len(self.bits)
            mask |= 1 << bit
        return mask

    def _words(self, masks: list[int]) -> np.ndarray:
        import numpy as np

        width = self.words.shape[1]
        return np.frombuffer(b"".join(m.to_bytes(8 * width, "little") for m in masks), dtype="<u8").reshape(-1, width)

    def _reserve(self, rows: int, width: int) -> None:
        """Room for ``rows`` rows of ``width`` words; row capacity doubles."""
        import numpy as np

        if self.words is None:
            self.words = np.zeros((0, 1), dtype=np.uint64)
            self.count, self.group = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
            self.reward = np.zeros(0, dtype=np.float64)
        cap, have = self.words.shape
        if rows > cap:
            cap = max(cap, 1)
            while cap < rows:
                cap *= 2
            for name in ("count", "reward", "group"):
                column = np.zeros(cap, dtype=getattr(self, name).dtype)
                column[: self.n] = getattr(self, name)[: self.n]
                setattr(self, name, column)
        if self.words.shape != (cap, max(width, have)):
            words = np.zeros((cap, max(width, have)), dtype=np.uint64)
            words[: self.n, :have] = self.words[: self.n]
            self.words = words

    def extend(self, entries: list[MemoryEntry]) -> None:
        """Index ``entries[n:]``, encoding each distinct Fingerprint once."""
        import numpy as np

        self.entries, start = entries, self.n
        new = entries[start:]
        if not new:
            return
        codes: dict[int, int] = {}  # id of a Fingerprint -> its place in ``distinct``
        distinct: list[tuple[int, int, int]] = []  # (cell mask, cell count, group id)
        rows = []
        for entry in new:
            fp = entry.problem_fp
            code = codes.get(id(fp))
            if code is None:
                code = codes[id(fp)] = len(distinct)
                group = self.groups.setdefault((fp.tree_tag, fp.resolution), len(self.groups))
                distinct.append((self._mask(fp.cells), len(fp.cells), group))
            rows.append(code)
        masks, counts, groups = zip(*distinct)
        end = start + len(new)
        self._reserve(end, -(-len(self.bits) // 64))
        rows = np.array(rows)
        self.words[start:end] = self._words(masks)[rows]
        self.count[start:end] = np.array(counts)[rows]
        self.group[start:end] = np.array(groups)[rows]
        self.reward[start:end] = [e.reward for e in new]
        self.n, self.last = end, entries[end - 1]

    def rank(self, p_new: Fingerprint, n: int) -> list[tuple[MemoryEntry, float]]:
        import numpy as np

        entries, size = self.entries, self.n
        if size == 0:
            return []
        if p_new.cells:
            group = self.groups.get((p_new.tree_tag, p_new.resolution), -1)
            bad = np.flatnonzero((self.group[:size] != group) | (self.count[:size] == 0)).tolist()
        else:
            bad = range(size)
        for i in bad:  # the first one not stale raises jaccard's error, and its message
            if not entries[i].stale:
                jaccard(p_new, entries[i].problem_fp)
        if not p_new.cells:
            return []  # every entry is stale
        query = self._words([self._mask(c for c in p_new.cells if c in self.bits)])[0]
        inter = np.bitwise_count(self.words[:size] & query).sum(axis=1, dtype=np.int64)
        # counts are small integers, so this float64 division rounds as jaccard's does
        sim = inter / (self.count[:size] + len(p_new.cells) - inter)
        found: list[int] = []
        walked, k = 0, n
        while True:  # cut the k best and their ties; widen the cut while too few are live
            idx = np.flatnonzero(sim >= np.partition(sim, size - k)[size - k]) if k < size else np.arange(size)
            order = idx[np.lexsort((idx, -self.reward[idx], -sim[idx]))].tolist()
            # a narrower cut's order is a prefix of this one; flags are read until n are found
            found += islice((i for i in order[walked:] if not entries[i].stale), n - len(found))
            if len(found) == n or len(order) == size:
                return [(entries[i], float(sim[i])) for i in found]
            walked, k = len(order), 2 * len(order)


@dataclass
class MemoryRepository:
    """Append-only store; entries are never deleted, only flagged stale.

    Neighbour ranking keeps columns over ``entries`` and extends them with
    the entries appended since its last call.  So entries may only be
    appended, through ``record`` or ``entries.append``; once an entry has
    been ranked, its ``stale`` flag is the only field that may change.
    Replacing the list, or shrinking it, makes the next ranking rebuild
    the columns from scratch.
    """

    problem_tree_version: str
    action_tree_version: str
    entries: list[MemoryEntry] = field(default_factory=list)
    _index: _NeighborIndex = field(default_factory=_NeighborIndex, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)


KAPPA = 7.0  # slope of the neighbour gate's sigmoid
MIDPOINT = 0.55  # sigmoid centre s0


@dataclass(frozen=True)
class PriorParams:
    n_neighbors: int = 3


def record(repo: MemoryRepository, entry: MemoryEntry) -> MemoryRepository:
    """Append one entry after checking its fingerprint tags match the repo."""
    if entry.problem_fp.tree_tag != repo.problem_tree_version:
        raise VersionMismatchError(
            f"entry problem fingerprint tagged {entry.problem_fp.tree_tag}, "
            f"repository expects {repo.problem_tree_version}"
        )
    repo.entries.append(entry)
    return repo


def rank_neighbors(
    repo: MemoryRepository, p_new: Fingerprint, n: int
) -> list[tuple[MemoryEntry, float]]:
    """Top-n non-stale entries by similarity desc, reward desc, insertion order.

    Similarities equal ``jaccard``'s bit for bit, and a non-stale entry
    that ``jaccard`` cannot compare with ``p_new`` raises its error.
    """
    if n <= 0:
        return []
    if not repo._index.covers_prefix_of(repo.entries):
        repo._index = _NeighborIndex()
    repo._index.extend(repo.entries)
    return repo._index.rank(p_new, n)


def neighbor_weight(similarity: float, reward: float) -> float:
    """Sigmoid-gated reward weight: sigma(similarity) * reward / R_MAX."""
    gate = 1.0 / (1.0 + math.exp(-KAPPA * (similarity - MIDPOINT)))
    return gate * (reward / R_MAX)


def _check_path_current(entry: MemoryEntry, tree: FactoredTree) -> None:
    missing = [n for n in entry.method_path_nodes if n not in tree.depth]
    if missing:
        raise StalePathError(f"method path references removed nodes {sorted(missing)}; re-encode the entry")


def _vote(entry: MemoryEntry, tree: FactoredTree, node: str) -> str | None:
    """The child this entry's path picks at ``node``, or None off-path."""
    path = entry.method_path_nodes
    hits = [c for c in tree.s_children(node) if c in path] if node in path else ()
    if len(hits) > 1:
        raise StalePathError(f"method path picks multiple children of {node}")
    return hits[0] if hits else None


def partial_spec(entry: MemoryEntry, tree: FactoredTree) -> dict[str, ProbabilityRow]:
    """One neighbour's row votes: one-hot along its path, uniform elsewhere."""
    _check_path_current(entry, tree)
    spec: dict[str, ProbabilityRow] = {}
    for node, uniform in tree.uniform_rows.items():
        chosen = _vote(entry, tree, node)
        if chosen is None:
            spec[node] = uniform
        else:
            spec[node] = ProbabilityRow(uniform.options, tuple(1.0 if c == chosen else 0.0 for c in uniform.options))
    return spec


def compile_prior(
    repo: MemoryRepository,
    p_new: Fingerprint,
    substrate: Substrate,
    params: PriorParams = PriorParams(),
) -> PolicyRows:
    """Blend neighbour votes with the uniform prior, then apply certain rules.

    Row-wise: M_data is the weight-averaged mix of one-hot votes (rows a
    neighbour visited) and uniform rows (rows it did not), with the exact
    fallback M_data = uniform when the total weight is zero.  The final row
    is W_bar * M_data + (1 - W_bar) * uniform with W_bar the clipped average
    confidence of the neighbours carrying positive weight.
    """
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
            _check_path_current(entry, tree)
        rows = {}
        for node, mu in base.rows.items():
            votes = [_vote(e, tree, node) for e, _ in neighbors]
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


def _apply_certain_rules(substrate: Substrate, rows: dict[str, ProbabilityRow]) -> None:
    # Only rules whose triggers hold for every admissible tuple can be baked
    # into the rows; everything else bites at sample time through the edited
    # kernel.  The slice is pushed down to each interior row it constrains.
    for rule in substrate.rules:
        if not rule.certain:
            continue
        op = op_zero if rule.effect == "zero_out" else op_force
        for node in substrate.chains.chains[rule.target_chain].members:
            kids = substrate.tree.s_children(node)
            if not kids or node not in rows:
                continue
            if rule.effect == "force":  # the kids to keep
                edit = {k for k in kids if any(substrate.tree.is_ancestor_or_self(k, a) for a in rule.target_slice)}
            else:  # the kids to drop; a fully-covered interior node is unreachable once
                # its own parent row drops it, so such rows are left alone
                edit = {k for k in kids if substrate.members_below(k, rule.target_chain) <= rule.target_slice}
            if edit and edit != set(kids):
                rows[node] = op(rows[node], edit, rule_hint=rule.hint)


def _inherit_rows(new_sub: Substrate, rows: PolicyRows, parent: str, reshape) -> PolicyRows:
    """Rows for a rebuilt substrate: a row whose options did not change is
    kept, ``parent``'s old row goes through ``reshape``, and every other row
    starts uniform."""
    new_rows = uniform_rows(new_sub)
    for node, uniform in new_rows.rows.items():
        old = rows.rows.get(node)
        if old is not None and old.options == uniform.options:
            new_rows.rows[node] = old
        elif old is not None and node == parent:
            new_rows.rows[node] = reshape(old, uniform.options)
    return new_rows


def grow_tree(
    substrate: Substrate,
    rows: PolicyRows,
    parent: str,
    new_child: str,
    hint: str | None = None,
    edge_kind: EdgeType | None = None,
) -> tuple[Substrate, PolicyRows]:
    """Add a sibling option under ``parent``; the new child inherits the mean
    of its siblings' prior masses and the whole substrate is rebuilt.

    ``edge_kind`` defaults to the siblings' type; passing a mismatching kind
    is rejected by the rebuild's uniform-children validation.
    """
    g = substrate.graph
    if new_child in g.nodes:
        raise GraftError(f"node {new_child!r} already exists")
    siblings = [c for p, c, _ in g.edges if p == parent]
    if not siblings:
        raise GraftError(f"parent {parent!r} has no existing children to infer the edge type from")
    if edge_kind is None:
        edge_kind = next(t for p, _, t in g.edges if p == parent)

    doc_nodes = list(g.nodes) + [new_child]
    hints = dict(g.hints)
    if hint is not None:
        hints[new_child] = hint
    grown = KnowledgeGraph(
        root=g.root,
        nodes=tuple(doc_nodes),
        hints=hints,
        edges=g.edges + ((parent, new_child, edge_kind),),
        canonical_parent=dict(g.canonical_parent),
        rules=g.rules,
    )
    new_sub = build_substrate(grown)

    def add_child(old: ProbabilityRow, kids: tuple[str, ...]) -> ProbabilityRow:
        mass = dict(zip(old.options, old.mass))
        mass[new_child] = sum(old.mass) / len(old.mass)
        total = sum(mass.values())
        return ProbabilityRow(options=kids, mass=tuple(mass[k] / total for k in kids))

    # parents of c-entered children carry no row, so add_child only meets s-parents
    return new_sub, _inherit_rows(new_sub, rows, parent, add_child)


def remove_node(
    substrate: Substrate,
    rows: PolicyRows,
    node: str,
    repo: MemoryRepository | None = None,
) -> tuple[Substrate, PolicyRows]:
    """Remove a leaf option, redistributing its mass proportionally.

    Entries in ``repo`` whose method path references the node are flagged
    stale (never deleted).  Nodes referenced by a rule cannot be removed.
    """
    g = substrate.graph
    if node not in g.nodes:
        raise GraftError(f"unknown node {node!r}")
    if node == g.root:
        raise GraftError("cannot remove the root")
    if any(p == node for p, _, _ in g.edges):
        raise GraftError(f"{node!r} is not a leaf")
    for rule in g.rules:
        if node in rule.trigger or node in rule.target:
            raise GraftError(f"{node!r} is referenced by rule {rule.hint!r}")
    parent = substrate.tree.parent[node]
    siblings = [c for c in substrate.tree.children[parent] if c != node]
    if not siblings:
        raise GraftError(f"cannot remove the sole child of {parent!r}")

    shrunk = KnowledgeGraph(
        root=g.root,
        nodes=tuple(n for n in g.nodes if n != node),
        hints={k: v for k, v in g.hints.items() if k != node},
        edges=tuple(e for e in g.edges if e[1] != node),
        canonical_parent={k: v for k, v in g.canonical_parent.items() if k != node},
        rules=g.rules,
    )
    new_sub = build_substrate(shrunk)

    def drop_child(old: ProbabilityRow, kids: tuple[str, ...]) -> ProbabilityRow:
        kept = op_zero(old, {node})
        return ProbabilityRow(options=kids, mass=tuple(kept.probability_of(k) for k in kids))

    new_rows = _inherit_rows(new_sub, rows, parent, drop_child)
    if repo is not None:
        for entry in repo.entries:
            if node in entry.method_path_nodes:
                entry.stale = True
    return new_sub, new_rows
