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
import re
from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain, filterfalse, islice, repeat
from operator import and_, attrgetter
from struct import pack

from .build import Substrate, build_substrate
from .embedding import Fingerprint, jaccard
from .errors import GraftError, StalePathError, VersionMismatchError
from .graph import EdgeType, KnowledgeGraph
from .policy import (
    MethodTuple,
    PolicyRows,
    ProbabilityRow,
    op_force,
    op_zero,
    uniform_rows,
)
from .reduction import FactoredTree

R_MAX = 100.0
_stale = attrgetter("stale")
_TOP, _INDEX = 1 << 63, (1 << 64) - 1  # an order key holds the reward's bits, and the entry index below them


@dataclass(slots=True)
class MemoryEntry:
    problem_fp: Fingerprint
    method: MethodTuple
    method_path_nodes: tuple[str, ...]  # sorted and distinct; any iterable of names is normalised
    observables: dict[str, float]
    reward: float
    stale: bool = False

    def __post_init__(self):
        # a tuple of 25 shared names takes a tenth of a frozenset's table; the names
        # are deduplicated after the sort, which runs in one pass on a stored path
        self.method_path_nodes = tuple(dict.fromkeys(sorted(self.method_path_nodes)))
        check_entry(self.reward, self.observables)


def check_entry(reward: float, observables: dict[str, float]) -> None:
    """Refuse a reward outside [0, R_MAX], then observables ``check_observables`` refuses."""
    if not 0.0 <= reward <= R_MAX:
        raise ValueError(f"reward {reward} outside [0, {R_MAX}]")
    check_observables(observables)


def check_observables(observables: dict[str, float]) -> None:
    """Refuse an observable whose value is not a number, or not a finite one;
    a bool is not a number, and an int of any size is finite."""
    for key, value in observables.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"observable {key!r} must be a number, found {type(value).__name__}")
        if isinstance(value, float) and not math.isfinite(value):  # JSON has no NaN or Infinity
            raise ValueError(f"observable {key!r} must be finite, found {value!r}")


def _rows(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


def _level(steps: list[tuple[int, int]], q: int, c: int, rows: int) -> tuple[float, int, int, int]:
    """The best level of ``rows`` of c cells against q query cells: (negated similarity,
    c, the rows at it, the rows below), by a descent over the (bit, plane) steps."""
    inter, top = 0, rows
    for bit, plane in steps:
        if hit := top & plane:
            top, inter = hit, inter | bit
    return -(inter / (c + q - inter)), c, top, rows ^ top  # small integers: rounds as jaccard's quotient


class _NeighborIndex:
    """One row per distinct problem fingerprint, for exact Jaccard ranking.

    Row r is bit r of a Python int.  Each distinct cell ``(x, y, depth)``, each
    cell count and each ``(tree_tag, resolution)`` has the mask of its rows;
    empty fingerprints are the group ``None``.  Equal fingerprints share a row.
    Beside each row, its entries' order keys are kept ascending, so a ranking
    scores the rows and reads only the entries it returns or skips.  Rows and
    entries are only ever added.  Stale flags are not copied: a ranking reads
    them from those entries.
    """

    def __init__(self) -> None:
        self.entries: list[MemoryEntry] | None = None  # the list indexed
        self.n = 0
        self.last: MemoryEntry | None = None  # entries[n - 1] when it was indexed
        self.cells: dict[tuple[int, int, int], int] = {}  # cell -> mask of the rows holding it
        self.counts: dict[int, int] = {}  # cell count -> mask of its rows
        self.groups: dict[tuple[str, int] | None, int] = {}  # None holds the empty fingerprints
        self.rows: dict[Fingerprint, int] = {}
        self.order: list[list[int]] = []  # per row: its members' order keys, ascending

    def covers_prefix_of(self, entries: list[MemoryEntry]) -> bool:
        """Whether ``entries`` is the list indexed, grown only at its end."""
        n = self.n
        return n == 0 or (entries is self.entries and len(entries) >= n and entries[n - 1] is self.last)

    def extend(self, entries: list[MemoryEntry]) -> None:
        """Index ``entries[n:]``: a row for each fingerprint not seen before, and
        each entry into its row's order."""
        self.entries, start = entries, self.n
        if len(entries) == start:
            return
        blocks: dict[int, list[int]] = {}  # row -> the order keys of its new entries
        made: dict[tuple[int, object], list[int]] = {}  # (kind, key) -> the rows made here under that mask
        for i, entry in enumerate(entries[start:], start):
            fp = entry.problem_fp
            row = self.rows.get(fp)
            if row is None:
                row = self.rows[fp] = len(self.rows)
                group = (fp.tree_tag, fp.resolution) if fp.cells else None
                for kind_key in [*((0, cell) for cell in fp.cells), (1, len(fp.cells)), (2, group)]:
                    made.setdefault(kind_key, []).append(row)
                self.order.append([])
            # sorts as (reward desc, index asc): a float's bits grow with it, and + 0.0 makes -0.0 0.0
            raw = int.from_bytes(pack("<d", entry.reward + 0.0), "little")
            blocks.setdefault(row, []).append((_TOP - raw) << 64 | i)
        for row, block in blocks.items():
            order = self.order[row]
            if order and len(block) <= 32:  # a few appends: each moves the row in C, where a sort compares it all
                for key in block:
                    insort(order, key)
            else:  # a new row, or a bulk build such as the first ranking after a load, is sorted once
                order += block
                order.sort()
        for (kind, key), rows in made.items():  # each mask grows by one int, built in a bytearray
            bits, masks = bytearray(rows[-1] // 8 + 1), (self.cells, self.counts, self.groups)[kind]
            for row in rows:
                bits[row >> 3] |= 1 << (row & 7)
            masks[key] = masks.get(key, 0) | int.from_bytes(bits, "little")
        self.n, self.last = len(entries), entries[-1]

    def rank(self, p_new: Fingerprint, n: int) -> list[tuple[MemoryEntry, float]]:
        entries = self.entries
        if not self.rows:
            return []
        good = self.groups.get((p_new.tree_tag, p_new.resolution), 0) if p_new.cells else 0
        bad = chain(*map(self.order.__getitem__, _rows(((1 << len(self.rows)) - 1) ^ good)))
        # the first entry not stale, in index order, raises jaccard's error and its message
        for entry in filterfalse(_stale, map(entries.__getitem__, sorted(map(and_, bad, repeat(_INDEX))))):
            jaccard(p_new, entry.problem_fp)
        if not good:
            return []  # every entry is stale
        # bit-sliced sum of the query cells' masks: plane j holds bit j of each row's intersection count
        planes: list[int] = []
        for carry in filter(None, map(self.cells.get, p_new.cells)):
            for j, plane in enumerate(planes):
                planes[j], carry = plane ^ carry, plane & carry
                if not carry:
                    break
            else:
                planes.append(carry)
        q, steps = len(p_new.cells), [(1 << j, planes[j]) for j in range(len(planes) - 1, -1, -1)]  # high bit first
        # a heap of similarity levels: per cell count c, its best level's rows and the rows below
        levels = [_level(steps, q, c, rows) for c, rows in ((c, m & good) for c, m in self.counts.items()) if rows]
        heapify(levels)
        found: list[tuple[MemoryEntry, float]] = []
        while levels and len(found) < n:  # one similarity level at a time, from the top
            neg, tied = levels[0][0], 0
            while levels and levels[0][0] == neg:
                _, c, top, rest = heappop(levels)
                tied |= top
                if rest:  # their intersections are below this level's, so their level is too
                    heappush(levels, _level(steps, q, c, rest))
            tied = _rows(tied)
            order = self.order[tied[0]] if len(tied) == 1 else chain.from_iterable(self._merged(tied, n - len(found)))
            live = filterfalse(_stale, map(entries.__getitem__, map(and_, order, repeat(_INDEX))))
            found += zip(islice(live, n - len(found)), repeat(-neg))
        return found

    def _merged(self, rows: list[int], c: int):
        """The order keys of several rows, ascending, in two runs.  The first c of
        the union of each row's first c are the first c of the merge; one sort of
        every key gives the rest."""
        order = self.order
        yield sorted(chain.from_iterable(order[r][:c] for r in rows))[:c]
        if sum(len(order[r]) for r in rows) > c:
            yield islice(sorted(chain.from_iterable(map(order.__getitem__, rows))), c, None)


@dataclass
class MemoryRepository:
    """Append-only store; entries are never deleted, only flagged stale.

    Neighbour ranking keeps an index over ``entries`` and extends it with
    the entries appended since its last call.  So entries may only be
    appended, through ``record`` or ``entries.append``; once an entry has
    been ranked, its ``stale`` flag is the only field that may change.
    Replacing the list, or shrinking it, makes the next ranking rebuild
    the index from scratch.
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
    that ``jaccard`` cannot compare with ``p_new`` raises its error.  Only
    an entry's ``problem_fp``, ``reward`` and ``stale`` are read, so any
    object holding those ranks as its entry would.
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


def _votes(entry: MemoryEntry, tree: FactoredTree) -> dict[str, str]:
    """s-node on the entry's path -> the child the path picks under it, made in one
    pass over the path; a name the tree no longer holds, or two picks under one
    node, raises ``StalePathError``."""
    path, s = entry.method_path_nodes, EdgeType.SUBDIVIDES_IN
    picks: dict[str, str] = {}
    missing, twice = [], []
    for node in path:
        kind = tree.edge_type.get(node)  # None for the root and for removed nodes
        if kind is s:
            if picks.setdefault(tree.parent[node], node) != node:
                twice.append(tree.parent[node])
        elif kind is None and node != tree.root:
            missing.append(node)
    if missing:
        raise StalePathError(f"method path references removed nodes {sorted(missing)}; re-encode the entry")
    on_path = set(path)  # a pick counts only under a node on the path
    twice = [node for node in twice if node in on_path]
    if twice:  # the first in row order
        raise StalePathError(f"method path picks multiple children of {min(twice)}")
    return {node: child for node, child in picks.items() if node in on_path}


def partial_spec(entry: MemoryEntry, tree: FactoredTree) -> dict[str, ProbabilityRow]:
    """One neighbour's row votes: one-hot along its path, uniform elsewhere."""
    spec: dict[str, ProbabilityRow] = dict(tree.uniform_rows)
    for node, chosen in _votes(entry, tree).items():
        options = spec[node].options
        spec[node] = ProbabilityRow(options, tuple(1.0 if c == chosen else 0.0 for c in options))
    return spec


def compile_prior(
    repo: MemoryRepository,
    p_new: Fingerprint,
    substrate: Substrate,
    params: PriorParams = PriorParams(),
) -> PolicyRows:
    """The rows ``prior_from_neighbors`` blends from ``p_new``'s ranked neighbours in ``repo``."""
    if p_new.tree_tag != repo.problem_tree_version:
        raise VersionMismatchError("query fingerprint does not match the repository's problem tree")
    return prior_from_neighbors(rank_neighbors(repo, p_new, params.n_neighbors), substrate)


def prior_from_neighbors(neighbors: list[tuple[MemoryEntry, float]], substrate: Substrate) -> PolicyRows:
    """Blend neighbour votes with the uniform prior, then apply certain rules.

    Row-wise: M_data is the weight-averaged mix of one-hot votes (rows a
    neighbour visited) and uniform rows (rows it did not), with the exact
    fallback M_data = uniform when the total weight is zero.  The final row
    is W_bar * M_data + (1 - W_bar) * uniform with W_bar the clipped average
    confidence of the neighbours carrying positive weight.
    """
    tree = substrate.tree
    base = uniform_rows(substrate)
    weights = [neighbor_weight(sim, e.reward) for e, sim in neighbors]
    w_tot = sum(weights)
    n_eff = sum(1 for w in weights if w > 0.0)

    if w_tot == 0.0 or n_eff == 0:
        rows = dict(base.rows)  # exact fallback: the uniform prior, bitwise
    else:
        w_bar = min(1.0, max(0.0, w_tot / n_eff))
        maps = [_votes(e, tree) for e, _ in neighbors]
        rows = {}
        for node, mu in base.rows.items():
            votes = [m.get(node) for m in maps]
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
                edit = {k for k in kids if substrate.members_below(k, rule.target_chain) & rule.target_slice}
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
