"""Rule operators, per-chain kernels, the factored policy, and sampling.

Policy state is one probability row per internal s-node, shared across all
parent contexts; a chain's prior over its alphabet is the path product of
those rows.  Cross-rules edit that prior at sample time through the two
support operators (zero-out and force), which preserve survivor ratios,
commute on the same chain, and are duals under set complement.

Every chain, including a pass-through chain whose root carries no
s-decision, is a variable of the factored policy: a decision chain takes an
alphabet member or the inactive marker (None), a pass-through chain takes
its root id as a presence marker or None.  Whether a chain is active is
``Substrate.active``'s to say (the gate rule); it reads only the chain's
gate, one of its dependency-graph parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .build import CompiledRule, Substrate
from .errors import EnumerationCapError, RuleSupportError, SupportExhaustedError, VersionMismatchError

if TYPE_CHECKING:
    from .stream import Stream

MASS_TOLERANCE = 1e-12
MAX_RETRIES = 64  # rejection draws against an avoid set before enumerating

# Inactive marker for chains closed by structural nesting (JSON: null).
INACTIVE = None


@dataclass(frozen=True)
class ProbabilityRow:
    """A categorical distribution over a fixed option list."""

    options: tuple[str, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.options) != len(self.mass):
            raise ValueError("options and mass differ in length")
        if not all(0.0 <= m <= 1.0 + MASS_TOLERANCE for m in self.mass):  # NaN fails both comparisons
            raise ValueError("probability mass outside [0, 1]")
        if abs(sum(self.mass) - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"mass sums to {sum(self.mass)!r}, not 1")

    def probability_of(self, option: str) -> float:
        return self.mass[self.options.index(option)]

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.options, self.mass))


@dataclass
class PolicyRows:
    """One row per internal s-node of a tree, keyed by node id."""

    rows: dict[str, ProbabilityRow]
    tree_version: str


# The first (chain, value) pair met, for every pair equal to it, so that the
# method tuples of a memory share their pairs.  It grows with the distinct
# chain values met, not with the tuples made.
_PAIRS: dict[tuple[str, Optional[str]], tuple[str, Optional[str]]] = {}


@dataclass(frozen=True, slots=True)
class MethodTuple:
    """One value per chain: alphabet member, presence marker, or None."""

    items: tuple[tuple[str, Optional[str]], ...]  # sorted by chain id

    @classmethod
    def from_picks(cls, picks: Mapping[str, Optional[str]]) -> "MethodTuple":
        pairs = picks.items()
        return cls(items=tuple(sorted(map(_PAIRS.setdefault, pairs, pairs))))

    @property
    def picks(self) -> dict[str, Optional[str]]:
        return dict(self.items)

    def with_value(self, chain_id: str, value: Optional[str]) -> "MethodTuple":
        picks = self.picks
        picks[chain_id] = value
        return MethodTuple.from_picks(picks)


def uniform_rows(substrate: Substrate) -> PolicyRows:
    return PolicyRows(rows=dict(substrate.tree.uniform_rows), tree_version=substrate.tree_version)


def _renormalize(row: ProbabilityRow, keep: frozenset[str], offender, hint=None) -> ProbabilityRow:
    # Summing the survivors directly (not 1 - dropped mass) keeps the two
    # operators bitwise dual under set complement.
    denom = sum(m for o, m in zip(row.options, row.mass) if o in keep)
    if denom <= 0.0:
        raise RuleSupportError("operator left empty support", offender=offender, rule_hint=hint)
    return ProbabilityRow(
        options=row.options,
        mass=tuple(m / denom if o in keep else 0.0 for o, m in zip(row.options, row.mass)),
    )


def op_zero(row: ProbabilityRow, target: Iterable[str], *, rule_hint: str | None = None) -> ProbabilityRow:
    """Zero the target mass and renormalise over the survivors."""
    target = frozenset(target)
    if not target & frozenset(row.options):
        return row
    survivors = frozenset(row.options) - target
    if not survivors:
        raise RuleSupportError("zero-out covers the whole support", offender=(row, target), rule_hint=rule_hint)
    return _renormalize(row, survivors, offender=(row, target), hint=rule_hint)


def op_force(row: ProbabilityRow, target: Iterable[str], *, rule_hint: str | None = None) -> ProbabilityRow:
    """Restrict support to the target and renormalise there."""
    target = frozenset(target)
    keep = target & frozenset(row.options)
    if keep == frozenset(row.options):
        return row
    if not keep:
        raise RuleSupportError("force target carries no support", offender=(row, target), rule_hint=rule_hint)
    return _renormalize(row, keep, offender=(row, target), hint=rule_hint)


_OPERATORS = {"zero_out": op_zero, "force": op_force}


def chain_prior(substrate: Substrate, rows: PolicyRows, chain_id: str) -> ProbabilityRow:
    """Path product of the rows along a decision chain's interior s-nodes."""
    chain = substrate.chains.chains[chain_id]
    if not chain.is_decision:
        raise ValueError(f"chain {chain_id} carries no decision")
    s_children = substrate.tree.s_children_table
    row = rows.rows[chain.root]
    if row.options == chain.alphabet == s_children[chain.root]:
        return row  # one level deep, so each path product is 1.0 times the root row's mass
    probs: dict[str, float] = {}
    stack = [(chain.root, 1.0)]
    while stack:
        node, acc = stack.pop()
        kids = s_children.get(node)
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


@dataclass(frozen=True)
class CompiledPolicy:
    """The kernel table of one (substrate, rows) pair, from ``compile_policy``:
    a snapshot of the rows, which later edits to them do not reach.  Readers go
    in the substrate's ``chain_order``, so a chain's parents are resolved before it."""

    substrate: Substrate
    priors: dict[str, ProbabilityRow]  # decision chain -> its prior over its alphabet
    rules: dict[str, tuple[CompiledRule, ...]]  # target chain -> its eligible rules, in rule-list order
    kernels: dict[str, dict[Optional[str], float]]  # chain -> its kernel when active and no rule fires

    def edited(self, chain_id: str, resolved: Mapping[str, Optional[str]]) -> ProbabilityRow:
        dist = self.priors[chain_id]
        for rule in self.rules.get(chain_id, ()):
            if rule.fired_by(resolved):
                dist = _OPERATORS[rule.effect](dist, rule.target_slice, rule_hint=rule.hint)
        return dist

    def kernel(self, chain_id: str, resolved: Mapping[str, Optional[str]]) -> dict[Optional[str], float]:
        """Kernel over the augmented alphabet; a value it leaves out has mass 0
        (a shut gate's kernel holds the inactive marker alone).  Read it only."""
        if not self.substrate.active(chain_id, resolved):
            return {INACTIVE: 1.0}
        dist = self.edited(chain_id, resolved) if chain_id in self.rules else None
        if dist is None or dist is self.priors[chain_id]:  # no rule fired, or none changed the prior
            return self.kernels[chain_id]
        return {**dict(zip(dist.options, dist.mass)), INACTIVE: 0.0}


def compile_policy(substrate: Substrate, rows: PolicyRows | CompiledPolicy) -> CompiledPolicy:
    """The kernel table of ``rows``; a table passed as ``rows`` is returned as it is."""
    if isinstance(rows, CompiledPolicy):
        if rows.substrate is not substrate:
            raise ValueError("policy table compiled for another substrate")
        return rows
    if rows.tree_version != substrate.tree_version:
        message = f"rows built for tree {rows.tree_version}, substrate carries {substrate.tree_version}"
        raise VersionMismatchError(message)
    for node, kids in substrate.tree.s_children_table.items():
        row = rows.rows.get(node)
        if row is None:
            raise ValueError(f"row {node!r} missing")
        if row.options != kids and (len(row.options) != len(kids) or set(row.options) != set(kids)):
            raise ValueError(f"row {node!r}: options {list(row.options)} are not the s-children {list(kids)}")
    priors = {cid: chain_prior(substrate, rows, cid) for cid in substrate.decision_chain_ids}
    kernels = {cid: {**dict(zip(p.options, p.mass)), INACTIVE: 0.0} for cid, p in priors.items()}
    kernels.update((cid, {cid: 1.0, INACTIVE: 0.0}) for cid in substrate.chain_order if cid not in priors)
    rules: dict[str, tuple[CompiledRule, ...]] = {}
    for rule in substrate.rules:
        if rule.eligible:
            rules[rule.target_chain] = rules.get(rule.target_chain, ()) + (rule,)
    return CompiledPolicy(substrate, priors, rules, kernels)


def edited_chain_distribution(
    substrate: Substrate, rows: PolicyRows, chain_id: str, resolved: Mapping[str, Optional[str]]
) -> ProbabilityRow:
    """The chain prior after composing every rule whose trigger is met: a
    view over ``compile_policy(substrate, rows)``."""
    _check_lower_levels_resolved(substrate, chain_id, resolved)
    if not substrate.chains.chains[chain_id].is_decision:
        raise ValueError(f"chain {chain_id} carries no decision")
    return compile_policy(substrate, rows).edited(chain_id, resolved)


def chain_kernel(
    substrate: Substrate, rows: PolicyRows, chain_id: str, resolved: Mapping[str, Optional[str]]
) -> dict[Optional[str], float]:
    """Kernel over the augmented alphabet: every value of the chain's domain, then the
    inactive marker.  A fresh view over ``compile_policy(substrate, rows).kernel``."""
    _check_lower_levels_resolved(substrate, chain_id, resolved)
    kernel = compile_policy(substrate, rows).kernel(chain_id, resolved)
    return {**dict.fromkeys(substrate.chain_value_domain(chain_id), 0.0), **kernel}


def validate_tuple(substrate: Substrate, m: MethodTuple) -> None:
    """Raise ValueError unless ``m`` has one value per chain, each in its domain."""
    picks = m.picks
    expected = set(substrate.chain_order)
    if set(picks) != expected:
        missing = sorted(expected - set(picks))
        extra = sorted(set(picks) - expected)
        raise ValueError(f"method tuple malformed (missing {missing}, unknown {extra})")
    for cid, value in picks.items():
        if value is not None and value not in substrate.chain_value_domain(cid):
            raise ValueError(f"value {value!r} is not in the domain of chain {cid}")


def method_probability(substrate: Substrate, rows: PolicyRows | CompiledPolicy, m: MethodTuple) -> float:
    """Product of chain kernels in level order; 0 for inadmissible tuples."""
    policy = compile_policy(substrate, rows)
    validate_tuple(substrate, m)
    picks = m.picks
    prob = 1.0
    for cid in substrate.chain_order:
        factor = policy.kernel(cid, picks).get(picks[cid], 0.0)
        if factor == 0.0:
            return 0.0
        prob *= factor
    return prob


def method_path_nodes(substrate: Substrate, m: MethodTuple) -> frozenset[str]:
    """Union of root-to-value paths over the tuple's active chains."""
    nodes: set[str] = set()
    tree = substrate.tree
    for _, node in m.items:
        while node is not None and node not in nodes:  # up to the root, or to a path already taken
            nodes.add(node)
            node = tree.parent[node] if node != tree.root else None
    return frozenset(nodes)


def enumerate_support(
    substrate: Substrate, rows: PolicyRows | CompiledPolicy, cap: int = 10**6
) -> list[tuple[MethodTuple, float]]:
    """All structurally admissible tuples with exact kernel-product mass.

    Tuples zeroed by a fired rule are listed with probability 0; the
    activity-inconsistent remainder of the Cartesian product is not.
    """
    policy = compile_policy(substrate, rows)
    if substrate.joint_size > cap:
        raise EnumerationCapError(f"joint size {substrate.joint_size} exceeds cap {cap}")

    order = substrate.chain_order
    out: list[tuple[MethodTuple, float]] = []
    resolved: dict[str, Optional[str]] = {}  # picks of order[:depth], in order
    stack: list[tuple[int, Optional[str], float]] = []  # (depth, value, mass with it)

    def expand(depth: int, acc: float) -> None:
        if depth == len(order):
            out.append((MethodTuple.from_picks(resolved), acc))
            return
        kernel = policy.kernel(order[depth], resolved)
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


def _draw(rng: Stream, options: list[Optional[str]], weights: list[float]) -> Optional[str]:
    # explicit inverse-CDF draw so results do not depend on Generator.choice internals
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for option, w in zip(options, weights):
        acc += w
        if u < acc:
            return option
    return options[-1]


def _sample_once(policy: CompiledPolicy, rng: Stream) -> MethodTuple:
    resolved: dict[str, Optional[str]] = {}
    for cid in policy.substrate.chain_order:
        kernel = policy.kernel(cid, resolved)
        values = [v for v, w in kernel.items() if w > 0.0]
        resolved[cid] = values[0] if len(values) == 1 else _draw(rng, values, [kernel[v] for v in values])
    return MethodTuple.from_picks(resolved)


def sample_method(
    substrate: Substrate,
    rows: PolicyRows | CompiledPolicy,
    seed: int,
    avoid: frozenset[MethodTuple] | set[MethodTuple] = frozenset(),
) -> MethodTuple:
    """Level-by-level draw on the seed's PCG64 stream, rejection-resampling against ``avoid``.

    After ``MAX_RETRIES`` collisions, falls back to enumerating the positive
    support minus the avoid set and drawing from its renormalisation; raises
    SupportExhaustedError when nothing remains.
    """
    from .stream import Stream

    policy = compile_policy(substrate, rows)
    rng = Stream(seed)
    for _ in range(MAX_RETRIES if avoid else 1):
        m = _sample_once(policy, rng)
        if m not in avoid:
            return m
    remaining = [(m, p) for m, p in enumerate_support(substrate, policy) if p > 0.0 and m not in avoid]
    if not remaining:
        raise SupportExhaustedError("avoid set covers the whole positive support")
    return _draw(rng, [m for m, _ in remaining], [p for _, p in remaining])
