"""Build pipeline: rules to chain dependencies, acyclicity, decision levels.

The chain dependency graph H collects rule-induced edges (trigger chain to
target chain) and structural-nesting edges (enclosing chain to nested
chain).  One depth-first search of H either finds a cycle, which fails the
build with a witness, or yields a topological order; a chain's level is its
longest-path length in H, read along that order.  Sampling later proceeds
level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BuildError
from .graph import KnowledgeGraph, Rule, depth_first
from .reduction import ChainIndex, FactoredTree, digest, extract_chains, reduce_to_tree


@dataclass(frozen=True)
class DependencyGraph:
    vertices: tuple[str, ...]  # chain ids, sorted
    rule_edges: frozenset[tuple[str, str]]  # E
    nesting_edges: frozenset[tuple[str, str]]  # E_rho

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return self.rule_edges | self.nesting_edges

    def parents(self, chain_id: str) -> frozenset[str]:
        return frozenset(a for a, b in self.edges if b == chain_id)


@dataclass(frozen=True)
class CycleWitness:
    chains: frozenset[str]


@dataclass(frozen=True)
class LevelMap:
    level: dict[str, int]

    def __getitem__(self, chain_id: str) -> int:
        return self.level[chain_id]


@dataclass(frozen=True)
class CompiledRule:
    """A rule resolved against the chain index, ready for sample-time use.

    ``triggers`` pairs each trigger chain with the alphabet slice whose pick
    satisfies that trigger node (the members lying at or below it).
    ``target_slice`` is the alphabet slice the effect operator acts on.
    ``eligible`` marks rules whose full trigger set can actually resolve
    strictly below the target chain; others never fire.  ``certain`` marks
    rules whose triggers hold for every admissible tuple, which is the only
    case applied at prior-compile time.
    """

    index: int
    hint: str
    effect: str
    target_chain: str
    target_slice: frozenset[str]
    triggers: tuple[tuple[str, frozenset[str]], ...]
    eligible: bool
    certain: bool

    def fired_by(self, resolved) -> bool:
        if not self.eligible:
            return False
        return all(resolved.get(chain) in allowed for chain, allowed in self.triggers)


@dataclass(frozen=True)
class Substrate:
    """The compiled object every downstream module operates on."""

    graph: KnowledgeGraph
    tree: FactoredTree
    chains: ChainIndex
    dep: DependencyGraph
    levels: LevelMap
    rules: tuple[CompiledRule, ...]
    version: str  # content hash of the source graph document
    tree_version: str  # layout / fingerprint scope

    @cached_property
    def chain_order(self) -> tuple[str, ...]:
        """All chain ids in (level, id) order; the sampling order."""
        return tuple(sorted(self.chains.chains, key=lambda c: (self.levels[c], c)))

    @cached_property
    def chain_parents(self) -> dict[str, tuple[str, ...]]:
        """chain id -> its parents in the dependency graph, in chain_order."""
        parents: dict[str, list[str]] = {cid: [] for cid in self.chain_order}
        for a, b in self.dep.edges:
            parents[b].append(a)
        position = {cid: i for i, cid in enumerate(self.chain_order)}
        return {cid: tuple(sorted(ps, key=position.__getitem__)) for cid, ps in parents.items()}

    @cached_property
    def decision_chain_ids(self) -> tuple[str, ...]:
        return self.chains.decision_chain_ids

    @cached_property
    def gate(self) -> dict[str, tuple[str, str]]:
        """chain id -> (enclosing chain, required enclosing value).

        A chain is active in a tuple exactly when its gate chain resolved to
        the required value; top chains have no gate and are always active.
        The required value is the tree parent of the chain's root, which for
        a decision enclosing chain is one of its alphabet terminals and for
        a pass-through enclosing chain is its root (its presence marker).
        """
        out: dict[str, tuple[str, str]] = {}
        for cid, parent_chain in self.chains.nesting_parent.items():
            root = self.chains.chains[cid].root
            out[cid] = (parent_chain, self.tree.parent[root])
        return out

    def chain_value_domain(self, chain_id: str) -> tuple[str, ...]:
        """Values a chain can carry when active (presence marker if pass-through)."""
        chain = self.chains.chains[chain_id]
        return chain.alphabet if chain.is_decision else (chain.root,)

    @cached_property
    def joint_size(self) -> int:
        out = 1
        for cid in self.decision_chain_ids:
            out *= len(self.chains.chains[cid].alphabet)
        return out

    @cached_property
    def footprint(self) -> int:
        alphabet_total = sum(len(self.chains.chains[c].alphabet) for c in self.decision_chain_ids)
        return alphabet_total + len(self.rules)

    def members_below(self, node: str, chain_id: str) -> frozenset[str]:
        """Alphabet members of a chain lying at or below ``node``."""
        return _members_below(self.tree, self.chains, node, chain_id)


def _members_below(tree: FactoredTree, ci: ChainIndex, node: str, chain_id: str) -> frozenset[str]:
    return frozenset(a for a in ci.chains[chain_id].alphabet if tree.is_ancestor_or_self(node, a))


def expand_rules(ci: ChainIndex, rules: tuple[Rule, ...]) -> DependencyGraph:
    """Expand each rule into the directed chain edges it induces."""
    edges: set[tuple[str, str]] = set()
    for i, rule in enumerate(rules):
        target_chains = {ci.enclosing.get(g) for g in rule.target}
        if len(target_chains) != 1:
            raise BuildError(
                "rules",
                f"rule {rule.hint!r} (#{i}): target spans chains {sorted(str(c) for c in target_chains)}",
            )
        (target_chain,) = target_chains
        if target_chain is None or not ci.chains[target_chain].is_decision:
            raise BuildError("rules", f"rule {rule.hint!r} (#{i}): target is not on a decision chain")
        for t in rule.trigger:
            trig_chain = ci.enclosing.get(t)
            if trig_chain is None or not ci.chains[trig_chain].is_decision:
                raise BuildError("rules", f"rule {rule.hint!r} (#{i}): trigger {t!r} is not on a decision chain")
            if trig_chain != target_chain:
                edges.add((trig_chain, target_chain))

    nesting = frozenset((p, c) for c, p in ci.nesting_parent.items())
    return DependencyGraph(
        vertices=tuple(sorted(ci.chains)),
        rule_edges=frozenset(edges),
        nesting_edges=nesting,
    )


def assign_levels(h: DependencyGraph) -> LevelMap:
    """Longest-path level of every chain, from one depth-first search.

    Successors follow ``sorted(h.edges)``, so on a cycle the witness does not
    depend on hash order.
    """
    successors: dict[str, list[str]] = {v: [] for v in h.vertices}
    for a, b in sorted(h.edges):
        successors[a].append(b)
    postorder, back_edges, parent = depth_first(h.vertices, successors)
    if back_edges:
        tail, head = back_edges[0]
        cycle = [tail]
        while cycle[-1] != head:
            cycle.append(parent[cycle[-1]])
        witness = CycleWitness(frozenset(cycle))
        raise BuildError("cycle", f"dependency cycle through chains {sorted(witness.chains)}", witness=witness)
    level = {v: 0 for v in h.vertices}
    for a in reversed(postorder):  # a topological order
        for b in successors[a]:
            level[b] = max(level[b], level[a] + 1)
    return LevelMap(level)


def check_acyclic(h: DependencyGraph) -> CycleWitness | None:
    """The chains of one cycle, or None when acyclic."""
    try:
        assign_levels(h)
    except BuildError as exc:
        return exc.witness
    return None


def _structurally_certain_chain(tree: FactoredTree, ci: ChainIndex, chain_id: str) -> bool:
    # active for every admissible tuple: no s-edge on the path to the chain root
    root = ci.chains[chain_id].root
    path = tree.path_from_root(root)
    return all(tree.edge_type[n].value == "c" for n in path[1:])


def _compile_rules(
    graph: KnowledgeGraph, tree: FactoredTree, ci: ChainIndex, levels: LevelMap
) -> tuple[CompiledRule, ...]:
    compiled: list[CompiledRule] = []
    for i, rule in enumerate(graph.rules):
        target_chain = ci.enclosing[next(iter(rule.target))]
        alphabet = ci.chains[target_chain].alphabet
        slice_members = frozenset().union(*(_members_below(tree, ci, g, target_chain) for g in rule.target))
        triggers = [(ci.enclosing[t], _members_below(tree, ci, t, ci.enclosing[t])) for t in sorted(rule.trigger)]
        eligible = all(
            chain != target_chain and levels[chain] < levels[target_chain] for chain, _ in triggers
        )
        certain = eligible and all(
            _structurally_certain_chain(tree, ci, chain) and allowed >= frozenset(ci.chains[chain].alphabet)
            for chain, allowed in triggers
        )
        if rule.effect == "zero_out" and slice_members >= frozenset(alphabet):
            raise BuildError(
                "support",
                f"rule {rule.hint!r} (#{i}) zeroes the entire alphabet of chain {target_chain}",
                witness=(rule.hint, target_chain),
            )
        compiled.append(
            CompiledRule(
                index=i,
                hint=rule.hint,
                effect=rule.effect,
                target_chain=target_chain,
                target_slice=slice_members,
                triggers=tuple(triggers),
                eligible=eligible,
                certain=certain,
            )
        )
    return tuple(compiled)


def substrate_content_hash(graph_document: dict) -> str:
    return digest(graph_document)


def build_substrate(g: KnowledgeGraph) -> Substrate:
    """Run the full build: validate and reduce, chain, expand, level (refusing a cycle)."""
    from .graph import graph_to_document

    tree = reduce_to_tree(g)
    ci = extract_chains(tree)
    dep = expand_rules(ci, g.rules)
    levels = assign_levels(dep)
    rules = _compile_rules(g, tree, ci, levels)

    return Substrate(
        graph=g,
        tree=tree,
        chains=ci,
        dep=dep,
        levels=levels,
        rules=rules,
        version=substrate_content_hash(graph_to_document(g)),
        tree_version=tree.version_hash(),
    )
