"""Closed trial loop over a pluggable environment, plus a synthetic reference.

One trial compiles the prior once, then repeatedly samples a method (never
re-issuing one already tried on this problem), implements and executes it,
scores the observables, and commits every attempt both to the short-term
trial history and to the long-term repository.  From the second iteration on
an advisor proposes single-chain edits of the previous tuple before falling
back to fresh sampling.

The synthetic environment stands in for real solver execution: each problem
hides a target method fingerprint, and a method's reward is the Jaccard
similarity of its fingerprint to that target (minus bounded deterministic
noise).  Problems generated near each other hide targets near each other,
which is what makes warm-started priors measurably better than uniform ones.
"""

from __future__ import annotations

import hashlib
import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional, Protocol, get_args, get_type_hints

from .build import Substrate, build_substrate
from .embedding import Embedding, Fingerprint, fingerprint, jaccard, layout, min_injective_k
from .errors import GraftError, SupportExhaustedError
from .graph import KnowledgeGraph, graph_from_document
from .memory import MemoryEntry, MemoryRepository, R_MAX, check_observables, compile_prior, record
from .policy import (
    CompiledPolicy,
    MethodTuple,
    PolicyRows,
    _draw,
    compile_policy,
    method_path_nodes,
    method_probability,
    sample_method,
    uniform_rows,
)
from .stream import Stream, spawn_word


def random_chain_strategy(shared: dict[str, tuple[float, ...]], rng: Stream) -> list[str]:
    order = list(shared)
    rng.shuffle(order)
    return order


def worst_chain_strategy(shared: dict[str, tuple[float, ...]], rng: Stream) -> list[str]:
    def mean_reward(cid: str) -> float:
        return sum(shared[cid]) / len(shared[cid]) if shared[cid] else R_MAX

    return sorted(shared, key=lambda cid: (mean_reward(cid), cid))


# A strategy orders the editable chains, most promising first.  It sees only
# {chain id: rewards of the attempts sharing the current pick on it}; keeping
# strategies to this view is what preserves the per-chain factorisation.
ADVISOR_STRATEGIES = {
    "random-chain": random_chain_strategy,
    "worst-chain": worst_chain_strategy,
}


def _editable_chains(substrate: Substrate, m: MethodTuple) -> list[str]:
    """Decision chains ``m`` activates that offer more than one value."""
    picks, chains = m.picks, substrate.chains.chains
    return [c for c in substrate.decision_chain_ids if picks.get(c) is not None and len(chains[c].alphabet) > 1]


@dataclass(frozen=True)
class TrialRecord:
    method: MethodTuple
    observables: dict[str, float]
    reward: float


@dataclass
class TrialHistory:
    """Short-term, per-problem record; folded into the repository entry-by-entry."""

    records: list[TrialRecord] = field(default_factory=list)

    def methods(self) -> set[MethodTuple]:
        return {r.method for r in self.records}

    def __len__(self) -> int:
        return len(self.records)


class Environment(Protocol):
    convergence_reward: Optional[float]

    def implement(self, action: MethodTuple, state): ...

    def execute(self, state) -> dict[str, float]: ...

    def score(self, observables: dict[str, float]) -> float: ...


@dataclass(frozen=True)
class TrialResult:
    best_method: Optional[MethodTuple]
    best_reward: float
    repo: MemoryRepository
    history: TrialHistory
    exhausted: bool


def _iteration_seed(base_seed: int, iteration: int, stream: int) -> int:
    return spawn_word(base_seed, iteration, stream)


def advisor_edit(
    history: TrialHistory,
    last: MethodTuple,
    substrate: Substrate,
    rows: PolicyRows | CompiledPolicy,
    strategy: str,
    seed: int,
    avoid: set[MethodTuple] | frozenset[MethodTuple] = frozenset(),
) -> Optional[MethodTuple]:
    """Propose a tuple differing from ``last`` on exactly one chain.

    ``strategy`` names an entry of ``ADVISOR_STRATEGIES`` ("random-chain",
    "worst-chain"); it orders the editable chains by preference.  The
    replacement value is drawn from the edited kernel given the other
    picks, restricted to values keeping the full tuple admissible and
    outside ``avoid``.  Returns None when no admissible single-chain edit
    exists.
    """
    try:
        strategy_fn = ADVISOR_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown advisor strategy {strategy!r}") from None
    if not history.records:
        raise ValueError("advisor needs a non-empty trial history")

    picks = last.picks
    attempts = [(r.method.picks, r.reward) for r in history.records]
    shared = {
        cid: tuple(reward for other, reward in attempts if other.get(cid) == picks[cid])
        for cid in _editable_chains(substrate, last)
    }
    if not shared:
        return None

    policy = compile_policy(substrate, rows)
    rng = Stream(seed)
    order = strategy_fn(shared, rng)
    tried = history.methods()

    for cid in order:
        kernel = policy.kernel(cid, picks)
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
            if method_probability(substrate, policy, edited) > 0.0:
                return edited
    return None


def run_trial(
    env: Environment,
    substrate: Substrate,
    repo: MemoryRepository,
    p_new: Fingerprint,
    budget: int,
    seed: int,
    *,
    strategy: str = "worst-chain",
    on_iteration=None,
) -> TrialResult:
    """One closed-loop trial: prior and kernel table compiled once, sampled
    level by level, every attempt committed to the history and the repository."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    policy = compile_policy(substrate, compile_prior(repo, p_new, substrate))
    history = TrialHistory()
    state = None
    exhausted = False

    for n in range(budget):
        tried = history.methods()
        m = None
        if n > 0:
            m = advisor_edit(
                history,
                history.records[-1].method,
                substrate,
                policy,
                strategy,
                _iteration_seed(seed, n, stream=1),
                avoid=tried,
            )
        if m is None:
            try:
                m = sample_method(substrate, policy, _iteration_seed(seed, n, stream=0), avoid=tried)
            except SupportExhaustedError:
                exhausted = True
                break

        state = env.implement(m, state)
        observables = env.execute(state)
        check_observables(observables)  # before score reads them
        reward = env.score(observables)
        history.records.append(TrialRecord(method=m, observables=observables, reward=reward))
        record(
            repo,
            MemoryEntry(
                problem_fp=p_new,
                method=m,
                method_path_nodes=method_path_nodes(substrate, m),
                observables=observables,
                reward=reward,
            ),
        )
        if on_iteration is not None:
            on_iteration(n, m, observables, reward)
        if env.convergence_reward is not None and reward >= env.convergence_reward:
            break

    if not history.records:
        return TrialResult(None, 0.0, repo, history, exhausted)
    best = max(history.records, key=lambda r: r.reward)
    return TrialResult(best.method, best.reward, repo, history, exhausted)


# ---------------------------------------------------------------------------
# synthetic reference environment


@dataclass(frozen=True)
class SyntheticEnvSpec:
    """Sizes and knobs for the generated reference environment.

    Either both graph documents are given, or both tree shapes are generated
    from the size fields (``*_chains`` top-level chains with
    ``*_options`` options each).
    """

    problem_count: int
    mutation_rate: float
    noise_level: float
    problem_chains: int = 6
    problem_options: int = 3
    action_chains: int = 6
    action_options: int = 3
    holdout_count: int = 0
    holdout_distance: int = 1
    convergence_reward: Optional[float] = None
    problem_graph: Optional[dict] = None
    action_graph: Optional[dict] = None

    def validate(self) -> None:
        for name, hint in get_type_hints(SyntheticEnvSpec).items():
            value = getattr(self, name)
            if value is None and type(None) in get_args(hint):
                continue
            kind, what = _SPEC_KINDS[get_args(hint)[0] if get_args(hint) else hint]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise GraftError(f"{name} must be {what}, found {type(value).__name__}")
        for name in ("noise_level", "convergence_reward"):
            value = getattr(self, name)
            if value is not None and not -sys.float_info.max <= value <= sys.float_info.max:  # NaN fails both
                what = f"finite, found {value!r}" if isinstance(value, float) else "within the float range"
                raise GraftError(f"{name} must be {what}")
        if self.problem_count < 1:
            raise GraftError("problem_count must be positive")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise GraftError("mutation_rate must lie in [0, 1]")
        if self.noise_level < 0.0:
            raise GraftError("noise_level must be non-negative")
        if self.holdout_count >= self.problem_count:
            raise GraftError("holdout_count must leave at least one training problem")
        if (self.problem_graph is None) != (self.action_graph is None):
            raise GraftError("give both graph documents or neither")


# the values each annotation of SyntheticEnvSpec admits; bool is refused apart
_SPEC_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"), dict: (dict, "an object")}


def _flat_graph(prefix: str, chains: int, options: int) -> KnowledgeGraph:
    nodes = [f"{prefix}_root"]
    edges = []
    for i in range(chains):
        head = f"{prefix}_chain{i:02d}"
        nodes.append(head)
        edges.append({"parent": f"{prefix}_root", "child": head, "type": "c"})
        for j in range(options):
            opt = f"{head}_opt{j}"
            nodes.append(opt)
            edges.append({"parent": head, "child": opt, "type": "s"})
    return graph_from_document(
        {"root": f"{prefix}_root", "nodes": nodes, "edges": edges}
    )


@dataclass(frozen=True)
class SyntheticProblem:
    index: int
    fingerprint: Fingerprint
    path_nodes: frozenset[str]
    target_fingerprint: Fingerprint
    distance: int  # mutated chains relative to the base problem


@dataclass
class SyntheticEnvironment:
    spec: SyntheticEnvSpec
    seed: int
    problem_substrate: Substrate
    action_substrate: Substrate
    problem_embedding: Embedding
    action_embedding: Embedding
    problem_k: int
    action_k: int
    problems: list[SyntheticProblem]

    def true_reward(self, index: int, method: MethodTuple) -> float:
        """Noise-free ground truth for oracle tests."""
        fp = self._method_fingerprint(method)
        return R_MAX * jaccard(fp, self.problems[index].target_fingerprint)

    def _method_fingerprint(self, method: MethodTuple) -> Fingerprint:
        nodes = method_path_nodes(self.action_substrate, method)
        return fingerprint(self.action_embedding, nodes, self.action_k)

    def _noise(self, index: int, method: MethodTuple) -> float:
        if self.spec.noise_level == 0.0:
            return 0.0
        payload = f"{self.seed}|{index}|{sorted(method.items)}"
        digest = hashlib.sha256(payload.encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        return self.spec.noise_level * u

    def bind(self, index: int) -> "BoundSyntheticEnvironment":
        return BoundSyntheticEnvironment(env=self, index=index)


@dataclass
class BoundSyntheticEnvironment:
    """The Environment protocol scoped to one synthetic problem."""

    env: SyntheticEnvironment
    index: int

    @property
    def convergence_reward(self) -> Optional[float]:
        return self.env.spec.convergence_reward

    def implement(self, action: MethodTuple, state) -> MethodTuple:
        return action  # the configured state is the method itself

    def execute(self, state: MethodTuple) -> dict[str, float]:
        similarity = jaccard(
            self.env._method_fingerprint(state),
            self.env.problems[self.index].target_fingerprint,
        )
        return {
            "target_similarity": similarity,
            "noise": self.env._noise(self.index, state),
        }

    def score(self, observables: dict[str, float]) -> float:
        raw = R_MAX * observables["target_similarity"] - observables["noise"]
        return min(R_MAX, max(0.0, raw))


def _mutate_tuple(
    substrate: Substrate,
    base: MethodTuple,
    count: int,
    rng: Stream,
) -> tuple[MethodTuple, int]:
    """Redraw the picks of ``count`` distinct decision chains of ``base``."""
    editable = _editable_chains(substrate, base)
    count = min(count, len(editable))
    chosen = sorted(map(int, rng.choice(len(editable), size=count, replace=False))) if count else []
    out = base
    for pos in chosen:
        cid = editable[pos]
        alternatives = [a for a in substrate.chains.chains[cid].alphabet if a != out.picks[cid]]
        out = out.with_value(cid, alternatives[rng.integers(len(alternatives))])
    return out, count


def make_synthetic_env(spec: SyntheticEnvSpec, seed: int) -> SyntheticEnvironment:
    """Reproducible environment: problems plus hidden targets, coupled so that
    problems mutated little from the base hide targets mutated little from
    the base target."""
    spec.validate()
    if spec.problem_graph is not None:
        problem_graph = graph_from_document(spec.problem_graph)
        action_graph = graph_from_document(spec.action_graph)
    else:
        problem_graph = _flat_graph("p", spec.problem_chains, spec.problem_options)
        action_graph = _flat_graph("a", spec.action_chains, spec.action_options)

    problem_substrate = build_substrate(problem_graph)
    action_substrate = build_substrate(action_graph)
    problem_embedding = layout(problem_substrate.tree)
    action_embedding = layout(action_substrate.tree)
    problem_k = min_injective_k(problem_embedding)
    action_k = min_injective_k(action_embedding)

    rng = Stream(seed)
    base_problem = sample_method(problem_substrate, uniform_rows(problem_substrate), rng.integers(2**32))
    base_target = sample_method(action_substrate, uniform_rows(action_substrate), rng.integers(2**32))

    n_problem_chains = len(problem_substrate.decision_chain_ids)
    n_action_chains = len(action_substrate.decision_chain_ids)

    problems: list[SyntheticProblem] = []

    def add_problem(index: int, problem_base: MethodTuple, target_base: MethodTuple, distance: int):
        p_tuple, d_real = _mutate_tuple(problem_substrate, problem_base, distance, rng)
        target_distance = int(round(d_real * n_action_chains / max(1, n_problem_chains)))
        t_tuple, _ = _mutate_tuple(action_substrate, target_base, target_distance, rng)
        p_nodes = method_path_nodes(problem_substrate, p_tuple)
        t_nodes = method_path_nodes(action_substrate, t_tuple)
        problems.append(
            SyntheticProblem(
                index=index,
                fingerprint=fingerprint(problem_embedding, p_nodes, problem_k),
                path_nodes=p_nodes,
                target_fingerprint=fingerprint(action_embedding, t_nodes, action_k),
                distance=d_real,
            )
        )

    train_count = spec.problem_count - spec.holdout_count
    for i in range(train_count):
        distance = rng.binomial(n_problem_chains, spec.mutation_rate)
        add_problem(i, base_problem, base_target, distance)

    # held-out problems are small mutations of training problems, so their
    # hidden targets stay near targets the repository has already seen
    for i in range(train_count, spec.problem_count):
        anchor = problems[rng.integers(train_count)]
        anchor_problem = _tuple_from_path(problem_substrate, anchor.path_nodes)
        anchor_target = _tuple_from_cells(action_substrate, action_embedding, anchor.target_fingerprint)
        add_problem(i, anchor_problem, anchor_target, spec.holdout_distance)

    return SyntheticEnvironment(
        spec=spec,
        seed=seed,
        problem_substrate=problem_substrate,
        action_substrate=action_substrate,
        problem_embedding=problem_embedding,
        action_embedding=action_embedding,
        problem_k=problem_k,
        action_k=action_k,
        problems=problems,
    )


def _tuple_from_path(substrate: Substrate, path_nodes: frozenset[str]) -> MethodTuple:
    picks: dict[str, Optional[str]] = {}
    for cid in substrate.chain_order:
        hit = [v for v in substrate.chain_value_domain(cid) if v in path_nodes]
        picks[cid] = hit[0] if hit else None
    return MethodTuple.from_picks(picks)


def _tuple_from_cells(substrate: Substrate, embedding: Embedding, fp: Fingerprint) -> MethodTuple:
    from .embedding import invert_cells

    table = invert_cells(embedding, fp.resolution)
    nodes = frozenset(table[c] for c in fp.cells)
    full: set[str] = set()
    for n in nodes:
        full.update(substrate.tree.path_from_root(n))
    return _tuple_from_path(substrate, frozenset(full))
