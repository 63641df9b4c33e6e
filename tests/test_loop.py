import numpy as np
import pytest

from graft import (
    MemoryRepository,
    MethodTuple,
    SyntheticEnvSpec,
    TrialHistory,
    TrialRecord,
    advisor_edit,
    build_substrate,
    enumerate_support,
    fingerprint,
    jaccard,
    layout,
    make_synthetic_env,
    min_injective_k,
    run_trial,
    uniform_rows,
)
from graft.graph import graph_from_document


def two_chain_substrate():
    doc = {
        "root": "r",
        "nodes": [{"id": n} for n in ["r", "A", "a1", "a2", "B", "b1", "b2"]],
        "edges": [
            {"parent": "r", "child": "A", "type": "c"},
            {"parent": "r", "child": "B", "type": "c"},
            {"parent": "A", "child": "a1", "type": "s"},
            {"parent": "A", "child": "a2", "type": "s"},
            {"parent": "B", "child": "b1", "type": "s"},
            {"parent": "B", "child": "b2", "type": "s"},
        ],
    }
    return build_substrate(graph_from_document(doc))


class PinnedEnvironment:
    """Scores one target tuple at 100 and everything else 0."""

    def __init__(self, target: MethodTuple, convergence_reward=None):
        self.target = target
        self.convergence_reward = convergence_reward

    def implement(self, action, state):
        return action

    def execute(self, state):
        return {"hit": 1.0 if state == self.target else 0.0}

    def score(self, observables):
        return 100.0 * observables["hit"]


def problem_fp_for(substrate):
    e = layout(substrate.tree)
    path = substrate.tree.path_from_root(substrate.chains.chains["A"].alphabet[0])
    return fingerprint(e, path, min_injective_k(e))


def fresh_repo(substrate, fp):
    return MemoryRepository(problem_tree_version=fp.tree_tag, action_tree_version=substrate.tree_version)


class TestRunTrial:
    def test_budget_one_appends_exactly_one(self):
        s = two_chain_substrate()
        fp = problem_fp_for(s)
        repo = fresh_repo(s, fp)
        target = MethodTuple.from_picks({"A": "a1", "B": "b1"})
        result = run_trial(PinnedEnvironment(target), s, repo, fp, budget=1, seed=3)
        assert len(repo) == 1
        assert len(result.history) == 1

    def test_unique_peak_found_within_support_size(self):
        s = two_chain_substrate()
        fp = problem_fp_for(s)
        support = enumerate_support(s, uniform_rows(s))
        target = support[2][0]
        repo = fresh_repo(s, fp)
        env = PinnedEnvironment(target, convergence_reward=100.0)
        result = run_trial(env, s, repo, fp, budget=len(support), seed=11)
        assert result.best_reward == 100.0
        assert result.best_method == target
        assert len(result.history) <= len(support)

    def test_no_reissue_within_trial(self):
        s = two_chain_substrate()
        fp = problem_fp_for(s)
        repo = fresh_repo(s, fp)
        target = MethodTuple.from_picks({"A": "a1", "B": "b1"})
        result = run_trial(PinnedEnvironment(target), s, repo, fp, budget=4, seed=7)
        methods = [r.method for r in result.history.records]
        assert len(methods) == len(set(methods))

    def test_exhaustion_flag_when_support_smaller_than_budget(self):
        s = two_chain_substrate()
        fp = problem_fp_for(s)
        repo = fresh_repo(s, fp)
        target = MethodTuple.from_picks({"A": "a1", "B": "b1"})
        result = run_trial(PinnedEnvironment(target), s, repo, fp, budget=10, seed=7)
        assert result.exhausted
        assert len(result.history) == 4  # the whole support was tried

    def test_repo_append_per_iteration_and_determinism(self):
        s = two_chain_substrate()
        fp = problem_fp_for(s)
        target = MethodTuple.from_picks({"A": "a2", "B": "b2"})

        def run():
            repo = fresh_repo(s, fp)
            run_trial(PinnedEnvironment(target), s, repo, fp, budget=4, seed=21)
            return [(e.method, e.reward) for e in repo.entries]

        assert run() == run()


class TestAdvisorEdit:
    def _history(self, records):
        h = TrialHistory()
        for picks, reward in records:
            h.records.append(
                TrialRecord(method=MethodTuple.from_picks(picks), observables={}, reward=reward)
            )
        return h

    def test_random_chain_deterministic(self):
        s = two_chain_substrate()
        rows = uniform_rows(s)
        h = self._history([({"A": "a1", "B": "b1"}, 50.0)])
        last = h.records[-1].method
        e1 = advisor_edit(h, last, s, rows, "random-chain", seed=5)
        e2 = advisor_edit(h, last, s, rows, "random-chain", seed=5)
        assert e1 == e2
        diff = [c for c in ("A", "B") if e1.picks[c] != last.picks[c]]
        assert len(diff) == 1

    def test_worst_chain_picks_lowest_mean(self):
        s = two_chain_substrate()
        rows = uniform_rows(s)
        # sharing a1: rewards 10, 90 (mean 50); sharing b2: reward 90 (mean 90)
        h = self._history(
            [({"A": "a1", "B": "b1"}, 10.0), ({"A": "a1", "B": "b2"}, 90.0)]
        )
        last = h.records[-1].method
        edited = advisor_edit(h, last, s, rows, "worst-chain", seed=9)
        assert edited.picks["A"] == "a2"  # chain A had the lower mean
        assert edited.picks["B"] == "b2"

    def test_rule_violating_edit_redrawn_or_rejected(self):
        from graft.fixtures import morning_graph

        s = build_substrate(morning_graph())
        rows = uniform_rows(s)
        base = {
            "breakfast": "breakfast_yes",
            "clothes": "clothes",
            "style": "style_casual",
            "helmet": "helmet_yes",
            "transport": "transport_bike",
        }
        h = self._history([(base, 50.0)])
        last = h.records[-1].method
        # force the advisor onto the helmet chain: bike pins helmet to yes, so
        # flipping helmet alone is inadmissible and the advisor must edit another
        # chain (or nothing), never emit a zero-probability tuple
        for seed in range(20):
            edited = advisor_edit(h, last, s, rows, "random-chain", seed=seed)
            if edited is None:
                continue
            from graft import method_probability

            assert method_probability(s, rows, edited) > 0.0
            if edited.picks["transport"] == "transport_bike":
                assert edited.picks["helmet"] == "helmet_yes"

    def test_no_admissible_edit_returns_none(self):
        # single chain with two options, the alternative already in history
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "A", "a1", "a2"]],
            "edges": [
                {"parent": "r", "child": "A", "type": "c"},
                {"parent": "A", "child": "a1", "type": "s"},
                {"parent": "A", "child": "a2", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        rows = uniform_rows(s)
        h = self._history([({"A": "a1"}, 10.0), ({"A": "a2"}, 20.0)])
        assert advisor_edit(h, h.records[-1].method, s, rows, "worst-chain", seed=1) is None

    def test_empty_history_rejected(self):
        s = two_chain_substrate()
        with pytest.raises(ValueError, match="non-empty"):
            advisor_edit(TrialHistory(), MethodTuple.from_picks({"A": "a1", "B": "b1"}), s, uniform_rows(s), "worst-chain", 1)


class TestSyntheticEnvironment:
    def test_noiseless_reward_is_jaccard(self):
        spec = SyntheticEnvSpec(problem_count=3, mutation_rate=0.3, noise_level=0.0)
        env = make_synthetic_env(spec, seed=5)
        rows = uniform_rows(env.action_substrate)
        from graft import sample_method

        m = sample_method(env.action_substrate, rows, 77)
        bound = env.bind(0)
        observables = bound.execute(bound.implement(m, None))
        assert bound.score(observables) == pytest.approx(env.true_reward(0, m), abs=1e-12)

    def test_zero_mutation_rate_shares_one_target(self):
        spec = SyntheticEnvSpec(problem_count=5, mutation_rate=0.0, noise_level=0.0)
        env = make_synthetic_env(spec, seed=9)
        fps = {p.target_fingerprint.cells for p in env.problems}
        assert len(fps) == 1

    def test_closer_problems_have_closer_targets(self):
        spec = SyntheticEnvSpec(
            problem_count=1, mutation_rate=0.0, noise_level=0.0, problem_chains=8, action_chains=8
        )
        env = make_synthetic_env(spec, seed=13)
        from graft.loop import _mutate_tuple, _tuple_from_path
        from graft.policy import method_path_nodes

        base_problem = _tuple_from_path(env.problem_substrate, env.problems[0].path_nodes)
        base_target_fp = env.problems[0].target_fingerprint
        rng = np.random.default_rng(4)
        sims = {}
        for d in (1, 2, 4, 6):
            from graft.loop import _tuple_from_cells

            base_target = _tuple_from_cells(env.action_substrate, env.action_embedding, base_target_fp)
            mutated, real = _mutate_tuple(env.action_substrate, base_target, d, rng)
            fp = fingerprint(
                env.action_embedding,
                method_path_nodes(env.action_substrate, mutated),
                env.action_k,
            )
            sims[d] = jaccard(fp, base_target_fp)
        assert sims[1] > sims[2] > sims[4] > sims[6]

    def test_environment_determinism(self):
        spec = SyntheticEnvSpec(problem_count=4, mutation_rate=0.4, noise_level=2.0)
        a = make_synthetic_env(spec, seed=21)
        b = make_synthetic_env(spec, seed=21)
        assert [p.fingerprint.cells for p in a.problems] == [p.fingerprint.cells for p in b.problems]
        assert [p.target_fingerprint.cells for p in a.problems] == [
            p.target_fingerprint.cells for p in b.problems
        ]

    def test_bad_spec_rejected(self):
        from graft import GraftError

        with pytest.raises(GraftError):
            SyntheticEnvSpec(problem_count=2, mutation_rate=1.5, noise_level=0.0).validate()
        with pytest.raises(GraftError):
            SyntheticEnvSpec(problem_count=2, mutation_rate=0.5, noise_level=0.0, holdout_count=2).validate()

    def test_trials_on_synthetic_env_fill_repo(self):
        spec = SyntheticEnvSpec(problem_count=2, mutation_rate=0.3, noise_level=1.0)
        env = make_synthetic_env(spec, seed=31)
        repo = MemoryRepository(
            env.problem_substrate.tree_version, env.action_substrate.tree_version
        )
        r0 = run_trial(env.bind(0), env.action_substrate, repo, env.problems[0].fingerprint, budget=5, seed=1)
        r1 = run_trial(env.bind(1), env.action_substrate, repo, env.problems[1].fingerprint, budget=5, seed=2)
        assert len(repo) == len(r0.history) + len(r1.history) == 10
        assert 0.0 <= r0.best_reward <= 100.0


class TextEnvironment(PinnedEnvironment):
    """Reports its observable as a string."""

    def execute(self, state):
        return {"hit": "yes" if state == self.target else "no"}


def test_environment_observables_must_be_numbers():
    s = two_chain_substrate()
    fp = problem_fp_for(s)
    repo = fresh_repo(s, fp)
    target = MethodTuple.from_picks({"A": "a1", "B": "b1"})
    with pytest.raises(ValueError, match="observable 'hit' must be a number, found str"):
        run_trial(TextEnvironment(target), s, repo, fp, budget=2, seed=0)
    assert len(repo) == 0
