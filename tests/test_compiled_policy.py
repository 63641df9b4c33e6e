"""The compiled kernel table against the per-call kernel path it replaced.

Every read of the table (kernels, edited distributions, probabilities, the
enumeration, draws and advisor proposals) must equal the per-call oracle in
``oracles.py`` bit for bit, on random substrates with rules.  A table is a
snapshot of the rows it was compiled from, and a trial compiles one table.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graft import (
    MemoryRepository,
    MethodTuple,
    ProbabilityRow,
    TrialHistory,
    TrialRecord,
    advisor_edit,
    chain_kernel,
    edited_chain_distribution,
    enumerate_support,
    method_probability,
    sample_method,
    uniform_rows,
)
from graft import loop, policy
from graft.errors import GraftError
from graft.policy import compile_policy

from oracles import (
    per_call_advisor_edit,
    per_call_chain_kernel,
    per_call_edited_chain_distribution,
    per_call_enumerate_support,
    per_call_method_probability,
    per_call_sample_method,
    random_rows,
    random_substrate,
)


def bits(value):
    """A float as its exact bit pattern, so 0.0 and -0.0 differ; anything else as it is."""
    return value.hex() if isinstance(value, float) else value


def kernel_bits(kernel: dict) -> list:
    return [(k, bits(v)) for k, v in kernel.items()]


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("value", fn(*args))
    except GraftError as exc:
        return ("raised", type(exc).__name__, str(exc))


def contexts(s, cid):
    """Every assignment of the chain's dependency-graph parents, null included."""
    parents = s.chain_parents[cid]
    domains = [list(s.chain_value_domain(p)) + [None] for p in parents]
    for combo in itertools.product(*domains):
        yield dict(zip(parents, combo))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_table_matches_the_per_call_path_bit_for_bit(seed):
    s = random_substrate(seed)
    rows = random_rows(s, seed + 1)
    table = compile_policy(s, rows)

    for cid in s.chain_order:
        for ctx in contexts(s, cid):
            new = outcome(lambda: kernel_bits(chain_kernel(s, rows, cid, ctx)))
            old = outcome(lambda: kernel_bits(per_call_chain_kernel(s, rows, cid, ctx)))
            assert new == old, (cid, ctx)
            if s.chains.chains[cid].is_decision:
                new = outcome(lambda: edited_chain_distribution(s, rows, cid, ctx))
                old = outcome(lambda: per_call_edited_chain_distribution(s, rows, cid, ctx))
                if new[0] == "value":
                    new = ("value", new[1].options, [bits(m) for m in new[1].mass])
                    old = ("value", old[1].options, [bits(m) for m in old[1].mass])
                assert new == old, (cid, ctx)

    support = outcome(lambda: [(m, bits(p)) for m, p in enumerate_support(s, rows)])
    assert support == outcome(lambda: [(m, bits(p)) for m, p in per_call_enumerate_support(s, rows)])
    if support[0] != "value":
        return
    for m, _ in support[1]:
        expected = bits(per_call_method_probability(s, rows, m))
        assert bits(method_probability(s, rows, m)) == expected
        assert bits(method_probability(s, table, m)) == expected

    positive = [m for m, p in enumerate_support(s, rows) if p > 0.0]
    for draw_seed in range(4):
        for avoid in (frozenset(), frozenset(positive[: draw_seed + 1]), frozenset(positive)):
            expected = outcome(per_call_sample_method, s, rows, draw_seed, avoid)
            assert outcome(sample_method, s, rows, draw_seed, avoid) == expected
            assert outcome(sample_method, s, table, draw_seed, avoid) == expected

    history = TrialHistory()
    for i, m in enumerate(positive[:3]):
        history.records.append(TrialRecord(method=m, observables={}, reward=float(10 * i % 7)))
    if not history.records:
        return
    last = history.records[-1].method
    for strategy, advisor_seed in itertools.product(loop.ADVISOR_STRATEGIES, range(3)):
        for avoid in (frozenset(), frozenset(positive[3:6])):
            expected = outcome(per_call_advisor_edit, history, last, s, rows, strategy, advisor_seed, avoid)
            assert outcome(advisor_edit, history, last, s, rows, strategy, advisor_seed, avoid) == expected
            assert outcome(advisor_edit, history, last, s, table, strategy, advisor_seed, avoid) == expected


def test_rows_edited_between_draws_are_honoured(morning_substrate):
    rows = uniform_rows(morning_substrate)
    picks = {sample_method(morning_substrate, rows, seed).picks["breakfast"] for seed in range(20)}
    assert picks == {"breakfast_no", "breakfast_yes"}

    table = compile_policy(morning_substrate, rows)
    rows.rows["breakfast"] = ProbabilityRow(options=("breakfast_no", "breakfast_yes"), mass=(0.0, 1.0))
    for seed in range(20):
        assert sample_method(morning_substrate, rows, seed).picks["breakfast"] == "breakfast_yes"
    # a table is a snapshot of the rows it was compiled from
    picks = {sample_method(morning_substrate, table, seed).picks["breakfast"] for seed in range(20)}
    assert picks == {"breakfast_no", "breakfast_yes"}


def test_a_table_answers_only_for_its_own_substrate(morning_substrate):
    other = random_substrate(3)
    with pytest.raises(ValueError, match="another substrate"):
        sample_method(other, compile_policy(morning_substrate, uniform_rows(morning_substrate)), 0)


def test_run_trial_compiles_one_table(monkeypatch):
    env = loop.make_synthetic_env(
        loop.SyntheticEnvSpec(problem_count=2, mutation_rate=0.3, noise_level=0.5), seed=4
    )
    repo = MemoryRepository(env.problem_substrate.tree_version, env.action_substrate.tree_version)
    built = []
    init = policy.CompiledPolicy.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(policy.CompiledPolicy, "__init__", counting_init)
    for index in range(2):
        built.clear()
        result = loop.run_trial(
            env.bind(index), env.action_substrate, repo, env.problems[index].fingerprint, budget=5, seed=index
        )
        assert len(result.history) == 5  # draws, advisor edits and probabilities all ran
        assert len(built) == 1


def test_method_path_nodes_is_the_union_of_root_paths(morning_substrate):
    for m, _ in enumerate_support(morning_substrate, uniform_rows(morning_substrate)):
        expected = set()
        for _, value in m.items:
            if value is not None:
                expected.update(morning_substrate.tree.path_from_root(value))
        assert policy.method_path_nodes(morning_substrate, m) == expected
    with pytest.raises(KeyError):
        policy.method_path_nodes(morning_substrate, MethodTuple.from_picks({"breakfast": "toast"}))
