import itertools
import math

import numpy as np
import pytest

from graft import (
    EnumerationCapError,
    MethodTuple,
    ProbabilityRow,
    RuleSupportError,
    SupportExhaustedError,
    build_substrate,
    chain_kernel,
    chain_prior,
    edited_chain_distribution,
    enumerate_support,
    method_probability,
    op_force,
    op_zero,
    sample_method,
    uniform_rows,
)
from graft.graph import graph_from_document
from graft.fixtures import morning_graph_document

from oracles import oracle_joint, random_rows, random_substrate


ROW = ProbabilityRow(options=("a", "b", "c"), mass=(0.5, 0.3, 0.2))


class TestOperators:
    def test_zero_third_option(self):
        out = op_zero(ROW, {"c"})
        assert out.mass == (0.5 / 0.8, 0.3 / 0.8, 0.0)

    def test_zero_empty_target_is_identity(self):
        assert op_zero(ROW, set()) is ROW

    def test_zero_full_alphabet_errors(self):
        with pytest.raises(RuleSupportError) as err:
            op_zero(ROW, {"a", "b", "c"})
        assert err.value.offender is not None

    def test_force_single(self):
        assert op_force(ROW, {"a"}).mass == (1.0, 0.0, 0.0)

    def test_force_two(self):
        assert op_force(ROW, {"a", "b"}).mass == (0.5 / 0.8, 0.3 / 0.8, 0.0)

    def test_force_full_alphabet_is_identity(self):
        assert op_force(ROW, {"a", "b", "c"}) is ROW

    def test_force_zero_premass_errors(self):
        with pytest.raises(RuleSupportError):
            op_force(ROW, {"missing"})

    def test_duality_is_exact(self):
        rng = np.random.default_rng(11)
        options = tuple("abcdef")
        for _ in range(200):
            raw = rng.uniform(0.05, 1.0, size=6)
            row = ProbabilityRow(options=options, mass=tuple(raw / raw.sum()))
            k = int(rng.integers(1, 6))
            target = frozenset(options[int(i)] for i in rng.choice(6, size=k, replace=False))
            forced = op_force(row, target)
            zeroed = op_zero(row, frozenset(options) - target)
            assert forced.mass == zeroed.mass  # bitwise

    def test_survivor_ratio_preservation(self):
        out = op_zero(ROW, {"c"})
        assert abs(out.mass[0] / out.mass[1] - ROW.mass[0] / ROW.mass[1]) < 1e-12

    def test_same_row_commutation(self):
        a = op_zero(op_force(ROW, {"a", "b"}), {"b"})
        b = op_force(op_zero(ROW, {"b"}), {"a", "b"})
        assert all(abs(x - y) < 1e-12 for x, y in zip(a.mass, b.mass))


class TestChainDistributions:
    def test_uniform_rows_cover_internal_nodes(self, morning_substrate, morning_rows):
        assert sorted(morning_rows.rows) == ["breakfast", "helmet", "style", "transport"]

    def test_chain_prior_path_product(self):
        # two-level chain: root picks a or b; b subdivides into b1/b2
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "X", "a", "b", "b1", "b2"]],
            "edges": [
                {"parent": "r", "child": "X", "type": "c"},
                {"parent": "X", "child": "a", "type": "s"},
                {"parent": "X", "child": "b", "type": "s"},
                {"parent": "b", "child": "b1", "type": "s"},
                {"parent": "b", "child": "b2", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        dist = chain_prior(s, uniform_rows(s), "X")
        assert dist.as_mapping() == {"a": 0.5, "b1": 0.25, "b2": 0.25}

    def test_bike_forces_helmet(self, morning_substrate, morning_rows):
        resolved = {"breakfast": "breakfast_yes", "clothes": "clothes", "transport": "transport_bike"}
        dist = edited_chain_distribution(morning_substrate, morning_rows, "helmet", resolved)
        assert dist.as_mapping() == {"helmet_no": 0.0, "helmet_yes": 1.0}

    def test_car_leaves_helmet_unedited(self, morning_substrate, morning_rows):
        resolved = {"breakfast": "breakfast_yes", "clothes": "clothes", "transport": "transport_car"}
        dist = edited_chain_distribution(morning_substrate, morning_rows, "helmet", resolved)
        assert dist.as_mapping() == {"helmet_no": 0.5, "helmet_yes": 0.5}

    def test_two_fired_zero_outs_commute(self):
        doc = {
            "root": "r",
            "nodes": [{"id": "r"}],
            "edges": [],
            "rules": [],
        }
        for name, opts in [("T1", 2), ("T2", 2), ("X", 4)]:
            doc["nodes"].append({"id": name})
            doc["edges"].append({"parent": "r", "child": name, "type": "c"})
            for i in range(opts):
                doc["nodes"].append({"id": f"{name}_{i}"})
                doc["edges"].append({"parent": name, "child": f"{name}_{i}", "type": "s"})
        doc["rules"] = [
            {"hint": "r1", "trigger": ["T1_0"], "target": ["X_0"], "effect": "zero_out"},
            {"hint": "r2", "trigger": ["T2_0"], "target": ["X_1"], "effect": "zero_out"},
        ]
        s = build_substrate(graph_from_document(doc))
        rows = uniform_rows(s)
        resolved = {"T1": "T1_0", "T2": "T2_0"}
        dist = edited_chain_distribution(s, rows, "X", resolved)
        # both orders by direct operator arithmetic
        base = chain_prior(s, rows, "X")
        ab = op_zero(op_zero(base, {"X_0"}), {"X_1"})
        ba = op_zero(op_zero(base, {"X_1"}), {"X_0"})
        assert all(abs(x - y) < 1e-12 for x, y in zip(ab.mass, ba.mass))
        assert all(abs(x - y) < 1e-12 for x, y in zip(dist.mass, ab.mass))

    def test_unresolved_lower_level_rejected(self, morning_substrate, morning_rows):
        with pytest.raises(ValueError, match="unresolved"):
            edited_chain_distribution(morning_substrate, morning_rows, "helmet", {})

    def test_only_dependency_parents_need_resolving(self, morning_substrate, morning_rows):
        # style's one parent is clothes; breakfast and transport share its lower level
        dist = edited_chain_distribution(morning_substrate, morning_rows, "style", {"clothes": "clothes"})
        assert dist == chain_prior(morning_substrate, morning_rows, "style")
        with pytest.raises(ValueError, match=r"^chain transport \(level 0\) unresolved below helmet$"):
            edited_chain_distribution(morning_substrate, morning_rows, "helmet", {"clothes": "clothes"})


class TestKernels:
    def test_top_level_chain_always_active(self, morning_substrate, morning_rows):
        kernel = chain_kernel(morning_substrate, morning_rows, "breakfast", {})
        assert kernel[None] == 0.0
        assert abs(sum(kernel.values()) - 1.0) < 1e-12

    def test_nested_chain_point_mass_when_closed(self):
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "A", "a_on", "a_off", "B", "b1", "b2"]],
            "edges": [
                {"parent": "r", "child": "A", "type": "c"},
                {"parent": "A", "child": "a_on", "type": "s"},
                {"parent": "A", "child": "a_off", "type": "s"},
                {"parent": "a_on", "child": "B", "type": "c"},
                {"parent": "B", "child": "b1", "type": "s"},
                {"parent": "B", "child": "b2", "type": "s"},
            ],
        }
        s = build_substrate(graph_from_document(doc))
        rows = uniform_rows(s)
        closed = chain_kernel(s, rows, "B", {"A": "a_off"})
        assert closed == {"b1": 0.0, "b2": 0.0, None: 1.0}
        open_ = chain_kernel(s, rows, "B", {"A": "a_on"})
        assert open_ == {"b1": 0.5, "b2": 0.5, None: 0.0}


class TestMethodProbability:
    def test_morning_uniform_sixteenth(self, morning_substrate, morning_rows):
        m = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_yes",
                "clothes": "clothes",
                "style": "style_casual",
                "helmet": "helmet_no",
                "transport": "transport_car",
            }
        )
        assert method_probability(morning_substrate, morning_rows, m) == pytest.approx(1 / 16, abs=1e-15)

    def test_rule_violating_tuple_has_zero_mass(self, morning_substrate, morning_rows):
        m = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_yes",
                "clothes": "clothes",
                "style": "style_casual",
                "helmet": "helmet_no",
                "transport": "transport_bike",
            }
        )
        assert method_probability(morning_substrate, morning_rows, m) == 0.0

    def test_gate_inconsistent_tuple_has_zero_mass(self, morning_substrate, morning_rows):
        # helmet and style are gated on clothes, which carries null here
        m = MethodTuple.from_picks(
            {"breakfast": "breakfast_yes", "clothes": None, "style": "style_casual", "helmet": "helmet_yes",
             "transport": "transport_car"}
        )  # fmt: skip
        assert method_probability(morning_substrate, morning_rows, m) == 0.0

    def test_single_chain_uniform_thirds(self):
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "pick", "l1", "l2", "l3"]],
            "edges": [{"parent": "r", "child": "pick", "type": "c"}]
            + [{"parent": "pick", "child": f"l{i}", "type": "s"} for i in (1, 2, 3)],
        }
        s = build_substrate(graph_from_document(doc))
        rows = uniform_rows(s)
        for leaf in ("l1", "l2", "l3"):
            m = MethodTuple.from_picks({"pick": leaf})
            assert method_probability(s, rows, m) == pytest.approx(1 / 3, abs=1e-15)

    def test_malformed_tuple_raises(self, morning_substrate, morning_rows):
        with pytest.raises(ValueError, match="malformed"):
            method_probability(morning_substrate, morning_rows, MethodTuple.from_picks({"breakfast": "breakfast_yes"}))
        with pytest.raises(ValueError, match="domain"):
            method_probability(
                morning_substrate,
                morning_rows,
                MethodTuple.from_picks(
                    {
                        "breakfast": "style_casual",
                        "clothes": "clothes",
                        "style": "style_casual",
                        "helmet": "helmet_no",
                        "transport": "transport_car",
                    }
                ),
            )


class TestEnumeration:
    def test_morning_sixteen_entries(self, morning_substrate, morning_rows):
        support = enumerate_support(morning_substrate, morning_rows)
        assert len(support) == 16
        assert abs(sum(p for _, p in support) - 1.0) < 1e-12
        masked = [
            (m, p)
            for m, p in support
            if m.picks["transport"] == "transport_bike" and m.picks["helmet"] == "helmet_no"
        ]
        assert len(masked) == 4
        assert all(p == 0.0 for _, p in masked)

    def test_single_binary_chain(self):
        doc = {
            "root": "r",
            "nodes": [{"id": n} for n in ["r", "pick", "l1", "l2"]],
            "edges": [{"parent": "r", "child": "pick", "type": "c"}]
            + [{"parent": "pick", "child": f"l{i}", "type": "s"} for i in (1, 2)],
        }
        s = build_substrate(graph_from_document(doc))
        support = enumerate_support(s, uniform_rows(s))
        assert sorted((m.picks["pick"], p) for m, p in support) == [("l1", 0.5), ("l2", 0.5)]

    def test_cap_enforced(self, morning_substrate, morning_rows):
        with pytest.raises(EnumerationCapError):
            enumerate_support(morning_substrate, morning_rows, cap=8)

    def test_probabilities_sum_to_one_with_rules(self):
        for seed in (0, 1, 2, 3, 4):
            s = random_substrate(seed)
            rows = random_rows(s, seed + 1000)
            support = enumerate_support(s, rows)
            assert abs(sum(p for _, p in support) - 1.0) < 1e-12


class TestOracleEquality:
    def test_joint_matches_oracle_on_random_instances(self):
        for seed in range(25):
            s = random_substrate(seed)
            rows = random_rows(s, seed + 500)
            oracle = oracle_joint(s, rows)
            support = dict(enumerate_support(s, rows))
            assert set(oracle) == set(support)
            for m, p in oracle.items():
                assert abs(support[m] - p) < 1e-12
                assert abs(method_probability(s, rows, m) - p) < 1e-12


class TestSampling:
    def test_seed_determinism(self, morning_substrate, morning_rows):
        a = sample_method(morning_substrate, morning_rows, 123)
        b = sample_method(morning_substrate, morning_rows, 123)
        assert a == b
        c = sample_method(morning_substrate, morning_rows, 124)
        assert isinstance(c, MethodTuple)

    def test_avoid_all_but_one(self, morning_substrate, morning_rows):
        support = [m for m, p in enumerate_support(morning_substrate, morning_rows) if p > 0.0]
        target = support[7]
        avoid = frozenset(m for m in support if m != target)
        assert sample_method(morning_substrate, morning_rows, 5, avoid=avoid) == target

    def test_support_exhausted(self, morning_substrate, morning_rows):
        avoid = frozenset(m for m, p in enumerate_support(morning_substrate, morning_rows) if p > 0.0)
        with pytest.raises(SupportExhaustedError):
            sample_method(morning_substrate, morning_rows, 5, avoid=avoid)

    def test_empirical_frequencies_match_oracle(self, morning_substrate, morning_rows):
        # smaller-N version of the acceptance check, kept here as a fast guard
        n = 20000
        oracle = {m: p for m, p in oracle_joint(morning_substrate, morning_rows).items()}
        counts = {m: 0 for m in oracle}
        for i in range(n):
            counts[sample_method(morning_substrate, morning_rows, 9_000_000 + i)] += 1
        for m, p in oracle.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[m] / n - p) <= max(3 * sigma, 1e-12)


class TestKernelNormalization:
    def test_every_kernel_sums_to_one(self):
        for seed in range(10):
            s = random_substrate(seed)
            rows = random_rows(s, seed + 750)
            for m, p in enumerate_support(s, rows):
                picks = m.picks
                for cid in s.chain_order:
                    kernel = chain_kernel(s, rows, cid, picks)
                    assert abs(sum(kernel.values()) - 1.0) < 1e-12


class TestParentLocality:
    def test_kernels_read_only_parent_chains(self):
        for seed in range(12):
            s = random_substrate(seed)
            rows = random_rows(s, seed + 250)
            for cid in s.chain_order:
                lower = [c for c in s.chain_order if s.levels[c] < s.levels[cid]]
                if not lower:
                    continue
                parents = s.dep.parents(cid)
                domains = []
                for c in lower:
                    values = list(s.chain_value_domain(c)) + [None]
                    domains.append(values)
                groups = {}
                for combo in itertools.product(*domains):
                    ctx = dict(zip(lower, combo))
                    key = tuple(ctx[c] for c in lower if c in parents)
                    kernel = tuple(sorted(
                        chain_kernel(s, rows, cid, ctx).items(),
                        key=lambda kv: (kv[0] is None, kv[0]),
                    ))
                    if key in groups:
                        assert groups[key] == kernel
                    else:
                        groups[key] = kernel
