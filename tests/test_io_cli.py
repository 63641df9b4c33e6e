import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graft import (
    GraftError,
    MemoryEntry,
    MemoryRepository,
    MethodTuple,
    ProbabilityRow,
    build_substrate,
    fingerprint,
    layout,
    method_path_nodes,
    min_injective_k,
    record,
    uniform_rows,
)
from graft import io
from graft.cli import main
from graft.fixtures import morning_graph, morning_graph_document
from graft.graph import graph_from_document
from graft.memory import prior_from_neighbors


def run_cli(*argv, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "graft", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "morning.json").write_text(json.dumps(morning_graph_document()))
    return tmp_path


class TestRoundTrips:
    def test_substrate_round_trip(self, tmp_path):
        s = build_substrate(morning_graph())
        path = tmp_path / "sub.json"
        io.save_substrate(s, path)
        loaded = io.load_substrate(path)
        assert loaded.version == s.version
        assert loaded.tree_version == s.tree_version
        assert loaded.levels.level == s.levels.level
        assert loaded.chains.chains == s.chains.chains

    def test_substrate_drift_detected(self, tmp_path):
        s = build_substrate(morning_graph())
        path = tmp_path / "sub.json"
        io.save_substrate(s, path)
        payload = json.loads(path.read_text())
        payload["graph"]["root"] = "clothes"
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception, match="hash"):
            io.load_substrate(path)

    def test_rows_round_trip_bit_exact(self, tmp_path):
        s = build_substrate(morning_graph())
        rows = uniform_rows(s)
        path = tmp_path / "rows.json"
        io.save_rows(rows, path)
        loaded = io.load_rows(path)
        assert loaded.rows == rows.rows
        assert loaded.tree_version == rows.tree_version

    def test_fingerprint_round_trip(self, tmp_path):
        s = build_substrate(morning_graph())
        e = layout(s.tree)
        fp = fingerprint(e, s.tree.path_from_root("helmet_yes"), 32)
        path = tmp_path / "a.fp"
        io.save_fingerprint(fp, path)
        assert io.load_fingerprint(path) == fp

    def test_memory_round_trip_and_append(self, tmp_path):
        s = build_substrate(morning_graph())
        e = layout(s.tree)
        k = min_injective_k(e)
        fp = fingerprint(e, s.tree.path_from_root("helmet_yes"), k)
        repo = MemoryRepository(e.tree_version, s.tree_version)
        m = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_no",
                "clothes": "clothes",
                "style": "style_formal",
                "helmet": "helmet_no",
                "transport": "transport_car",
            }
        )
        entry = MemoryEntry(
            problem_fp=fp,
            method=m,
            method_path_nodes=method_path_nodes(s, m),
            observables={"wall_time": 1.5},
            reward=42.0,
        )
        record(repo, entry)
        path = tmp_path / "memory.jsonl"
        io.save_memory(repo, path)
        io.append_memory(repo, entry, path)
        loaded = io.load_memory(path)
        assert len(loaded) == 2
        assert loaded.entries[0].method == m
        assert loaded.entries[0].observables == {"wall_time": 1.5}
        assert loaded.problem_tree_version == e.tree_version

    def test_memory_load_shares_equal_fingerprints(self, tmp_path):
        s = build_substrate(morning_graph())
        e = layout(s.tree)
        k = min_injective_k(e)
        repo = MemoryRepository(e.tree_version, s.tree_version)
        m = MethodTuple.from_picks(
            {"breakfast": "breakfast_no", "clothes": "clothes", "style": "style_formal", "helmet": "helmet_no",
             "transport": "transport_car"}
        )  # fmt: skip
        for leaf in ("helmet_yes", "helmet_yes", "style_casual", "helmet_yes"):
            fp = fingerprint(e, s.tree.path_from_root(leaf), k)  # a new object every time
            record(repo, MemoryEntry(fp, m, method_path_nodes(s, m), {}, 1.0))
        path = tmp_path / "memory.jsonl"
        io.save_memory(repo, path)
        loaded = [entry.problem_fp for entry in io.load_memory(path).entries]
        assert loaded[0] is loaded[1] is loaded[3]
        assert loaded[2] is not loaded[0] and loaded[2] != loaded[0]

    def test_memory_version_mixing_refused(self, tmp_path):
        path = tmp_path / "memory.jsonl"
        lines = []
        for tag in ("v1", "v2"):
            lines.append(
                json.dumps(
                    {
                        "problem_tree_version": tag,
                        "action_tree_version": "a",
                        "problem_fp": {"tree_tag": tag, "resolution": 4, "keep": "s", "cells": [[0, 0, 0]]},
                        "method": {"x": "y"},
                        "method_path_nodes": ["x"],
                        "observables": {},
                        "reward": 1.0,
                        "stale": False,
                    }
                )
            )
        path.write_text("\n".join(lines) + "\n")
        from graft import VersionMismatchError

        with pytest.raises(VersionMismatchError):
            io.load_memory(path)

    @pytest.mark.parametrize("collecting", [True, False])
    def test_memory_load_restores_the_collector_state(self, tmp_path, collecting):
        s = build_substrate(morning_graph())
        e = layout(s.tree)
        fp = fingerprint(e, s.tree.path_from_root("helmet_yes"), min_injective_k(e))
        m = MethodTuple.from_picks(
            {"breakfast": "breakfast_no", "clothes": "clothes", "style": "style_formal", "helmet": "helmet_no",
             "transport": "transport_car"}
        )  # fmt: skip
        repo = MemoryRepository(e.tree_version, s.tree_version)
        record(repo, MemoryEntry(fp, m, method_path_nodes(s, m), {}, 1.0))
        good = tmp_path / "memory.jsonl"
        io.save_memory(repo, good)
        line = good.read_text()
        bad_json, bad_reward = tmp_path / "bad-json.jsonl", tmp_path / "bad-reward.jsonl"
        bad_json.write_text(line + "{not json\n")
        bad_reward.write_text(line + line.replace('"reward":1.0', '"reward":500.0'))
        was = gc.isenabled()
        try:
            gc.enable() if collecting else gc.disable()
            assert len(io.load_memory(good)) == 1
            assert gc.isenabled() is collecting
            for path, message in ((bad_json, "malformed JSON"), (bad_reward, "reward 500.0")):
                with pytest.raises(GraftError, match=message):
                    io.load_memory(path)
                assert gc.isenabled() is collecting
        finally:
            gc.enable() if was else gc.disable()

    def test_embedding_round_trip(self, tmp_path):
        s = build_substrate(morning_graph())
        e = layout(s.tree)
        path = tmp_path / "embedding.json"
        io.save_embedding(e, path)
        loaded = io.load_embedding(path)
        assert loaded == e


class TestCli:
    def test_validate_clean_exit_zero(self, workdir):
        out = run_cli("validate", str(workdir / "morning.json"))
        assert out.returncode == 0

    def test_validate_violations_exit_one(self, workdir):
        doc = morning_graph_document()
        doc["edges"][5]["type"] = "c"
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(doc))
        out = run_cli("validate", str(bad))
        assert out.returncode == 1
        assert "mixed children" in out.stdout

    def test_unknown_subcommand_exit_two(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_subcommand_exit_two(self):
        assert run_cli().returncode == 2

    def test_sample_requires_seed(self, workdir):
        out = run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        assert out.returncode == 0
        out = run_cli(
            "sample", str(workdir / "s.json"), "--rows", str(workdir / "missing-rows.json")
        )
        assert out.returncode == 2

    def test_reduce_lists_tree_and_chains(self, workdir):
        out = run_cli("reduce", str(workdir / "morning.json"))
        assert out.returncode == 0
        assert "- morning [root]" in out.stdout
        assert "  - clothes [c]" in out.stdout
        assert "- helmet [level 1, encloses clothes]: helmet_no, helmet_yes" in out.stdout

    def test_footprint_output(self, workdir):
        run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        out = run_cli("footprint", str(workdir / "s.json"))
        assert out.stdout.strip() == "joint=16 factored=9"

    def test_similarity_identical_files_print_one(self, workdir):
        run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        out = run_cli(
            "fingerprint",
            str(workdir / "s.json"),
            "--path",
            "morning,transport,transport_bike",
            "--k",
            "auto",
            "--out",
            str(workdir / "a.fp"),
        )
        assert out.returncode == 0
        out = run_cli("similarity", str(workdir / "a.fp"), str(workdir / "a.fp"))
        assert out.stdout.strip() == "1.0"

    def test_prob_full_decimal(self, workdir):
        run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        s = io.load_substrate(workdir / "s.json")
        io.save_rows(uniform_rows(s), workdir / "rows.json")
        m = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_yes",
                "clothes": "clothes",
                "style": "style_casual",
                "helmet": "helmet_no",
                "transport": "transport_car",
            }
        )
        io.save_method(m, workdir / "m.json")
        out = run_cli(
            "prob", str(workdir / "s.json"), "--rows", str(workdir / "rows.json"), "--method", str(workdir / "m.json")
        )
        assert float(out.stdout.strip()) == 0.0625

    def test_workspace_env_var(self, workdir):
        import os

        env = dict(os.environ)
        env["GRAFT_WORKSPACE"] = str(workdir)
        out = run_cli("validate", "morning.json", env=env)
        assert out.returncode == 0

    def test_record_and_neighbors(self, workdir):
        run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        run_cli(
            "fingerprint",
            str(workdir / "s.json"),
            "--path",
            "morning,transport,transport_bike",
            "--out",
            str(workdir / "p.fp"),
        )
        s = io.load_substrate(workdir / "s.json")
        m = MethodTuple.from_picks(
            {
                "breakfast": "breakfast_yes",
                "clothes": "clothes",
                "style": "style_casual",
                "helmet": "helmet_yes",
                "transport": "transport_bike",
            }
        )
        io.save_method(m, workdir / "m.json")
        (workdir / "obs.json").write_text('{"wall_time": 2.0}')
        out = run_cli(
            "record",
            str(workdir / "memory.jsonl"),
            "--substrate",
            str(workdir / "s.json"),
            "--problem",
            str(workdir / "p.fp"),
            "--method",
            str(workdir / "m.json"),
            "--observables",
            str(workdir / "obs.json"),
            "--reward",
            "88.5",
        )
        assert out.returncode == 0, out.stderr
        out = run_cli("neighbors", str(workdir / "memory.jsonl"), "--problem", str(workdir / "p.fp"))
        assert out.returncode == 0
        sim, reward, picks = out.stdout.strip().split("\t")
        assert float(sim) == 1.0
        assert float(reward) == 88.5
        assert json.loads(picks)["transport"] == "transport_bike"

    def test_loop_and_landscape_pipeline(self, workdir):
        # graphs-mode synthetic environment over a generated pair of trees
        from graft.loop import _flat_graph
        from graft.graph import graph_to_document

        pg = graph_to_document(_flat_graph("p", 4, 2))
        ag = graph_to_document(_flat_graph("a", 4, 2))
        (workdir / "pg.json").write_text(json.dumps(pg))
        (workdir / "ag.json").write_text(json.dumps(ag))
        spec = {
            "problem_count": 2,
            "mutation_rate": 0.4,
            "noise_level": 1.0,
            "problem_graph": "pg.json",
            "action_graph": "ag.json",
        }
        (workdir / "env.json").write_text(json.dumps(spec))
        run_cli("build", str(workdir / "ag.json"), "--out", str(workdir / "asub.json"))
        run_cli("build", str(workdir / "pg.json"), "--out", str(workdir / "psub.json"))
        import os

        env = dict(os.environ)
        env["GRAFT_WORKSPACE"] = str(workdir)
        out = run_cli(
            "loop",
            "asub.json",
            "memory.jsonl",
            "--env",
            "synthetic",
            "--env-spec",
            "env.json",
            "--budget",
            "3",
            "--seed",
            "17",
            "--out",
            "report.jsonl",
            env=env,
        )
        assert out.returncode == 0, out.stderr
        report = [json.loads(line) for line in (workdir / "report.jsonl").read_text().splitlines()]
        assert len(report) == 6  # 2 problems x 3 iterations
        assert {r["problem"] for r in report} == {0, 1}
        memory = (workdir / "memory.jsonl").read_text().splitlines()
        assert len(memory) == 6
        out = run_cli(
            "landscape",
            "memory.jsonl",
            "--observable",
            "target_similarity",
            "--problem-substrate",
            "psub.json",
            "--action-substrate",
            "asub.json",
            "--out",
            "table.tsv",
            env=env,
        )
        assert out.returncode == 0, out.stderr
        table = (workdir / "table.tsv").read_text().splitlines()
        assert table[0] == "x_pca_problem\ty_pca_method\ttarget_similarity"
        assert len(table) == 7

    def test_loop_substrate_mismatch_refused(self, workdir):
        spec = {"problem_count": 2, "mutation_rate": 0.4, "noise_level": 1.0}
        (workdir / "env.json").write_text(json.dumps(spec))
        run_cli("build", str(workdir / "morning.json"), "--out", str(workdir / "s.json"))
        out = run_cli(
            "loop",
            str(workdir / "s.json"),
            str(workdir / "memory.jsonl"),
            "--env-spec",
            str(workdir / "env.json"),
            "--budget",
            "2",
            "--seed",
            "3",
            "--out",
            str(workdir / "r.jsonl"),
        )
        assert out.returncode == 1
        assert "does not match" in out.stderr


def test_a_certain_rule_is_baked_into_the_prior_rows(tmp_path):
    # breakfast heads a top chain, so a rule it triggers fires on every tuple,
    # and the prior itself forces transport_bike
    doc = morning_graph_document()
    doc["rules"].append(
        {"hint": "breakfast means the bike", "trigger": ["breakfast"], "target": ["transport_bike"], "effect": "force"}
    )
    s = build_substrate(graph_from_document(doc))
    assert [rule.certain for rule in s.rules] == [False, True]
    prior = prior_from_neighbors([], s)
    bike = ProbabilityRow(options=("transport_bike", "transport_car"), mass=(1.0, 0.0))
    assert prior.rows == {**uniform_rows(s).rows, "transport": bike}

    (tmp_path / "g.json").write_text(json.dumps(doc))
    (tmp_path / "memory.jsonl").touch()
    main(["--quiet", "build", str(tmp_path / "g.json"), "--out", str(tmp_path / "s.json")])
    fp = ["fingerprint", str(tmp_path / "s.json"), "--path", "breakfast,breakfast_yes", "--k", "auto"]
    main(["--quiet", *fp, "--out", str(tmp_path / "p.fp")])
    argv = ["prior", str(tmp_path / "memory.jsonl"), str(tmp_path / "s.json"), "--problem", str(tmp_path / "p.fp")]
    assert main(["--quiet", *argv, "--out", str(tmp_path / "rows.json")]) == 0
    io.save_rows(prior, tmp_path / "expected.json")
    assert (tmp_path / "rows.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
