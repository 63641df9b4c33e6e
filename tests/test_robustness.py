"""Deep graphs, malformed files and interrupted loops end in a result or in
one ``error:`` line, never in a traceback or a lost memory file."""

import json
import os
import subprocess
import sys

import pytest

from graft import MethodTuple, build_substrate, enumerate_support, graph_from_document, layout, sample_method, uniform_rows
from graft import io
from graft.build import substrate_content_hash
from graft.embedding import fingerprint
from graft.fixtures import morning_graph_document
from graft.graph import graph_to_document
from graft.loop import _flat_graph

DEPTH = 1200


def s_chain_document(depth: int) -> dict:
    """One chain whose s-decisions nest ``depth`` levels deep."""
    nodes, edges = ["root", "head"], [{"parent": "root", "child": "head", "type": "c"}]
    here = "head"
    for i in range(depth):
        nodes += [f"leaf{i}", f"s{i}"]
        edges += [
            {"parent": here, "child": f"leaf{i}", "type": "s"},
            {"parent": here, "child": f"s{i}", "type": "s"},
        ]
        here = f"s{i}"
    return {"root": "root", "nodes": nodes, "edges": edges}


def nesting_chain_document(depth: int) -> dict:
    """``depth`` chains, each nested under an option of the one above."""
    nodes, edges = ["root"], []
    here = "root"
    for i in range(depth):
        nodes += [f"c{i}", f"c{i}_a", f"c{i}_b"]
        edges += [
            {"parent": here, "child": f"c{i}", "type": "c"},
            {"parent": f"c{i}", "child": f"c{i}_a", "type": "s"},
            {"parent": f"c{i}", "child": f"c{i}_b", "type": "s"},
        ]
        here = f"c{i}_b"
    return {"root": "root", "nodes": nodes, "edges": edges}


def one_option_chain_document(depth: int) -> dict:
    """``depth`` chains of one option each, each nested under the option above."""
    nodes, edges = ["root"], []
    here = "root"
    for i in range(depth):
        nodes += [f"c{i}", f"c{i}_a"]
        edges += [
            {"parent": here, "child": f"c{i}", "type": "c"},
            {"parent": f"c{i}", "child": f"c{i}_a", "type": "s"},
        ]
        here = f"c{i}_a"
    return {"root": "root", "nodes": nodes, "edges": edges}


def run_cli(*argv, cwd):
    """``graft --quiet`` with relative paths resolved against ``cwd``."""
    env = dict(os.environ, GRAFT_WORKSPACE=str(cwd))
    return subprocess.run([sys.executable, "-m", "graft", "--quiet", *argv], capture_output=True, text=True, env=env)


def assert_one_error_line(out):
    """Exit 1 with exactly one ``error:`` line on stderr, so no traceback."""
    assert out.returncode == 1, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


@pytest.mark.parametrize("make_document", [s_chain_document, nesting_chain_document])
def test_deep_graphs_build_lay_out_sample_and_print(make_document, tmp_path):
    doc = make_document(DEPTH)
    s = build_substrate(graph_from_document(doc))
    assert max(s.tree.depth.values()) >= DEPTH
    assert max(layout(s.tree).depth.values()) >= DEPTH
    m = sample_method(s, uniform_rows(s), seed=0)
    assert set(m.picks) == set(s.chain_order)

    (tmp_path / "deep.json").write_text(json.dumps(doc))
    out = run_cli("build", "deep.json", "--out", "deep-substrate.json", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    out = run_cli("reduce", "deep.json", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert f"- {'s' if make_document is s_chain_document else 'c'}{DEPTH - 1}" in out.stdout


def test_enumeration_walks_deep_one_option_chains(tmp_path):
    # a support of one tuple passes the enumeration cap at any depth, so the
    # sampler's fallback enumerates all of it once the tuple is avoided
    s = build_substrate(graph_from_document(one_option_chain_document(DEPTH)))
    rows = uniform_rows(s)
    [(m, p)] = enumerate_support(s, rows)
    assert p == 1.0
    assert m == sample_method(s, rows, seed=0)

    io.save_substrate(s, tmp_path / "sub.json")
    io.save_rows(rows, tmp_path / "rows.json")
    (tmp_path / "avoid.json").write_text(json.dumps([m.picks]))
    out = run_cli("sample", "sub.json", "--rows", "rows.json", "--seed", "0", "--avoid", "avoid.json", cwd=tmp_path)
    assert_one_error_line(out)
    assert "avoid set covers the whole positive support" in out.stderr


def _substrate_without(field):
    def write(tmp_path):
        run_cli("build", "morning.json", "--out", "sub.json", cwd=tmp_path)
        payload = json.loads((tmp_path / "sub.json").read_text())
        del payload[field]
        (tmp_path / "sub.json").write_text(json.dumps(payload))
        return ["footprint", "sub.json"], f"missing field {field!r}"

    return write


def _file_holding(text, argv, needle):
    def write(tmp_path):
        (tmp_path / "bad.json").write_text(text)
        fp = {"format": "graft-fingerprint/1", "tree_tag": "t", "resolution": 4, "keep": "s", "cells": [[0, 0, 1]]}
        (tmp_path / "p.fp").write_text(json.dumps(fp))
        return argv, needle

    return write


def _workdir_holding(text, argv, needle):
    """``_file_holding`` next to an environment spec ``env.json``, its action
    substrate ``asub.json`` (the morning graph) and a method ``m.json`` on it."""

    def write(tmp_path):
        _loop_workdir(tmp_path, morning_graph_document())
        s = build_substrate(graph_from_document(morning_graph_document()))
        io.save_method(sample_method(s, uniform_rows(s), seed=0), tmp_path / "m.json")
        return _file_holding(text, argv, needle)(tmp_path)

    return write


def _memory_line(**fields):
    """One memory record matching ``p.fp``, with ``fields`` replaced."""
    record = {
        "problem_tree_version": "t", "action_tree_version": "a",
        "problem_fp": {"tree_tag": "t", "resolution": 4, "keep": "s", "cells": [[0, 0, 1]]},
        "method": {"x": "y"}, "method_path_nodes": ["x", "y"], "observables": {}, "reward": 1.0,
    }  # fmt: skip
    for key, value in fields.items():
        if key in record["problem_fp"]:
            record["problem_fp"][key] = value
        else:
            record[key] = value
    return json.dumps(record) + "\n"


def _graph_holding(needle, **fields):
    """A graph document with ``fields`` over a root ``r`` and its child ``a``, through ``graft validate``."""
    doc = {"root": "r", "nodes": ["r", "a"], "edges": [{"parent": "r", "child": "a", "type": "c"}], **fields}
    return _file_holding(json.dumps(doc), ["validate", "bad.json"], needle)


def _bytes_holding(raw, argv, needle):
    """``_file_holding`` with ``bad.json`` holding the bytes ``raw``."""

    def write(tmp_path):
        _file_holding("", argv, needle)(tmp_path)
        (tmp_path / "bad.json").write_bytes(raw)
        return argv, needle

    return write


def _avoid_holding(text, needle):
    """``_workdir_holding`` with uniform rows ``rows.json``, through ``graft sample --avoid bad.json``."""

    def write(tmp_path):
        argv = ["sample", "asub.json", "--rows", "rows.json", "--seed", "0", "--avoid", "bad.json"]
        _workdir_holding(text, argv, needle)(tmp_path)
        io.save_rows(uniform_rows(io.load_substrate(tmp_path / "asub.json")), tmp_path / "rows.json")
        return argv, needle

    return write


def _substrate_holding(needle, **fields):
    """A substrate file, its hash matching, whose graph is ``_graph_holding``'s, through ``graft footprint``."""
    doc = {"root": "r", "nodes": ["r", "a"], "edges": [{"parent": "r", "child": "a", "type": "c"}], **fields}
    payload = {"format": "graft-substrate/1", "graph": doc, "content_hash": substrate_content_hash(doc), "tree_version": "v"}
    return _file_holding(json.dumps(payload), ["footprint", "bad.json"], needle)


NEIGHBORS = ["neighbors", "bad.json", "--problem", "p.fp"]
LOOP = ["loop", "asub.json", "memory.jsonl", "--budget", "1", "--seed", "0", "--out", "report.jsonl"]
RECORD = ["record", "memory.jsonl", "--substrate", "asub.json", "--problem", "p.fp", "--method", "m.json"]


@pytest.mark.parametrize(
    "case",
    [
        _file_holding("[1, 2]", ["footprint", "bad.json"], "bad.json: expected a JSON object"),
        _file_holding('"text"', ["validate", "bad.json"], "bad.json: expected a JSON object"),
        _file_holding("3", ["similarity", "bad.json", "bad.json"], "bad.json: expected a JSON object"),
        _file_holding("[]", ["neighbors", "bad.json", "--problem", "bad.json"], "bad.json: expected a JSON object"),
        _file_holding("[[]]\n", ["neighbors", "bad.json", "--problem", "p.fp"], "bad.json:1: expected a JSON object"),
        _substrate_without("graph"),
        _substrate_without("content_hash"),
        _file_holding(
            '{"format": "graft-fingerprint/1"}', ["similarity", "bad.json", "p.fp"], "bad.json: missing field 'cells'"
        ),
        _file_holding(
            "{}\n", ["neighbors", "bad.json", "--problem", "p.fp"], "bad.json:1: missing field 'problem_tree_version'"
        ),
        _workdir_holding(
            '{"format": "graft-rows/1"}',
            ["sample", "asub.json", "--rows", "bad.json", "--seed", "0"],
            "bad.json: missing field 'rows'",
        ),
        _workdir_holding("[]", [*LOOP, "--env-spec", "bad.json"], "bad.json: expected a JSON object"),
        _workdir_holding(
            '{"problem_count": 3, "mutation_rate": 0.4, "noise_level": 1.0, "colour": "red"}',
            [*LOOP, "--env-spec", "bad.json"],
            "bad.json: unknown field 'colour'",
        ),
        _workdir_holding(
            '{"problem_count": 3}', [*LOOP, "--env-spec", "bad.json"], "bad.json: missing field 'mutation_rate'"
        ),
        _workdir_holding(
            "", [*LOOP, "--env-spec", "env.json", "--problems", "7"], "--problems 7 is not a problem index"
        ),
        _workdir_holding(
            "[1]", [*RECORD, "--observables", "bad.json", "--reward", "1"], "bad.json: expected a JSON object"
        ),
        _file_holding(_memory_line(reward="5"), NEIGHBORS, "bad.json:1: field 'reward' must be a number"),
        _file_holding(_memory_line(reward=True), NEIGHBORS, "bad.json:1: field 'reward' must be a number"),
        _file_holding(_memory_line(cells=[1]), NEIGHBORS, "bad.json:1: problem_fp: field 'cells' must be a list"),
        _file_holding(
            _memory_line(cells=[[[0], 1, 2]]), NEIGHBORS, "bad.json:1: problem_fp: field 'cells' must be a list"
        ),
        _file_holding(
            _memory_line(resolution="4"), NEIGHBORS, "bad.json:1: problem_fp: field 'resolution' must be a positive integer"
        ),
        _file_holding(
            _memory_line(resolution=0), NEIGHBORS, "bad.json:1: problem_fp: field 'resolution' must be a positive integer"
        ),
        _file_holding(
            _memory_line(method_path_nodes="abc"), NEIGHBORS, "bad.json:1: field 'method_path_nodes' must be a list"
        ),
        _file_holding(_memory_line(method={"x": 1}), NEIGHBORS, "bad.json:1: field 'method' must be an object"),
        _workdir_holding(
            '{"format": "graft-rows/1", "tree_version": "v", "rows": {"a": 3}}',
            ["sample", "asub.json", "--rows", "bad.json", "--seed", "0"],
            "bad.json: row 'a': expected a JSON object",
        ),
        _workdir_holding(
            '{"problem_count": "3", "mutation_rate": 0.4, "noise_level": 1.0}',
            [*LOOP, "--env-spec", "bad.json"],
            "bad.json: problem_count must be an integer",
        ),
        _workdir_holding(
            "", ["fingerprint", "asub.json", "--path", "breakfast_yes,helmet_yes", "--k", "0"],
            "resolution must be at least 1",
        ),
        _workdir_holding(
            "", ["fingerprint", "asub.json", "--path", "breakfast_yes,helmet_yes", "--k", "-3"],
            "resolution must be at least 1",
        ),
        _graph_holding("field 'nodes' must be a list", nodes=5),
        _graph_holding("field 'edges' must be a list", edges={}),
        _graph_holding("field 'rules' must be a list", rules="x"),
        _graph_holding("field 'canonical_parent' must be an object", canonical_parent=[]),
        _graph_holding("rule field 'trigger' must be a list", rules=[{"trigger": "r", "target": ["a"], "effect": "force"}]),
        _graph_holding("rule field 'target' must be a list", rules=[{"trigger": ["r"], "target": 5, "effect": "force"}]),
        _graph_holding("unknown NodeId ['r'] in rule", rules=[{"trigger": [["r"]], "target": ["a"], "effect": "force"}]),
        _graph_holding("unknown NodeId ['r'] in edge", edges=[{"parent": ["r"], "child": "a", "type": "c"}]),
        _graph_holding("unknown NodeId ['r'] in canonical_parent", canonical_parent={"a": ["r"]}),
        _graph_holding(
            "rule hint ['x'] must be text", rules=[{"hint": ["x"], "trigger": ["r"], "target": ["a"], "effect": "force"}]
        ),
        _workdir_holding(
            '{"wall": NaN}', [*RECORD, "--observables", "bad.json", "--reward", "1"],
            "bad.json: observable 'wall' must be finite, found nan",
        ),
        _workdir_holding(
            '{"wall": 1, "cost": -Infinity}', [*RECORD, "--observables", "bad.json", "--reward", "1"],
            "bad.json: observable 'cost' must be finite, found -inf",
        ),
        _file_holding(
            _memory_line(observables={"wall": float("inf")}), NEIGHBORS, "bad.json:1: observable 'wall' must be finite"
        ),
        _workdir_holding(
            '{"problem_count": 3, "mutation_rate": 0.4, "noise_level": NaN}',
            [*LOOP, "--env-spec", "bad.json"],
            "bad.json: noise_level must be finite, found nan",
        ),
        _workdir_holding(
            '{"problem_count": 3, "mutation_rate": 0.4, "noise_level": 1%s}' % ("0" * 400),
            [*LOOP, "--env-spec", "bad.json"],
            "bad.json: noise_level must be within the float range",
        ),
        _workdir_holding(
            '{"problem_count": 3, "mutation_rate": 0.4, "noise_level": 1.0, "convergence_reward": NaN}',
            [*LOOP, "--env-spec", "bad.json"],
            "bad.json: convergence_reward must be finite, found nan",
        ),
        _avoid_holding('{"picks": {}}', "bad.json: expected a JSON array of method records"),
        _avoid_holding('[{"picks": {"breakfast": 1}}]', "bad.json: bad method record {'picks': {'breakfast': 1}}"),
        _bytes_holding(
            b'{"root": "caf\xe9"}', ["validate", "bad.json"],
            "bad.json: not UTF-8 ('utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte)",
        ),
        _graph_holding("bad.json: field 'nodes' must be a list", nodes=5),
        _file_holding(
            json.dumps({"root": "r", "nodes": 5}), ["build", "bad.json", "--out", "s.json"],
            "bad.json: field 'nodes' must be a list",
        ),
        _substrate_holding("bad.json: field 'nodes' must be a list", nodes=5),
    ],
    ids=[
        "array", "string", "number", "empty-array", "memory-line-array", "no-graph", "no-content-hash",
        "fingerprint-no-cells", "memory-line-no-field", "rows-no-rows", "env-spec-array", "env-spec-unknown-key",
        "env-spec-no-mutation-rate", "problem-out-of-range", "observables-array", "memory-reward-string",
        "memory-reward-bool", "memory-cells-not-triples", "memory-cell-holding-a-list", "memory-resolution-string",
        "memory-resolution-zero", "memory-path-nodes-string", "memory-method-number", "rows-row-number",
        "env-spec-count-string", "fingerprint-k-zero", "fingerprint-k-negative", "graph-nodes-number",
        "graph-edges-object", "graph-rules-string", "graph-canonical-parent-array", "graph-rule-trigger-string",
        "graph-rule-target-number", "graph-rule-node-list", "graph-edge-end-list", "graph-canonical-parent-list",
        "graph-rule-hint-list", "record-observable-nan", "record-observable-infinity", "memory-observable-infinity",
        "env-spec-noise-nan", "env-spec-noise-huge-int", "env-spec-convergence-nan", "avoid-not-a-list",
        "avoid-bad-record", "json-not-utf-8", "graph-error-names-its-file", "build-error-names-its-file",
        "substrate-graph-error-names-its-file",
    ],
)
def test_malformed_files_end_in_one_error_line(case, tmp_path):
    (tmp_path / "morning.json").write_text(json.dumps(morning_graph_document()))
    argv, needle = case(tmp_path)
    out = run_cli(*argv, cwd=tmp_path)
    assert_one_error_line(out)
    assert needle in out.stderr


def _loop_workdir(tmp_path, action_doc):
    (tmp_path / "pg.json").write_text(json.dumps(graph_to_document(_flat_graph("p", 3, 2))))
    (tmp_path / "ag.json").write_text(json.dumps(action_doc))
    spec = {"problem_count": 3, "mutation_rate": 0.4, "noise_level": 1.0, "problem_graph": "pg.json", "action_graph": "ag.json"}
    (tmp_path / "env.json").write_text(json.dumps(spec))
    assert run_cli("build", "ag.json", "--out", "asub.json", cwd=tmp_path).returncode == 0


@pytest.mark.parametrize(
    "edit",
    [
        lambda picks: {"breakfast": picks["breakfast"]},
        lambda picks: {**picks, "breakfast": "transport_bike"},
        lambda picks: {**picks, "clothes": None},  # helmet and style keep values their gate no longer allows
    ],
    ids=["one-chain-only", "value-of-another-chain", "null-on-a-gated-chain"],
)
def test_record_refuses_a_method_outside_the_substrate(edit, tmp_path):
    _workdir_holding("{}", [], "")(tmp_path)  # asub.json, m.json and p.fp
    assert run_cli(*RECORD, "--reward", "1", cwd=tmp_path).returncode == 0
    before = (tmp_path / "memory.jsonl").read_bytes()
    picks = io.load_method(tmp_path / "m.json").picks
    io.save_method(MethodTuple.from_picks(edit(picks)), tmp_path / "m.json")
    out = run_cli(*RECORD, "--reward", "1", cwd=tmp_path)
    assert_one_error_line(out)
    assert (tmp_path / "memory.jsonl").read_bytes() == before


def test_record_refuses_a_value_on_a_chain_whose_gate_is_shut(tmp_path):
    # on the morning substrate every gate is the one value of the chain clothes,
    # so a tuple can shut one only by a null there, which record refuses first
    _file_holding("", [], "")(tmp_path)  # p.fp
    (tmp_path / "g.json").write_text(json.dumps(nesting_chain_document(2)))  # c1 nests under c0_b
    assert run_cli("build", "g.json", "--out", "asub.json", cwd=tmp_path).returncode == 0
    io.save_method(MethodTuple.from_picks({"c0": "c0_a", "c1": "c1_a"}), tmp_path / "m.json")
    out = run_cli(*RECORD, "--reward", "1", cwd=tmp_path)
    assert_one_error_line(out)
    assert "chain c1 carries 'c1_a' although its gate c0 = 'c0_b' is not met" in out.stderr
    assert not (tmp_path / "memory.jsonl").exists()


@pytest.mark.parametrize("locale", [{}, {"LC_ALL": "C", "PYTHONUTF8": "0"}], ids=["default", "c-locale"])
def test_a_non_ascii_graph_builds_the_same_bytes_under_any_locale(locale, tmp_path):
    doc = morning_graph_document()
    doc["nodes"][1]["hint"] = "café au lait"
    (tmp_path / "cafe.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, GRAFT_WORKSPACE=str(tmp_path), **locale)
    argv = [sys.executable, "-m", "graft", "--quiet", "build", "cafe.json", "--out", "sub.json"]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    expected = build_substrate(graph_from_document(doc))
    io.save_substrate(expected, tmp_path / "expected.json")
    assert (tmp_path / "sub.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
    assert io.load_substrate(tmp_path / "sub.json").graph.hints["breakfast"] == "café au lait"


def test_loop_keeps_every_attempt_it_reported_when_a_trial_fails(tmp_path):
    # the second rule conflicts with the first whenever both fire, so a
    # later draw hits empty support and the loop stops with an error
    doc = morning_graph_document()
    doc["rules"].append({"hint": "conflict", "trigger": ["breakfast_yes"], "target": ["helmet_no"], "effect": "force"})
    _loop_workdir(tmp_path, doc)
    out = run_cli(
        "loop", "asub.json", "memory.jsonl", "--env-spec", "env.json", "--seed", "2", "--budget", "6",
        "--out", "report.jsonl", cwd=tmp_path,
    )  # fmt: skip
    assert_one_error_line(out)
    report = (tmp_path / "report.jsonl").read_text().splitlines()
    memory = (tmp_path / "memory.jsonl").read_text().splitlines()
    assert len(report) >= 1
    assert len(memory) == len(report)
    for line, entry in zip(report, memory):
        assert json.loads(line)["method"] == json.loads(entry)["method"]



def test_substrate_file_with_derived_sections_still_loads(tmp_path):
    # files written before the derived sections were dropped carry them too
    s = build_substrate(graph_from_document(morning_graph_document()))
    io.save_substrate(s, tmp_path / "sub.json")
    payload = json.loads((tmp_path / "sub.json").read_text())
    payload["levels"] = dict(s.levels.level)
    payload["footprint"] = {"joint": s.joint_size, "factored": s.footprint}
    (tmp_path / "old.json").write_text(json.dumps(payload))
    assert io.load_substrate(tmp_path / "old.json").levels.level == s.levels.level


@pytest.mark.parametrize(
    "case",
    [
        _file_holding(_memory_line(reward=500.0), NEIGHBORS, "bad.json:1: reward 500.0 outside [0, 100.0]"),
        _file_holding(_memory_line(reward=-1), NEIGHBORS, "bad.json:1: reward -1 outside [0, 100.0]"),
        _file_holding(
            _memory_line(observables={"wall": {"a": 1}}),
            NEIGHBORS,
            "bad.json:1: observable 'wall' must be a number, found dict",
        ),
        _file_holding(
            _memory_line(observables={"wall": True}), NEIGHBORS, "bad.json:1: observable 'wall' must be a number, found bool"
        ),
        _workdir_holding(
            '{"wall": {"a": 1}}',
            [*RECORD, "--observables", "bad.json", "--reward", "1"],
            "bad.json: observable 'wall' must be a number, found dict",
        ),
        _workdir_holding(
            '{"wall": 1, "ok": false}',
            [*RECORD, "--observables", "bad.json", "--reward", "1"],
            "bad.json: observable 'ok' must be a number, found bool",
        ),
    ],
    ids=[
        "memory-reward-too-high", "memory-reward-negative", "memory-observable-object", "memory-observable-bool",
        "record-observable-object", "record-observable-bool",
    ],
)
def test_bad_rewards_and_observables_name_their_file(case, tmp_path):
    (tmp_path / "morning.json").write_text(json.dumps(morning_graph_document()))
    argv, needle = case(tmp_path)
    out = run_cli(*argv, cwd=tmp_path)
    assert_one_error_line(out)
    assert needle in out.stderr
    assert not (tmp_path / "memory.jsonl").exists()  # record wrote nothing


def test_an_observable_may_be_an_int_of_any_size_but_not_a_non_finite_float():
    from graft.memory import check_observables

    check_observables({"count": 10**400, "wall": 1.5})  # math.isfinite would overflow on the int
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="observable 'wall' must be finite"):
            check_observables({"count": 1, "wall": value})


@pytest.mark.parametrize("mass", ["[NaN, NaN]", "[-0.5, 1.5]", "[Infinity, 0.5]"], ids=["nan", "negative", "infinity"])
def test_a_row_mass_outside_the_unit_interval_names_its_file_and_row(mass, tmp_path):
    s = build_substrate(graph_from_document(morning_graph_document()))
    io.save_substrate(s, tmp_path / "s.json")
    io.save_rows(uniform_rows(s), tmp_path / "rows.json")
    payload = json.loads((tmp_path / "rows.json").read_text())
    payload["rows"]["breakfast"]["mass"] = "MASS"
    (tmp_path / "bad_rows.json").write_text(json.dumps(payload).replace('"MASS"', mass))  # json reads NaN and Infinity
    for argv in (["sample", "s.json", "--seed", "3"], ["prob", "s.json", "--method", "m.json"]):
        io.save_method(sample_method(s, uniform_rows(s), seed=0), tmp_path / "m.json")
        out = run_cli(*argv, "--rows", "bad_rows.json", cwd=tmp_path)
        assert_one_error_line(out)
        assert "bad_rows.json: row 'breakfast': probability mass outside [0, 1]" in out.stderr


ROW_EDITS = {
    "missing": (None, "bad_rows.json: row 'helmet' missing"),
    "foreign-option": (
        {"options": ["helmet_yes", "helmet_maybe"], "mass": [0.5, 0.5]},
        "bad_rows.json: row 'helmet': options ['helmet_yes', 'helmet_maybe'] are not the s-children ['helmet_no', 'helmet_yes']",
    ),
}


@pytest.mark.parametrize("edit", sorted(ROW_EDITS))
def test_a_row_that_does_not_fit_the_substrate_names_its_file_and_row(edit, tmp_path):
    s = build_substrate(graph_from_document(morning_graph_document()))
    io.save_substrate(s, tmp_path / "s.json")
    io.save_method(sample_method(s, uniform_rows(s), seed=0), tmp_path / "m.json")
    io.save_rows(uniform_rows(s), tmp_path / "rows.json")
    payload = json.loads((tmp_path / "rows.json").read_text())
    row, needle = ROW_EDITS[edit]
    if row is None:
        del payload["rows"]["helmet"]
    else:
        payload["rows"]["helmet"] = row
    (tmp_path / "bad_rows.json").write_text(json.dumps(payload))
    for argv in (["sample", "s.json", "--seed", "3"], ["prob", "s.json", "--method", "m.json"]):
        out = run_cli(*argv, "--rows", "bad_rows.json", cwd=tmp_path)
        assert_one_error_line(out)
        assert needle in out.stderr


def test_a_row_may_list_its_options_in_any_order():
    from graft.policy import ProbabilityRow

    s = build_substrate(graph_from_document(morning_graph_document()))
    ordered, reversed_ = uniform_rows(s), uniform_rows(s)
    ordered.rows["helmet"] = ProbabilityRow(("helmet_no", "helmet_yes"), (0.75, 0.25))
    reversed_.rows["helmet"] = ProbabilityRow(("helmet_yes", "helmet_no"), (0.25, 0.75))
    assert enumerate_support(s, reversed_) == enumerate_support(s, ordered) != enumerate_support(s, uniform_rows(s))


def test_save_memory_cut_short_leaves_the_old_file_whole(tmp_path, monkeypatch):
    from pathlib import Path

    from graft import make_synthetic_env, run_trial
    from graft.loop import SyntheticEnvSpec
    from graft.memory import MemoryRepository

    env = make_synthetic_env(SyntheticEnvSpec(problem_count=2, mutation_rate=0.3, noise_level=0.5), seed=2)
    repo = MemoryRepository(env.problem_substrate.tree_version, env.action_substrate.tree_version)
    run_trial(env.bind(0), env.action_substrate, repo, env.problems[0].fingerprint, budget=3, seed=0)
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    before = path.read_bytes()

    run_trial(env.bind(1), env.action_substrate, repo, env.problems[1].fingerprint, budget=3, seed=1)
    write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="no space left"):
        io.save_memory(repo, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert len(io.load_memory(path).entries) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.jsonl"]  # no temporary file left behind
    io.save_memory(repo, path)
    assert len(io.load_memory(path).entries) == 6


SAVERS = {
    "substrate": lambda s: (io.save_substrate, s),
    "rows": lambda s: (io.save_rows, uniform_rows(s)),
    "fingerprint": lambda s: (io.save_fingerprint, fingerprint(layout(s.tree), ["breakfast_yes"], 4)),
    "method": lambda s: (io.save_method, sample_method(s, uniform_rows(s), seed=0)),
    "embedding": lambda s: (io.save_embedding, layout(s.tree)),
}


@pytest.mark.parametrize("artifact", sorted(SAVERS))
def test_a_save_cut_short_leaves_the_old_file_whole(artifact, tmp_path, monkeypatch):
    from pathlib import Path

    save, value = SAVERS[artifact](build_substrate(graph_from_document(morning_graph_document())))
    path = tmp_path / f"{artifact}.json"
    save(value, path)
    before = path.read_bytes()
    write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="no space left"):
        save(value, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left behind


def test_a_write_into_a_missing_directory_names_the_target(tmp_path):
    _loop_workdir(tmp_path, morning_graph_document())
    assert run_cli(*LOOP, "--env-spec", "env.json", "--problems", "0", cwd=tmp_path).returncode == 0
    assert run_cli("build", "pg.json", "--out", "psub.json", cwd=tmp_path).returncode == 0
    landscape = ["landscape", "memory.jsonl", "--observable", "noise", "--problem-substrate", "psub.json",
                 "--action-substrate", "asub.json", "--out"]  # fmt: skip
    assert run_cli(*landscape, "land.tsv", cwd=tmp_path).returncode == 0  # the inputs are sound
    for argv, target in ((["build", "ag.json", "--out"], "sub.json"), (landscape, "land.tsv")):
        out = run_cli(*argv, f"nodir/{target}", cwd=tmp_path)
        assert_one_error_line(out)
        assert f"No such file or directory: '{tmp_path / 'nodir' / target}'" in out.stderr
        assert ".tmp" not in out.stderr
    assert not (tmp_path / "nodir").exists()


def _recorded_memory(tmp_path, records):
    """``memory.jsonl`` holding ``records`` entries made by ``graft record``."""
    _workdir_holding("{}", [], "")(tmp_path)  # asub.json, m.json and p.fp
    for _ in range(records):
        assert run_cli(*RECORD, "--reward", "1", cwd=tmp_path).returncode == 0
    return tmp_path / "memory.jsonl"


def test_record_refuses_a_last_record_without_a_line_end(tmp_path):
    path = _recorded_memory(tmp_path, 1)
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    before = path.read_bytes()
    assert run_cli("neighbors", "memory.jsonl", "--problem", "p.fp", cwd=tmp_path).returncode == 0  # it loads
    out = run_cli(*RECORD, "--reward", "1", cwd=tmp_path)
    assert_one_error_line(out)
    assert f"{path}: last record has no line end" in out.stderr
    assert path.read_bytes() == before


def test_loop_refuses_a_last_record_without_a_line_end(tmp_path):
    _loop_workdir(tmp_path, morning_graph_document())
    loop = [*LOOP, "--env-spec", "env.json", "--problems", "0"]
    assert run_cli(*loop, cwd=tmp_path).returncode == 0
    path = tmp_path / "memory.jsonl"
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    before = path.read_bytes()
    out = run_cli(*loop, cwd=tmp_path)
    assert_one_error_line(out)
    assert f"{path}: last record has no line end" in out.stderr
    assert path.read_bytes() == before


def test_append_memory_writes_to_an_empty_file_and_after_a_line_end(tmp_path):
    from graft.errors import GraftError

    path = _recorded_memory(tmp_path, 1)
    repo = io.load_memory(path)
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    io.append_memory(repo, repo.entries[0], empty)
    io.append_memory(repo, repo.entries[0], path)
    assert empty.read_bytes() * 2 == path.read_bytes()
    empty.write_bytes(empty.read_bytes() + b" ")
    with pytest.raises(GraftError, match="last record has no line end"):
        io.append_memory(repo, repo.entries[0], empty)


def test_a_torn_last_record_is_refused_by_record_and_every_loader(tmp_path):
    path = _recorded_memory(tmp_path, 2)
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + second[: len(second) // 2])
    before = path.read_bytes()
    calls = (
        [*RECORD, "--reward", "1"],
        ["neighbors", "memory.jsonl", "--problem", "p.fp"],
        ["prior", "memory.jsonl", "asub.json", "--problem", "p.fp", "--out", "rows.json"],
        ["landscape", "memory.jsonl", "--observable", "wall", "--problem-substrate", "asub.json",
         "--action-substrate", "asub.json", "--out", "land.tsv"],
    )  # fmt: skip
    for argv in calls:
        out = run_cli(*argv, cwd=tmp_path)
        assert_one_error_line(out)
        assert f"{path}:2: malformed JSON" in out.stderr
        assert path.read_bytes() == before


def test_a_torn_last_record_is_refused_by_loop(tmp_path):
    _loop_workdir(tmp_path, morning_graph_document())
    loop = [*LOOP, "--env-spec", "env.json", "--problems", "0"]
    assert run_cli(*loop, cwd=tmp_path).returncode == 0
    path = tmp_path / "memory.jsonl"
    path.write_bytes(path.read_bytes()[:-20])
    before = path.read_bytes()
    out = run_cli(*loop, cwd=tmp_path)
    assert_one_error_line(out)
    assert f"{path}:1: malformed JSON" in out.stderr
    assert path.read_bytes() == before


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_a_k_that_is_not_auto_or_an_integer_is_a_usage_error(value, tmp_path):
    _workdir_holding("", [], "")(tmp_path)
    out = run_cli("fingerprint", "asub.json", "--path", "breakfast_yes,helmet_yes", "--k", value, cwd=tmp_path)
    assert out.returncode == 2, out.stderr
    assert "argument --k" in out.stderr and "Traceback" not in out.stderr



@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_problems_that_are_not_all_or_an_integer_are_a_usage_error(value, tmp_path):
    _workdir_holding("", [], "")(tmp_path)
    out = run_cli(*LOOP, "--env-spec", "env.json", "--problems", value, cwd=tmp_path)
    assert out.returncode == 2, out.stderr
    assert "argument --problems" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize(
    "option, value, wanted",
    [("--seed", "-1", "at least 0"), ("--seed", "abc", "at least 0"), ("--budget", "0", "at least 1")],
    ids=["seed-negative", "seed-word", "budget-zero"],
)
def test_a_negative_seed_or_a_budget_below_one_is_a_usage_error(option, value, wanted, tmp_path):
    _workdir_holding("", [], "")(tmp_path)  # env.json, asub.json and p.fp
    io.save_rows(uniform_rows(io.load_substrate(tmp_path / "asub.json")), tmp_path / "rows.json")
    calls = [[*LOOP, "--env-spec", "env.json", option, value]]  # the last --seed or --budget given is the one read
    if option == "--seed":
        calls.append(["sample", "asub.json", "--rows", "rows.json", "--seed", value])
    for argv in calls:
        out = run_cli(*argv, cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert f"argument {option}" in out.stderr and wanted in out.stderr and "Traceback" not in out.stderr
        assert out.stdout == ""
    assert not (tmp_path / "memory.jsonl").exists() and not (tmp_path / "report.jsonl").exists()


COUNTED = {
    "neighbors": (["neighbors", "memory.jsonl", "--problem", "p.fp", "-n"], "argument -n/--count"),
    "prior": (["prior", "memory.jsonl", "asub.json", "--problem", "p.fp", "--out", "rows.json", "--neighbors"],
              "argument --neighbors"),
}  # fmt: skip


@pytest.mark.parametrize("command", COUNTED)
def test_a_negative_neighbour_count_is_a_usage_error(command, tmp_path):
    from graft import PriorParams, compile_prior

    argv, option = COUNTED[command]
    path = _recorded_memory(tmp_path, 2)
    for value in ("-3", "-1", "abc"):
        out = run_cli(*argv, value, cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert option in out.stderr and "at least 0" in out.stderr and "Traceback" not in out.stderr
        assert out.stdout == "" and not (tmp_path / "rows.json").exists()
    out = run_cli(*argv, "0", cwd=tmp_path)  # a count of 0 asks for no neighbours
    assert out.returncode == 0, out.stderr
    if command == "neighbors":
        assert out.stdout == ""
    else:
        s = io.load_substrate(tmp_path / "asub.json")
        empty = compile_prior(io.load_memory(path), io.load_fingerprint(tmp_path / "p.fp"), s, PriorParams(0))
        assert io.load_rows(tmp_path / "rows.json").rows == empty.rows


@pytest.mark.parametrize("memory", ["empty", "blank-lines", "missing"])
def test_neighbors_on_an_empty_or_missing_memory_prints_nothing(memory, tmp_path):
    _file_holding("", [], "")(tmp_path)  # p.fp
    if memory != "missing":
        (tmp_path / "memory.jsonl").write_text("" if memory == "empty" else "\n \n")
    out = run_cli("neighbors", "memory.jsonl", "--problem", "p.fp", cwd=tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")


@pytest.mark.parametrize("stale", [False, True])
def test_neighbors_refuses_a_memory_of_another_problem_tree(stale, tmp_path):
    _file_holding("", [], "")(tmp_path)  # p.fp, of tree "t"
    (tmp_path / "memory.jsonl").write_text(_memory_line(problem_tree_version="u", tree_tag="u", stale=stale))
    out = run_cli("neighbors", "memory.jsonl", "--problem", "p.fp", cwd=tmp_path)
    assert_one_error_line(out)
    assert "does not match" in out.stderr and out.stdout == ""
