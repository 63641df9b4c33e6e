"""Golden-output lock: SHA-256 digests of seeded outputs.

Each group renders one family of outputs as text (reprs of floats, sorted
picks, file bytes) and its digest must equal the one recorded in
``tests/golden/digests.json``.  A change meant to leave every output as it
was must keep all of them.  After a deliberate output change, record new
digests with ``PYTHONPATH=src python tests/test_golden.py --write`` and say
in CHANGES.md which groups moved and why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from graft import (
    EdgeType,
    GraftError,
    MemoryRepository,
    PriorParams,
    SyntheticEnvSpec,
    TrialHistory,
    TrialRecord,
    advisor_edit,
    build_substrate,
    compile_prior,
    enumerate_support,
    graph_from_document,
    grow_tree,
    layout,
    make_synthetic_env,
    method_probability,
    remove_node,
    run_trial,
    sample_method,
    uniform_rows,
)
from graft import cli, io
from graft.fixtures import morning_graph_document
from graft.graph import graph_to_document
from graft.loop import _flat_graph

from oracles import random_rows, random_substrate_document

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

DOCUMENTS = {"morning": morning_graph_document()}
DOCUMENTS.update({f"random{i:02d}": random_substrate_document(i) for i in range(20)})


@functools.cache
def substrate(name: str):
    return build_substrate(graph_from_document(DOCUMENTS[name]))


def _rows_text(rows) -> str:
    return repr(sorted((n, r.options, r.mass) for n, r in rows.rows.items())) + rows.tree_version


def _both_rows(s):
    return (("uniform", uniform_rows(s)), ("random", random_rows(s, 1)))


# -- per-substrate groups --------------------------------------------------------


def levels_text(name: str) -> str:
    s = substrate(name)
    return repr(sorted(s.levels.level.items())) + repr(s.chain_order)


def sample_text(name: str) -> str:
    s = substrate(name)
    out = []
    for label, rows in _both_rows(s):
        for seed in range(50):
            out.append(f"{label} {seed} {sample_method(s, rows, seed).items!r}")
    return "\n".join(out)


def probability_text(name: str) -> str:
    s = substrate(name)
    out = []
    for label, rows in _both_rows(s):
        for m, p in enumerate_support(s, rows):
            out.append(f"{label} {m.items!r} {p!r} {method_probability(s, rows, m)!r}")
    return "\n".join(out)


def layout_text(name: str) -> str:
    e = layout(substrate(name).tree)
    return repr(
        (sorted(e.rect.items()), sorted(e.position.items()), sorted(e.depth.items()), e.max_depth)
    )


def advisor_text(name: str) -> str:
    s = substrate(name)
    rows = random_rows(s, 2)
    history = TrialHistory()
    for seed, reward in ((0, 10.0), (1, 50.0), (2, 30.0)):
        m = sample_method(s, rows, seed)
        history.records.append(TrialRecord(method=m, observables={}, reward=reward))
    out = []
    for strategy in ("worst-chain", "random-chain"):
        for seed in range(10):
            for avoid in (frozenset(), history.methods()):
                edited = advisor_edit(history, history.records[-1].method, s, rows, strategy, seed, avoid=avoid)
                out.append(f"{strategy} {seed} {len(avoid)} {edited.items if edited else None!r}")
    return "\n".join(out)


def substrate_file_text(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub.json"
        io.save_substrate(substrate(name), path)
        payload = json.loads(path.read_text())
    kept = {k: payload[k] for k in ("format", "graph", "content_hash", "tree_version")}
    return json.dumps(kept, sort_keys=True)


def edit_text(name: str) -> str:
    """grow_tree under every s-parent and c-parent kind, remove_node of a leaf."""
    s = substrate(name)
    rows = random_rows(s, 3)
    tree = s.tree
    used = {n for r in s.graph.rules for n in r.trigger | r.target}
    out = []
    s_parents = sorted(n for n in tree.nodes if tree.s_children(n))
    grown, grown_rows = grow_tree(s, rows, s_parents[0], "grown_s")
    out.append(grown.tree_version + _rows_text(grown_rows))
    c_parents = sorted(n for n in tree.nodes if tree.c_children(n))
    grown, grown_rows = grow_tree(s, rows, c_parents[-1], "grown_c", edge_kind=EdgeType.CHARACTERIZED_BY)
    out.append(grown.tree_version + _rows_text(grown_rows))
    leaves = sorted(
        n
        for n in tree.nodes
        if n != tree.root and not tree.children.get(n) and n not in used and len(tree.children[tree.parent[n]]) > 1
    )
    removed = 0
    for leaf in leaves:
        try:
            shrunk, shrunk_rows = remove_node(s, rows, leaf)
        except GraftError:  # e.g. a zero-out rule would cover what is left
            continue
        out.append(leaf + shrunk.tree_version + _rows_text(shrunk_rows))
        removed += 1
        if removed == 2:
            break
    return "\n".join(out)


PER_SUBSTRATE = {
    "levels": levels_text,
    "sample": sample_text,
    "probability": probability_text,
    "layout": layout_text,
    "advisor": advisor_text,
    "substrate-file": substrate_file_text,
    "edit": edit_text,
}


# -- trial loop and memory -------------------------------------------------------


ENV_SPECS = {
    "flat": SyntheticEnvSpec(problem_count=4, mutation_rate=0.4, noise_level=1.0),
    "morning": SyntheticEnvSpec(
        problem_count=3,
        mutation_rate=0.5,
        noise_level=0.5,
        problem_graph=graph_to_document(_flat_graph("p", 3, 2)),
        action_graph=morning_graph_document(),
    ),
}


@functools.cache
def trials(env_name: str):
    """Trials over every problem of a synthetic env, alternating strategies."""
    env = make_synthetic_env(ENV_SPECS[env_name], 5)
    sub = env.action_substrate
    repo = MemoryRepository(env.problem_substrate.tree_version, sub.tree_version)
    results = []
    for i, problem in enumerate(env.problems):
        strategy = ("worst-chain", "random-chain")[i % 2]
        results.append(run_trial(env.bind(i), sub, repo, problem.fingerprint, budget=5, seed=100 + i, strategy=strategy))
    return env, repo, results


def history_text(env_name: str) -> str:
    _, _, results = trials(env_name)
    out = []
    for result in results:
        for r in result.history.records:
            out.append(f"{r.method.items!r} {sorted(r.observables.items())!r} {r.reward!r}")
        out.append(f"best {result.best_reward!r} exhausted {result.exhausted}")
    return "\n".join(out)


def prior_text(env_name: str) -> str:
    env, repo, _ = trials(env_name)
    out = []
    for problem in env.problems:
        for params in (PriorParams(), PriorParams(n_neighbors=5)):
            out.append(_rows_text(compile_prior(repo, problem.fingerprint, env.action_substrate, params)))
    return "\n".join(out)


def memory_save_bytes(env_name: str) -> bytes:
    _, repo, _ = trials(env_name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl"
        io.save_memory(repo, path)
        return path.read_bytes()


def memory_round_trip_bytes(env_name: str) -> bytes:
    """load_memory then save_memory, and append_memory entry by entry."""
    original = memory_save_bytes(env_name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl"
        path.write_bytes(original)
        loaded = io.load_memory(path)
        again = Path(tmp) / "again.jsonl"
        io.save_memory(loaded, again)
        appended = Path(tmp) / "appended.jsonl"
        for entry in loaded.entries:
            io.append_memory(loaded, entry, appended)
        return again.read_bytes() + b"--\n" + appended.read_bytes()


def cli_loop_bytes(_: str) -> bytes:
    """The criterion-10 `graft loop` call, then a second loop on its memory."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pg.json").write_text(json.dumps(graph_to_document(_flat_graph("p", 4, 2))))
        (root / "ag.json").write_text(json.dumps(graph_to_document(_flat_graph("a", 4, 2))))
        spec = {
            "problem_count": 3,
            "mutation_rate": 0.4,
            "noise_level": 1.0,
            "problem_graph": str(root / "pg.json"),
            "action_graph": str(root / "ag.json"),
        }
        (root / "env.json").write_text(json.dumps(spec))
        out = b""
        assert cli.main(["--quiet", "build", str(root / "ag.json"), "--out", str(root / "asub.json")]) == 0
        for seed, problems in (("9", "all"), ("10", "1")):
            argv = [
                "--quiet", "loop", str(root / "asub.json"), str(root / "memory.jsonl"),
                "--env-spec", str(root / "env.json"), "--budget", "4", "--seed", seed,
                "--problems", problems, "--out", str(root / "report.jsonl"),
            ]  # fmt: skip
            assert cli.main(argv) == 0
            out += (root / "report.jsonl").read_bytes() + b"--\n" + (root / "memory.jsonl").read_bytes()
        return out


def groups() -> dict:
    out = {}
    for name in DOCUMENTS:
        for kind, fn in PER_SUBSTRATE.items():
            out[f"{name}/{kind}"] = functools.partial(fn, name)
    for env_name in ENV_SPECS:
        out[f"trial-{env_name}/history"] = functools.partial(history_text, env_name)
        out[f"trial-{env_name}/prior"] = functools.partial(prior_text, env_name)
        out[f"trial-{env_name}/memory-save"] = functools.partial(memory_save_bytes, env_name)
        out[f"trial-{env_name}/memory-round-trip"] = functools.partial(memory_round_trip_bytes, env_name)
    out["cli/loop"] = functools.partial(cli_loop_bytes, "")
    return out


GROUPS = groups()


def digest(name: str) -> str:
    value = GROUPS[name]()
    data = value if isinstance(value, bytes) else value.encode()
    return hashlib.sha256(data).hexdigest()


def recorded() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_golden_groups_match_the_record():
    assert sorted(GROUPS) == sorted(recorded())


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden(name):
    assert digest(name) == recorded()[name], f"output group {name} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({name: digest(name) for name in sorted(GROUPS)}, indent=2) + "\n")
    print(f"{len(GROUPS)} digests written to {DIGESTS}")
