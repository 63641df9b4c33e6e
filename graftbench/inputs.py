"""Seeded inputs for the benchmark workloads, generated afresh for every run.

The generators write graph documents and memory files, plus a ``truth.json``
that records what was generated (chains and options, stored cells, rewards,
picks) in the benchmark's own terms.  The output checks compare the
program's results against that record, never against a stored copy of an
earlier run.

Memory files are written with ``graft.io.save_memory`` of the program under
test, and nothing generated outlives its run, so a run never reads files that
another version of the program wrote.  Generation runs in a child process
(``python3 inputs.py <workload> <scale> <seed> <dir>``), which keeps its
allocations out of the measuring process's peak RSS and GC state.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

# ``min_ops``: a run measures whole rounds until it has completed at least
# this many operations; at full size, enough for ten samples beyond the p90.
SIZES = {
    "warm-start": {
        "full": dict(chains=12, options=3, problem_chains=12, problem_options=3,
                     entries=20000, trial=10, arrivals=32, budget=5, min_ops=100),
        "tiny": dict(chains=4, options=3, problem_chains=4, problem_options=3,
                     entries=300, trial=10, arrivals=4, budget=3, min_ops=5),
    },
    "cli-session": {
        "full": dict(chains=50, options=4, entries=2000, trial=10, budget=3, min_ops=100),
        "tiny": dict(chains=6, options=3, entries=60, trial=10, budget=2, min_ops=5),
    },
}

NOISE_LEVEL = 2.0
MUTATION_RATE = 0.3


def flat_document(prefix: str, chains: int, options: int) -> dict:
    """A root with ``chains`` c-children, each with ``options`` s-children."""
    nodes = [f"{prefix}_root"]
    edges = []
    for i in range(chains):
        head = f"{prefix}_c{i:03d}"
        nodes.append(head)
        edges.append({"parent": f"{prefix}_root", "child": head, "type": "c"})
        for k in range(options):
            nodes.append(f"{head}_o{k}")
            edges.append({"parent": head, "child": f"{head}_o{k}", "type": "s"})
    return {"root": f"{prefix}_root", "nodes": [{"id": n} for n in nodes], "edges": edges}


def flat_truth(prefix: str, chains: int, options: int) -> dict:
    return {
        "chains": {
            f"{prefix}_c{i:03d}": {"options": [f"{prefix}_c{i:03d}_o{k}" for k in range(options)]}
            for i in range(chains)
        },
    }


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _random_picks(rng: random.Random, truth: dict) -> dict:
    return {head: rng.choice(c["options"]) for head, c in truth["chains"].items()}


def picks_code(truth: dict, picks: dict) -> str:
    """A flat tree's picks as one digit per chain (option index), in chain order."""
    return "".join(str(c["options"].index(picks[head])) for head, c in truth["chains"].items())


def picks_from_code(truth: dict, code: str) -> dict:
    return {head: c["options"][int(d)] for (head, c), d in zip(truth["chains"].items(), code)}


def _write_memory(out: Path, rng: random.Random, problem_doc: dict, problem_truth: dict,
                  action_doc: dict, action_truth: dict, entries: int, trial: int) -> dict:
    """Write ``entries`` memory entries in trials of ``trial`` entries that
    share one problem fingerprint, through the program's own writer."""
    import graft
    from graft import io

    ps = graft.build_substrate(graft.graph_from_document(problem_doc))
    as_ = ps if action_doc is problem_doc else graft.build_substrate(graft.graph_from_document(action_doc))
    pe = graft.layout(ps.tree)
    pk = graft.min_injective_k(pe)
    repo = graft.MemoryRepository(ps.tree_version, as_.tree_version)
    problems, rows = [], []
    for _ in range(entries // trial):
        nodes = graft.method_path_nodes(ps, graft.MethodTuple.from_picks(_random_picks(rng, problem_truth)))
        fp = graft.fingerprint(pe, nodes, pk)
        problems.append(sorted(list(c) for c in fp.cells))
        for _ in range(trial):
            picks = _random_picks(rng, action_truth)
            m = graft.MethodTuple.from_picks(picks)
            reward = rng.uniform(0.0, 100.0)
            observables = {"target_similarity": rng.random(), "noise": NOISE_LEVEL * rng.random()}
            repo.entries.append(graft.MemoryEntry(fp, m, graft.method_path_nodes(as_, m), observables, reward))
            rows.append([len(problems) - 1, reward, picks_code(action_truth, picks)])
    io.save_memory(repo, out / "memory.jsonl")
    return {"problems": problems, "entries": rows, "resolution": pk}


def generate(workload: str, scale: str, seed: int, out: Path) -> None:
    sz = SIZES[workload][scale]
    rng = random.Random(f"{workload}|{scale}|{seed}")
    if workload == "warm-start":
        action_doc = flat_document("a", sz["chains"], sz["options"])
        problem_doc = flat_document("p", sz["problem_chains"], sz["problem_options"])
        _write_json(out / "action_graph.json", action_doc)
        _write_json(out / "problem_graph.json", problem_doc)
        action_truth = flat_truth("a", sz["chains"], sz["options"])
        stored = _write_memory(out, rng, problem_doc, flat_truth("p", sz["problem_chains"], sz["problem_options"]),
                               action_doc, action_truth, sz["entries"], sz["trial"])
        _write_json(out / "truth.json", {"action": action_truth, "stored": stored,
                                         "env_seed": rng.randrange(2**31)})
    elif workload == "cli-session":
        # one flat substrate serves as both the problem and the action tree
        doc = flat_document("a", sz["chains"], sz["options"])
        truth = flat_truth("a", sz["chains"], sz["options"])
        _write_json(out / "graph.json", doc)
        stored = _write_memory(out, rng, doc, truth, doc, truth, sz["entries"], sz["trial"])
        problem_picks = _random_picks(rng, truth)
        path = sorted(["a_root", *problem_picks.keys(), *problem_picks.values()])
        _write_json(out / "env.json", {
            "problem_count": 2, "mutation_rate": MUTATION_RATE, "noise_level": NOISE_LEVEL,
            "problem_graph": "graph.json", "action_graph": "graph.json",
        })
        _write_json(out / "truth.json", {
            "action": truth, "stored": stored, "path": path,
            "reward": round(rng.uniform(0.0, 100.0), 3),
            "sample_seed": rng.randrange(2**31), "loop_seed": rng.randrange(2**31),
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate_in_child(src_dir: Path, workload: str, scale: str, seed: int, out: Path) -> None:
    """Generate the inputs into ``out`` in a child process that imports the
    program from ``src_dir``."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), workload, scale, str(seed), str(out)],
                   env=env, check=True, timeout=120)


if __name__ == "__main__":
    generate(sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
