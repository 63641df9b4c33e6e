"""Self-check of the benchmark at tiny sizes; takes well under a minute.

    python3 graftbench/selfcheck.py

Runs every workload untraced and traced at the tiny scale and requires a
correct result with no failed operation and exactly the metric names that
BENCHMARK.json declares.  Then it shows that the output checks catch wrong
outputs, and that the benchmark refuses to run without the program's
sources.  The file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_workload(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr[-2000:]}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_results(spec: dict) -> None:
    import run

    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}, run.WORKLOADS
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_workload(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload} trace {trace}: outputs failed their checks"
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            names = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == names, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(names))} differ"
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
            print(f"ok  {workload:12s} trace {trace}: {result['attempted']} operations")


def check_checks() -> None:
    """Wrong outputs must be caught."""
    import graft
    import graft.memory
    import inputs
    import workloads

    def fresh_run() -> workloads.Run:
        return workloads.Run("selfcheck", 0, 0.0, "tiny", BENCH, BENCH, ROOT / "src", None)

    # rewards
    run = fresh_run()
    workloads._check_reward(run, {"target_similarity": 0.5, "noise": 1.0}, 49.0)
    assert not run.errors
    workloads._check_reward(run, {"target_similarity": 0.5, "noise": 1.0}, 50.0)
    assert run.errors

    # warm-start: ranking and blend against a perturbed program
    p_doc, a_doc = inputs.flat_document("p", 4, 3), inputs.flat_document("a", 4, 3)
    ps = graft.build_substrate(graft.graph_from_document(p_doc))
    as_ = graft.build_substrate(graft.graph_from_document(a_doc))
    pe = graft.layout(ps.tree)
    k = graft.min_injective_k(pe)
    rng = random.Random(2)
    p_truth, a_truth = inputs.flat_truth("p", 4, 3), inputs.flat_truth("a", 4, 3)
    repo = graft.MemoryRepository(ps.tree_version, as_.tree_version)
    for _ in range(40):
        pm = graft.MethodTuple.from_picks(inputs._random_picks(rng, p_truth))
        am = graft.MethodTuple.from_picks(inputs._random_picks(rng, a_truth))
        fp = graft.fingerprint(pe, graft.method_path_nodes(ps, pm), k)
        repo.entries.append(graft.MemoryEntry(fp, am, graft.method_path_nodes(as_, am), {}, rng.uniform(0, 100)))
    query = repo.entries[7].problem_fp
    run = fresh_run()
    workloads.check_prior(run, repo, query, as_, a_truth)
    assert not run.errors, run.errors

    original_rank, original_compile = graft.memory.rank_neighbors, graft.memory.compile_prior
    try:
        graft.memory.rank_neighbors = lambda r, p, n: list(reversed(original_rank(r, p, n)))
        run = fresh_run()
        workloads.check_prior(run, repo, query, as_, a_truth)
        assert any("rank_neighbors" in e for e in run.errors), run.errors
        graft.memory.rank_neighbors = original_rank

        def shifted(r, p, s):
            rows = original_compile(r, p, s)
            head = sorted(rows.rows)[0]
            row = rows.rows[head]
            mass = (row.mass[0] + 1e-9, row.mass[1] - 1e-9, *row.mass[2:])
            rows.rows[head] = graft.ProbabilityRow(options=row.options, mass=mass)
            return rows

        graft.memory.compile_prior = shifted
        run = fresh_run()
        workloads.check_prior(run, repo, query, as_, a_truth)
        assert any("blend gives" in e for e in run.errors), run.errors
    finally:
        graft.memory.rank_neighbors, graft.memory.compile_prior = original_rank, original_compile
    print("ok  output checks catch wrong rewards, rankings and prior rows")


def check_refuses_without_program(spec_path: Path) -> None:
    """In a directory with only BENCHMARK.json and the benchmark, it must fail."""
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("_*", "__pycache__"))
    spec = json.loads(spec_path.read_text())
    out = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"correct"' not in out.stdout, (out.returncode, out.stdout)
    print(f"ok  refuses to run without src/: exit {out.returncode}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_checks()
    check_refuses_without_program(spec_path)
    check_results(spec)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
