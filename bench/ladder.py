"""Scale ladder for graft's substrate, policy and memory layers.

    python3 bench/ladder.py --out BENCH.json                     # this checkout
    python3 bench/ladder.py --before ../parent --out BENCH.json  # and a second checkout, in alternating rounds
    python3 bench/ladder.py --smoke                              # small rungs, one round, well under 10 s

A substrate rung is C flat chains of 4 options each (C = 50, 200 and 1000),
or the morning fixture.  On each one the ladder times ``build_substrate``
(from a parsed graph), ``layout``, ``sample_method`` and
``method_probability``, the last two with uniform rows passed as plain
``PolicyRows``.  On the flat rungs it also times ``python -m graft --quiet
sample`` with uniform rows as a child process, start-up included
(``cli_sample``).  On the morning rung it times ``draw``: one seed word from
``loop._iteration_seed`` (five iterations per base seed, as in a trial of
budget 5), one stream seeded with it, and one ``random()``.  A memory rung ``memN`` holds N entries (N = 10^3, 10^4 and
10^5) in warm-start-style blocks: ten entries share one problem fingerprint,
drawn from a pool of 64 problems on a 12-chain tree, so that a query that
re-arrives ties with every entry of its problem; the entries' methods are
drawn from a pool of 65.  On each one the ladder times ``rank_neighbors``
for n = 3 with such a query, ``compile_prior`` for that query, and
``io.load_memory`` of the rung written with ``io.save_memory``, and it
traces one load with ``tracemalloc``: the bytes per entry the loaded
repository keeps, and the load's peak traced bytes.  Two variants time only
the ranking: ``mem10000-stale`` is the 10^4 rung with the query's top-ranked
tenth flagged stale, and ``mem10000-distinct`` gives every entry a problem
fingerprint of its own (a distinct pick on each of the 12 chains), with the
first entry's as the query, and ``mem10000-sizes`` draws its problems from
a pool of 1,000 random sets of 1 to 60 of the 60 options of a 20-chain tree,
so that they hold many cell counts, against a query of 30 options.  The
smoke run takes the variants at 10^3 entries.  On ``mem1000`` and
``mem10000`` the ladder also times ``python -m graft --quiet neighbors``,
``prior`` and ``record`` as child processes, start-up included, each twice:
cold, with the memory file's ``.checked`` sidecar deleted before each call
(``cli_neighbors_cold``, ``cli_prior_cold``, ``cli_record_cold``), and warm,
with the sidecar the calls before left (``cli_neighbors``, ``cli_prior``,
``cli_record``).  Each ``record`` call appends one entry, and they run after
the other two.  After them, one more ``neighbors`` call brings the sidecar up
to date, and the ladder reports its size as a share of the memory file's
(``sidecar_share``; 0 for a checkout that writes none).

Each round runs in a fresh child process that imports graft from the
checkout's ``src/``, makes one warm-up call of every operation, then times
its repeats and keeps their median.  Rounds alternate between the
checkouts and rotate the order of the rungs, so slow drift of the machine
falls on both sides alike.  The report gives, per checkout, operation and
rung, the median and the quartiles over rounds, and the log-log slope of the
median between successive rungs of one kind: a slope of 1 is linear growth.
Without ``--out`` the report is only printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAT = (50, 200, 1000)
MEMORY = (1000, 10_000, 100_000)
VARIANTS = ("-stale", "-distinct", "-sizes")  # ranking-only rungs
OPERATIONS = (
    "build_substrate", "layout", "sample_method", "method_probability", "draw", "rank_neighbors", "compile_prior",
    "load_memory", "cli_sample", "cli_neighbors_cold", "cli_neighbors", "cli_prior_cold", "cli_prior",
    "cli_record_cold", "cli_record",
)
CLI = {"mem1000": 5, "mem10000": 3, "50": 5, "200": 5, "1000": 3}  # timed child processes per round, on these rungs
MEMORY_CALLS = {
    "cli_neighbors": ["neighbors", "memory.jsonl", "--problem", "p.fp"],
    "cli_prior": ["prior", "memory.jsonl", "sub.json", "--problem", "p.fp", "--out", "rows.json"],
    "cli_record": ["record", "memory.jsonl", "--substrate", "sub.json", "--problem", "p.fp", "--method", "m.json",
                   "--reward", "50.0"],
}  # run in this order, each cold then warm, so the record calls come last
SAMPLE_CALLS = {"cli_sample": ["sample", "sub.json", "--rows", "rows.json", "--seed", "0"]}
TRACED = ("retained_bytes_per_entry", "load_peak_traced_bytes")  # one traced load per memory rung
# timed repeats per round: about 2,000 chain-draws' worth, at least 5, on a substrate rung
REPEATS = {"morning": 400, "50": 40, "200": 10, "1000": 5}
REPEATS.update({f"mem{n}{v}": reps for n, reps in zip(MEMORY, (400, 100, 20)) for v in ("", *VARIANTS)})
LOADS = {"mem1000": 20, "mem10000": 5, "mem100000": 3}  # timed loads per round, at least 3
PROBLEMS, TRIAL = 64, 10  # the memory rungs' problem pool and entries per shared fingerprint
SIZES = 1000  # the -sizes variant's problem pool


def flat_document(chains: int, options: int = 4) -> dict:
    nodes, edges = ["root"], []
    for i in range(chains):
        head = f"c{i:04d}"
        nodes.append(head)
        edges.append({"parent": "root", "child": head, "type": "c"})
        for j in range(options):
            nodes.append(f"{head}_o{j}")
            edges.append({"parent": head, "child": f"{head}_o{j}", "type": "s"})
    return {"root": "root", "nodes": nodes, "edges": edges}


def _size(rung: str) -> int | None:
    """The scale of a rung that grows along its kind's ladder, else None."""
    size = rung.removeprefix("mem")
    return int(size) if size.isdigit() else None


def memory_rung(graft, rung: str):
    """(repository, query, substrate) for a memory rung; rewards, problems and methods are seeded."""
    import random

    rng = random.Random(0)
    size, _, variant = rung.removeprefix("mem").partition("-")
    s = graft.build_substrate(graft.graph_from_document(flat_document(20 if variant == "sizes" else 12, 3)))
    e = graft.layout(s.tree)
    k = graft.min_injective_k(e)
    draws = [graft.sample_method(s, graft.uniform_rows(s), seed) for seed in range(PROBLEMS + 1)]
    pool = [graft.fingerprint(e, graft.method_path_nodes(s, m), k) for m in draws[1:]]
    methods = [(m, graft.method_path_nodes(s, m)) for m in draws]
    query = pool[0]
    if variant == "distinct":  # entry i's problem picks option (code // 3^c) % 3 on chain c, each code once
        codes = random.Random(1).sample(range(3 ** len(s.chain_order)), int(size))
        picks = [{c: f"{c}_o{code // 3 ** j % 3}" for j, c in enumerate(s.chain_order)} for code in codes]
        pool = [graft.fingerprint(e, graft.method_path_nodes(s, graft.MethodTuple.from_picks(p)), k) for p in picks]
        query = pool[0]
    if variant == "sizes":  # problems of 1 to 60 of the 60 options, so as many cell counts, and a query of 30
        options = [node for node, kind in s.tree.edge_type.items() if kind is graft.EdgeType.SUBDIVIDES_IN]
        draw = random.Random(1)
        pool = [graft.fingerprint(e, draw.sample(options, draw.randint(1, 60)), k) for _ in range(SIZES)]
        query = graft.fingerprint(e, draw.sample(options, 30), k)
    repo = graft.MemoryRepository(e.tree_version, s.tree_version)
    for i in range(int(size)):
        m, nodes = methods[i % len(methods)]
        problem = pool[i] if variant == "distinct" else pool[i // TRIAL % len(pool)]
        repo.entries.append(graft.MemoryEntry(problem, m, nodes, {}, rng.uniform(0.0, 100.0)))
    if variant == "stale":
        for entry, _ in graft.rank_neighbors(repo, query, len(repo) // 10):
            entry.stale = True
    return repo, query, s


def memory_load(repo, reps: int) -> dict:
    """Median seconds of ``reps`` loads of ``repo``'s file, and one traced load's bytes."""
    import gc
    import tempfile
    import tracemalloc

    from graft import io

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl"
        io.save_memory(repo, path)
        seconds = _median_time(io.load_memory, [(path,)] * (reps + 1))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = io.load_memory(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return {
        "load_memory": seconds,
        "retained_bytes_per_entry": (retained - before) / len(loaded),
        "load_peak_traced_bytes": peak - before,
    }


def cli_calls(src: str, calls: dict[str, list[str]], files: list[tuple], reps: int) -> dict:
    """Median seconds of ``reps`` child processes of ``python -m graft --quiet``
    per call, start-up included, in a directory where each ``(save, artifact,
    name)`` of ``files`` has written its file.  Calls on ``memory.jsonl`` are
    also timed cold (``<op>_cold``, first), with its sidecar deleted before
    each, and the sidecar's share of the memory file is reported."""
    import tempfile

    memory = any("memory.jsonl" in argv for argv in calls.values())

    with tempfile.TemporaryDirectory() as tmp:
        for save, artifact, name in files:
            save(artifact, Path(tmp) / name)
        env = dict(os.environ, PYTHONPATH=src, GRAFT_WORKSPACE=tmp)
        path, sidecar = Path(tmp) / "memory.jsonl", Path(tmp) / "memory.jsonl.checked"

        def run(argv, cold=False):
            if cold:
                sidecar.unlink(missing_ok=True)
            subprocess.run([sys.executable, "-m", "graft", "--quiet", *argv], env=env, stdout=subprocess.DEVNULL, check=True)

        out = {}
        for op, argv in calls.items():
            if memory:
                out[f"{op}_cold"] = _median_time(run, [(argv, True)] * (reps + 1))
            out[op] = _median_time(run, [(argv,)] * (reps + 1))
        if memory:
            run(MEMORY_CALLS["cli_neighbors"])
            out["sidecar_share"] = sidecar.stat().st_size / path.stat().st_size if sidecar.exists() else 0.0
        return out


def draw_op():
    """One seed word from ``_iteration_seed``, one stream seeded with it, one ``random()``."""
    from graft.loop import _iteration_seed

    try:
        from graft.stream import Stream
    except ImportError:  # a checkout from before graft drew on its own stream
        import numpy as np

        def Stream(seed):
            return np.random.Generator(np.random.PCG64(seed))

    def draw(n: int) -> float:
        return Stream(_iteration_seed(n // 5, n % 5, 0)).random()

    return draw


def _median_time(fn, args: list) -> float:
    fn(*args[0])  # warm-up: imports and per-substrate caches
    times = []
    for a in args:
        start = time.perf_counter()
        fn(*a)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def worker(src: str, rungs: list[str], scale: float) -> dict:
    """One round on one checkout: {rung: {operation: median seconds}}."""
    sys.path.insert(0, src)
    import graft
    from graft import build_substrate, graph_from_document, io, layout, method_probability, sample_method, uniform_rows
    from graft.fixtures import morning_graph_document

    out = {}
    for rung in rungs:
        reps = max(3, int(REPEATS[rung] * scale))
        if rung.startswith("mem"):
            repo, query, s = memory_rung(graft, rung)
            out[rung] = {"rank_neighbors": _median_time(graft.rank_neighbors, [(repo, query, 3)] * (reps + 1))}
            if _size(rung) is not None:
                out[rung]["compile_prior"] = _median_time(graft.compile_prior, [(repo, query, s)] * (reps + 1))
                out[rung].update(memory_load(repo, max(3, int(LOADS[rung] * scale))))
            if rung in CLI:
                files = [(io.save_memory, repo, "memory.jsonl"), (io.save_substrate, s, "sub.json"),
                         (io.save_fingerprint, query, "p.fp"), (io.save_method, repo.entries[0].method, "m.json")]  # fmt: skip
                out[rung].update(cli_calls(src, MEMORY_CALLS, files, max(3, int(CLI[rung] * scale))))
            continue
        doc = morning_graph_document() if rung == "morning" else flat_document(int(rung))
        graph = graph_from_document(doc)
        s = build_substrate(graph)
        rows = uniform_rows(s)
        methods = [sample_method(s, rows, seed) for seed in range(reps + 1)]
        out[rung] = {
            "build_substrate": _median_time(build_substrate, [(graph,)] * max(3, reps // 4)),
            "layout": _median_time(layout, [(s.tree,)] * max(3, reps // 4)),
            "sample_method": _median_time(sample_method, [(s, rows, seed) for seed in range(reps + 1)]),
            "method_probability": _median_time(method_probability, [(s, rows, m) for m in methods]),
        }
        if rung == "morning":
            out[rung]["draw"] = _median_time(draw_op(), [(n,) for n in range(reps + 1)])
        if rung in CLI:
            files = [(io.save_substrate, s, "sub.json"), (io.save_rows, rows, "rows.json")]
            out[rung].update(cli_calls(src, SAMPLE_CALLS, files, max(3, int(CLI[rung] * scale))))
    return out


def _rev(checkout: Path) -> str:
    def git(*args: str) -> str:
        run = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else ""

    rev = git("rev-parse", "--short", "HEAD") or "unknown"
    return rev + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def _machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines() if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"platform": platform.platform(), "cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version()}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarise(rounds: list[dict], rungs: list[str]) -> dict:
    """Per operation and rung: median and quartiles in ms; slopes between the rungs of a ladder."""
    out = {}
    for op in OPERATIONS:
        rows = {}
        for rung in rungs:
            if op not in rounds[0][rung]:
                continue
            values = [r[rung][op] * 1e3 for r in rounds]
            q1, q3 = _quartiles(values)
            rows[rung] = {"median_ms": statistics.median(values), "q1_ms": q1, "q3_ms": q3}
        ladder = [r for r in rows if _size(r) is not None]
        slopes = {
            f"{a}-{b}": math.log(rows[b]["median_ms"] / rows[a]["median_ms"]) / math.log(_size(b) / _size(a))
            for a, b in zip(ladder, ladder[1:])
        }
        out[op] = {"rungs": rows, "slopes": slopes}
    return out


def summarise_traced(rounds: list[dict], rungs: list[str]) -> dict:
    """Per memory rung: the median over rounds of each traced byte count."""
    return {
        rung: {key: statistics.median(r[rung][key] for r in rounds) for key in TRACED}
        for rung in rungs
        if TRACED[0] in rounds[0][rung]
    }


def summarise_shares(rounds: list[dict], rungs: list[str]) -> dict:
    """Per memory rung timed by child processes: the median sidecar share over rounds."""
    return {
        rung: statistics.median(r[rung]["sidecar_share"] for r in rounds)
        for rung in rungs
        if "sidecar_share" in rounds[0][rung]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", type=Path, help="a second checkout, timed in alternating rounds")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument(
        "--smoke", action="store_true", help="rungs morning, 50, 200 and mem1000 with its variants, one round, few repeats"
    )
    parser.add_argument("--out", type=Path, help="JSON report; without it the report is only printed")
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # src/ of the checkout a child round imports
    parser.add_argument("--rungs", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args.worker, args.rungs.split(","), args.scale)))
        return 0

    memory = [f"mem{n}" for n in MEMORY[:1]] if args.smoke else [f"mem{n}" for n in MEMORY]
    memory += [f"mem{MEMORY[0 if args.smoke else 1]}{v}" for v in VARIANTS]
    rungs = ["morning", *map(str, FLAT[:2] if args.smoke else FLAT), *memory]
    rounds, scale = (1, 0.1) if args.smoke else (args.rounds, 1.0)
    sides = {"after": ROOT}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    results: dict[str, list[dict]] = {side: [] for side in sides}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        rotated = rungs[r % len(rungs):] + rungs[: r % len(rungs)]
        for side in order:
            cmd = [sys.executable, __file__, "--worker", str(sides[side] / "src"), "--rungs", ",".join(rotated)]
            run = subprocess.run([*cmd, "--scale", str(scale)], capture_output=True, text=True, check=True)
            results[side].append(json.loads(run.stdout))
        print(f"round {r + 1}/{rounds} done", file=sys.stderr)

    report = {
        "machine": _machine(),
        "rounds": rounds,
        "rungs": {side: summarise(results[side], rungs) for side in sides},
        "traced": {side: summarise_traced(results[side], rungs) for side in sides},
        "sidecar_share": {side: summarise_shares(results[side], rungs) for side in sides},
        "rev": {side: _rev(path) for side, path in sides.items()},
    }
    for op in OPERATIONS:
        for rung in report["rungs"]["after"][op]["rungs"]:
            cells = [f"{side} {report['rungs'][side][op]['rungs'][rung]['median_ms']:9.3f}" for side in sides]
            print(f"{op:20s} {rung:>14s}  " + "  ".join(cells) + "  ms")
        for side in sides:
            slopes = report["rungs"][side][op]["slopes"]
            print(f"{op:20s} {'slope':>14s}  {side} " + "  ".join(f"{k}: {v:.2f}" for k, v in slopes.items()))
    for rung in report["traced"]["after"]:
        for key in TRACED:
            cells = [f"{side} {report['traced'][side][rung][key]:11.0f}" for side in sides]
            print(f"{key:24s} {rung:>10s}  " + "  ".join(cells) + "  B")
    for rung in report["sidecar_share"]["after"]:
        cells = [f"{side} {report['sidecar_share'][side][rung]:11.4f}" for side in sides]
        print(f"{'sidecar_share':24s} {rung:>10s}  " + "  ".join(cells))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
