"""Scale ladder for graft's substrate and policy layers.

    python3 bench/ladder.py                          # this checkout, into BENCH_8.json
    python3 bench/ladder.py --before ../parent       # and a second checkout, in alternating rounds
    python3 bench/ladder.py --smoke                  # small rungs, one round, well under 10 s

A rung is a substrate: C flat chains of 4 options each (C = 50, 200 and
1000), or the morning fixture.  On each rung the ladder times
``build_substrate`` (from a parsed graph), ``layout``, ``sample_method`` and
``method_probability``, the last two with uniform rows passed as plain
``PolicyRows``.  Each round runs in a fresh child process that imports graft
from the checkout's ``src/``, makes one warm-up call of every operation, then
times its repeats and keeps their median.  Rounds alternate between the
checkouts and rotate the order of the rungs, so slow drift of the machine
falls on both sides alike.  The report gives, per checkout, operation and
rung, the median and the quartiles over rounds, and the log-log slope of the
median between successive flat rungs: a slope of 1 is linear growth.
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
OPERATIONS = ("build_substrate", "layout", "sample_method", "method_probability")
# timed repeats per round: about 2,000 chain-draws' worth, at least 5
REPEATS = {"morning": 400, 50: 40, 200: 10, 1000: 5}


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
    from graft import build_substrate, graph_from_document, layout, method_probability, sample_method, uniform_rows
    from graft.fixtures import morning_graph_document

    out = {}
    for rung in rungs:
        key = rung if rung == "morning" else int(rung)
        doc = morning_graph_document() if rung == "morning" else flat_document(key)
        reps = max(3, int(REPEATS[key] * scale))
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
    """Per operation and rung: median and quartiles in ms; slopes between flat rungs."""
    out = {}
    for op in OPERATIONS:
        rows = {}
        for rung in rungs:
            values = [r[rung][op] * 1e3 for r in rounds]
            q1, q3 = _quartiles(values)
            rows[rung] = {"median_ms": statistics.median(values), "q1_ms": q1, "q3_ms": q3}
        flat = [r for r in rungs if r != "morning"]
        slopes = {
            f"{a}-{b}": math.log(rows[b]["median_ms"] / rows[a]["median_ms"]) / math.log(int(b) / int(a))
            for a, b in zip(flat, flat[1:])
        }
        out[op] = {"rungs": rows, "slopes": slopes}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", type=Path, help="a second checkout, timed in alternating rounds")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="rungs 50 and 200 and morning, one round, few repeats")
    parser.add_argument("--out", type=Path, help="JSON report (default BENCH_8.json; none in smoke mode)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)  # src/ of the checkout a child round imports
    parser.add_argument("--rungs", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(worker(args.worker, args.rungs.split(","), args.scale)))
        return 0

    rungs = ["morning", *map(str, FLAT[:2] if args.smoke else FLAT)]
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
        "rev": {side: _rev(path) for side, path in sides.items()},
    }
    for op in OPERATIONS:
        for rung in rungs:
            cells = [f"{side} {report['rungs'][side][op]['rungs'][rung]['median_ms']:9.3f}" for side in sides]
            print(f"{op:20s} {rung:>8s}  " + "  ".join(cells) + "  ms")
        for side in sides:
            slopes = report["rungs"][side][op]["slopes"]
            print(f"{op:20s} {'slope':>8s}  {side} " + "  ".join(f"{k}: {v:.2f}" for k, v in slopes.items()))
    out = args.out if args.out is not None else (None if args.smoke else ROOT / "BENCH_8.json")
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
