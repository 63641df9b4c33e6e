"""Benchmark for graft: one workload, one seed, one JSON result line.

    python3 graftbench/run.py --workload warm-start --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics, measured with
nothing of the program replaced.  With ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("warm-start", "cli-session")
DEFAULT_SEED = 1
CLI_KINDS = ("fingerprint", "similarity", "footprint", "prior", "sample", "prob", "record", "neighbors", "loop")


def _import_program():
    """Import graft from this checkout's src/, and from nowhere else."""
    if not (SRC / "graft" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'graft'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import graft

    if Path(graft.__file__).resolve().parent != (SRC / "graft").resolve():
        sys.exit(f"error: imported graft from {graft.__file__}, not from {SRC}")


def end_to_end(run) -> dict:
    lat = run.latencies
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms.p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "memory_bytes_per_entry": (run.bytes_per_entry, "B"),
    }


def per_layer(run) -> dict:
    out = {name: (value, "ms" if name.endswith("_ms") else "ratio" if name.endswith("ratio") else "count")
           for name, value in run.tracer.metrics().items()}
    # the CLI figures come from child processes, so only cli-session has them;
    # warm-start reports 0, meaning "not exercised"
    out["cli.startup_ms"] = (statistics.median(run.startup_s) * 1e3 if run.startup_s else 0.0, "ms")
    for kind in CLI_KINDS:
        times = run.per_kind.get(kind)
        out[f"cli.{kind}.ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-check only")
    args = parser.parse_args(argv)

    _import_program()
    import inputs
    import workloads
    from tracing import NoTracer, Tracer

    work = BENCH / "_work" / f"{args.workload}-{args.scale}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs.generate_in_child(SRC, args.workload, args.scale, args.seed, work / "inputs")
        run = workloads.Run(
            workload=args.workload, seed=args.seed, seconds=args.seconds, scale=args.scale,
            inputs=work / "inputs", work=work, src=SRC,
            tracer=Tracer() if args.trace else NoTracer(), traced=bool(args.trace),
        )
        {"warm-start": workloads.warm_start, "cli-session": workloads.cli_session}[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for leftover in work.parent.glob(f"{work.name}.std*"):
            leftover.unlink()

    if len(run.latencies) < run.min_ops or not run.setup_s:
        for line in run.failures[:5] + run.errors[:5]:
            print(line, file=sys.stderr)
        print(f"error: {args.workload} completed {len(run.latencies)} operations, fewer than the "
              f"{run.min_ops} a result needs; no result", file=sys.stderr)
        return 1

    e2e = end_to_end(run)
    metrics = per_layer(run) if args.trace else e2e
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "operations": len(run.latencies), "setup_s": run.setup_s,
        "latency_ms_percentiles_5_to_95": [q * 1e3 for q in statistics.quantiles(run.latencies, n=20)],
        "end_to_end_this_run": {k: v for k, (v, _) in e2e.items()},
        "median_ms_per_kind": {k: statistics.median(v) * 1e3 for k, v in run.per_kind.items()},
        "errors": run.errors, "failures": run.failures,
        "in_process_replay": {k: {"calls": len(v), "median_ms": statistics.median(v) * 1e3, "total_s": sum(v)}
                              for k, v in run.inproc.items() if v},
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        run.tracer.save(results / f"{stem}.spans.npz")
    for line in run.errors[:10] + run.failures[:10]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
