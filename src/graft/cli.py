"""Command-line surface: thin adapters over the library operations.

Exit codes: 0 success, 1 domain error, 2 usage error.  Commands that draw
random numbers require an explicit --seed.  Relative paths resolve against
$GRAFT_WORKSPACE when it is set.  Numbers are printed in shortest exact
round-trip form.

Each handler imports the library calls it makes, so numpy is loaded only
by ``landscape``, which projects with it, and the loop module only by
``loop``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io
from .embedding import KEEP_ALL, KEEP_S_ONLY
from .errors import EmptyMemoryError, GraftError


def _workspace() -> Path:
    return Path(os.environ.get("GRAFT_WORKSPACE", "."))


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _workspace() / p


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _load_substrate_for(args):
    return io.load_substrate(_resolve(args.substrate))


# -- subcommand handlers -------------------------------------------------------


def cmd_validate(args) -> int:
    from .graph import validate_graph

    g = io.load_graph(_resolve(args.graph))
    report = validate_graph(g)
    for v in report.violations:
        print(v.message)
    return 0 if report.ok else 1


def cmd_reduce(args) -> int:
    from .build import build_substrate

    g = io.load_graph(_resolve(args.graph))
    s = build_substrate(g)
    tree, ci = s.tree, s.chains

    stack = [(tree.root, 0)]
    while stack:  # preorder, children in name order
        node, indent = stack.pop()
        kind = tree.edge_type[node].value if node != tree.root else "root"
        print("  " * indent + f"- {node} [{kind}]")
        stack.extend((child, indent + 1) for child in reversed(tree.children.get(node, ())))
    print()
    print("chains:")
    for cid in sorted(ci.chains):
        chain = ci.chains[cid]
        rho = ci.nesting_parent.get(cid, "-")
        alphabet = ", ".join(chain.alphabet) if chain.alphabet else "(pass-through)"
        print(f"- {cid} [level {s.levels[cid]}, encloses {rho}]: {alphabet}")
    return 0


def cmd_build(args) -> int:
    from .build import build_substrate

    g = io.load_graph(_resolve(args.graph))
    s = build_substrate(g)
    io.save_substrate(s, _resolve(args.out))
    _say(args, f"substrate {s.version} written to {args.out}")
    return 0


def cmd_embed(args) -> int:
    from .embedding import layout

    s = _load_substrate_for(args)
    io.save_embedding(layout(s.tree), _resolve(args.out))
    _say(args, f"embedding written to {args.out}")
    return 0


def cmd_fingerprint(args) -> int:
    from .embedding import fingerprint, layout, min_injective_k

    s = _load_substrate_for(args)
    e = layout(s.tree)
    resolution = min_injective_k(e) if args.k == "auto" else args.k
    nodes = [n for n in args.path.split(",") if n]
    fp = fingerprint(e, nodes, resolution, keep=args.keep)
    payload = io.fingerprint_payload(fp)
    if args.out:
        io.save_fingerprint(fp, _resolve(args.out))
        _say(args, f"fingerprint ({len(fp.cells)} cells at K={resolution}) written to {args.out}")
    else:
        print(io._dump(payload), end="")
    return 0


def cmd_similarity(args) -> int:
    from .embedding import jaccard

    a = io.load_fingerprint(_resolve(args.fp1))
    b = io.load_fingerprint(_resolve(args.fp2))
    print(repr(jaccard(a, b)))
    return 0


def cmd_prior(args) -> int:
    from .memory import prior_from_neighbors

    s = _load_substrate_for(args)
    p_new = io.load_fingerprint(_resolve(args.problem))
    neighbors = io.load_neighbors(
        _resolve(args.memory),
        p_new,
        args.neighbors,
        problem_tree_version=p_new.tree_tag,
        action_tree_version=s.tree_version,
    )
    rows = prior_from_neighbors(neighbors, s)  # what compile_prior blends from the same neighbours
    io.save_rows(rows, _resolve(args.out))
    _say(args, f"prior rows written to {args.out}")
    return 0


def _load_rows_for(args, s):
    """The rows file compiled for ``s``; a row that does not fit names the file."""
    from .policy import compile_policy

    path = _resolve(args.rows)
    rows = io.load_rows(path)
    try:
        return compile_policy(s, rows)
    except ValueError as exc:  # a row missing, or with options other than its node's s-children
        raise GraftError(f"{path}: {exc}") from None


def cmd_sample(args) -> int:
    from .policy import sample_method

    s = _load_substrate_for(args)
    rows = _load_rows_for(args, s)
    avoid = frozenset(io.load_method_list(_resolve(args.avoid))) if args.avoid else frozenset()
    m = sample_method(s, rows, args.seed, avoid=avoid)
    print(io._dump(io.method_payload(m)), end="")
    return 0


def cmd_prob(args) -> int:
    from .policy import method_probability

    s = _load_substrate_for(args)
    rows = _load_rows_for(args, s)
    m = io.load_method(_resolve(args.method))
    print(repr(method_probability(s, rows, m)))
    return 0


def _check_gates(s, m) -> None:
    """Refuse a tuple no draw can produce: a null on a chain whose gate is
    met (top chains have none), or a value on a chain whose gate is not."""
    picks = m.picks
    for cid in s.chain_order:
        gate = s.gate.get(cid)
        active = gate is None or picks[gate[0]] == gate[1]
        if active and picks[cid] is None:
            raise GraftError(f"chain {cid} is active in this method but carries null")
        if not active and picks[cid] is not None:
            raise GraftError(f"chain {cid} carries {picks[cid]!r} although its gate {gate[0]} = {gate[1]!r} is not met")


def cmd_record(args) -> int:
    from .memory import MemoryEntry, MemoryRepository
    from .policy import method_path_nodes, validate_tuple

    s = _load_substrate_for(args)
    p_fp = io.load_fingerprint(_resolve(args.problem))
    m = io.load_method(_resolve(args.method))
    validate_tuple(s, m)
    _check_gates(s, m)
    observables = io.load_observables(_resolve(args.observables)) if args.observables else {}
    path = _resolve(args.memory)
    count = io.count_memory(path, problem_tree_version=p_fp.tree_tag, action_tree_version=s.tree_version)
    entry = MemoryEntry(
        problem_fp=p_fp,
        method=m,
        method_path_nodes=method_path_nodes(s, m),
        observables=observables,
        reward=args.reward,
    )
    io.append_memory(MemoryRepository(p_fp.tree_tag, s.tree_version), entry, path)
    _say(args, f"entry {count + 1} appended to {args.memory}")
    return 0


def cmd_neighbors(args) -> int:
    p_fp = io.load_fingerprint(_resolve(args.problem))
    try:
        ranked = io.load_neighbors(_resolve(args.memory), p_fp, args.count, problem_tree_version=p_fp.tree_tag)
    except EmptyMemoryError:  # no entries, so no tree versions to check
        return 0
    for entry, sim in ranked:
        print(f"{repr(sim)}\t{repr(entry.reward)}\t{json.dumps(entry.method.picks, sort_keys=True)}")
    return 0


def cmd_loop(args) -> int:
    import dataclasses

    from .loop import SyntheticEnvSpec, make_synthetic_env, run_trial

    s = _load_substrate_for(args)
    spec_path, spec_fields = _resolve(args.env_spec), dataclasses.fields(SyntheticEnvSpec)
    required = tuple(f.name for f in spec_fields if f.default is dataclasses.MISSING)
    spec_payload = io.load_object(spec_path, fields=required)
    unknown = sorted(set(spec_payload) - {f.name for f in spec_fields})
    if unknown:
        raise GraftError(f"{spec_path}: unknown field {unknown[0]!r}")
    if args.env != "synthetic":
        raise GraftError(f"unknown environment {args.env!r}; only 'synthetic' ships built-in")
    for key in ("problem_graph", "action_graph"):
        if isinstance(spec_payload.get(key), str):
            spec_payload[key] = io.load_object(_resolve(spec_payload[key]))
    spec = SyntheticEnvSpec(**spec_payload)
    try:
        spec.validate()
    except GraftError as exc:
        raise GraftError(f"{spec_path}: {exc}") from None
    env = make_synthetic_env(spec, args.seed)
    if env.action_substrate.version != s.version:
        raise GraftError(
            "substrate does not match the environment's action tree "
            f"({s.version} vs {env.action_substrate.version})"
        )
    indices = range(len(env.problems)) if args.problems == "all" else [args.problems]
    if not all(0 <= i < len(env.problems) for i in indices):
        raise GraftError(f"--problems {args.problems} is not a problem index (0 to {len(env.problems) - 1})")
    repo = io.load_memory(
        _resolve(args.memory),
        problem_tree_version=env.problem_substrate.tree_version,
        action_tree_version=s.tree_version,
    )
    out_path = _resolve(args.out)
    memory_path = _resolve(args.memory)
    memory_path.touch()  # exists even when no attempt is made
    with open(out_path, "w") as fh:
        for index in indices:
            problem = env.problems[index]

            def emit(n, m, observables, reward, _index=index):
                # run_trial has just recorded this attempt as the repository's last entry
                io.append_memory(repo, repo.entries[-1], memory_path)
                report = dict(problem=_index, iteration=n, method=m.picks, observables=observables, reward=reward)
                fh.write(io.json_line(report))

            result = run_trial(
                env.bind(index),
                s,
                repo,
                problem.fingerprint,
                budget=args.budget,
                seed=args.seed + index,
                on_iteration=emit,
            )
            _say(args, f"problem {index}: best reward {result.best_reward!r} over {len(result.history)} attempts")
    return 0


def cmd_landscape(args) -> int:
    from .embedding import landscape_export, layout

    memory = io.load_memory(_resolve(args.memory))
    problem_s = io.load_substrate(_resolve(args.problem_substrate))
    action_s = io.load_substrate(_resolve(args.action_substrate))
    table = landscape_export(
        memory, layout(problem_s.tree), layout(action_s.tree), args.observable
    )
    lines = ["x_pca_problem\ty_pca_method\t" + args.observable]
    for x, y, value in table.rows:
        lines.append(f"{x!r}\t{y!r}\t{value!r}")
    io.write_whole(_resolve(args.out), "\n".join(lines) + "\n")
    if table.degenerate_problem_axis or table.degenerate_method_axis:
        _say(args, "warning: degenerate covariance on at least one axis; coordinates are zero")
    return 0


def cmd_footprint(args) -> int:
    s = _load_substrate_for(args)
    print(f"joint={s.joint_size} factored={s.footprint}")
    return 0


# -- parser --------------------------------------------------------------------


def _integer(minimum: int | None = None, word: str | None = None):
    """An option type taking an integer, of at least ``minimum`` when given, or
    ``word`` itself when given; any other range is checked where the value is used."""
    wanted = "an integer" if minimum is None else f"an integer of at least {minimum}"
    wanted = wanted if word is None else f"{word!r} or {wanted}"

    def parse(text: str) -> int | str:
        if text == word:
            return text
        try:
            if minimum is None or int(text) >= minimum:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, found {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graft",
        description="Factored probabilistic decision trees over knowledge DAGs",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational messages")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a graph document's structural invariants")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("reduce", help="print the spanning tree and chain listing")
    p.add_argument("graph")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("build", help="compile a graph into a substrate file")
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("embed", help="write the partition-of-unity embedding")
    p.add_argument("substrate")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("fingerprint", help="fingerprint a node path")
    p.add_argument("substrate")
    p.add_argument("--path", required=True, help="comma-separated node ids")
    p.add_argument(
        "--k", type=_integer(word="auto"), default="auto", help="grid resolution or 'auto' for the minimum injective K"
    )
    p.add_argument("--keep", choices=[KEEP_S_ONLY, KEEP_ALL], default=KEEP_S_ONLY)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_fingerprint)

    p = sub.add_parser("similarity", help="Jaccard similarity of two fingerprints")
    p.add_argument("fp1")
    p.add_argument("fp2")
    p.set_defaults(handler=cmd_similarity)

    p = sub.add_parser("prior", help="compile policy rows from memory for a problem")
    p.add_argument("memory")
    p.add_argument("substrate")
    p.add_argument("--problem", required=True, help="problem fingerprint file")
    p.add_argument("--neighbors", type=_integer(0), default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_prior)

    p = sub.add_parser("sample", help="draw one method tuple")
    p.add_argument("substrate")
    p.add_argument("--rows", required=True)
    p.add_argument("--seed", type=_integer(0), required=True)
    p.add_argument("--avoid", help="JSON array of method records to exclude")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("prob", help="probability of a method tuple")
    p.add_argument("substrate")
    p.add_argument("--rows", required=True)
    p.add_argument("--method", required=True)
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("record", help="append a solved instance to a memory file")
    p.add_argument("memory")
    p.add_argument("--substrate", required=True)
    p.add_argument("--problem", required=True, help="problem fingerprint file")
    p.add_argument("--method", required=True)
    p.add_argument("--observables", help="JSON file of observable key/values")
    p.add_argument("--reward", type=float, required=True)
    p.set_defaults(handler=cmd_record)

    p = sub.add_parser("neighbors", help="rank memory entries against a problem")
    p.add_argument("memory")
    p.add_argument("--problem", required=True)
    p.add_argument("-n", "--count", type=_integer(0), default=3)
    p.set_defaults(handler=cmd_neighbors)

    p = sub.add_parser("loop", help="run closed-loop trials against an environment")
    p.add_argument("substrate")
    p.add_argument("memory")
    p.add_argument("--env", default="synthetic")
    p.add_argument("--env-spec", required=True)
    p.add_argument("--budget", type=_integer(1), required=True)
    p.add_argument("--seed", type=_integer(0), required=True)
    p.add_argument("--problems", type=_integer(word="all"), default="all", help="'all' or one problem index")
    p.add_argument("--out", required=True, help="per-iteration JSONL report")
    p.set_defaults(handler=cmd_loop)

    p = sub.add_parser("landscape", help="PCA landscape table from a memory file")
    p.add_argument("memory")
    p.add_argument("--observable", required=True)
    p.add_argument("--problem-substrate", required=True)
    p.add_argument("--action-substrate", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_landscape)

    p = sub.add_parser("footprint", help="joint vs factored parameter counts")
    p.add_argument("substrate")
    p.set_defaults(handler=cmd_footprint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (GraftError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
