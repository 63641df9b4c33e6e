"""The workloads: warm-start and cli-session.

Each is a closed loop with one caller: the next operation starts only after
the previous one returned.  A workload fills a ``Run`` with its set-up
times, one latency per operation, the operations attempted and failed, and
the result of its output checks.  Checks run outside the timed intervals.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import io as _io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import graft
import graft.cli
import graft.io
import graft.loop
import graft.memory

from inputs import MUTATION_RATE, NOISE_LEVEL, SIZES, picks_from_code

R_MAX = 100.0
KAPPA, MIDPOINT = 7.0, 0.55  # the paper's gate sigma(J) = 1/(1+exp(-7(J-0.55)))
N_NEIGHBORS = 3  # the neighbour count run_trial's default prior parameters use


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    scale: str
    inputs: Path
    work: Path
    src: Path
    tracer: object
    traced: bool = False
    setup_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # output checks that did not hold
    failures: list = field(default_factory=list)  # operations that raised or exited non-zero
    bytes_per_entry: float = 0.0
    peak_rss_mb: float = 0.0
    per_kind: dict = field(default_factory=dict)  # cli-session: seconds per subcommand
    startup_s: list = field(default_factory=list)
    inproc: dict = field(default_factory=dict)  # cli-session traced runs: in-process replay timings

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 50:
            self.errors.append(message)

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)

    @property
    def min_ops(self) -> int:
        return SIZES[self.workload][self.scale]["min_ops"]

    def done(self, start: float, seconds: float | None = None) -> bool:
        """Whole rounds until the time is up and at least ``min_ops``
        operations have completed; never past three times the time, after
        which run.py gives no result."""
        seconds = self.seconds if seconds is None else seconds
        elapsed = perf_counter() - start
        return elapsed >= seconds and len(self.latencies) >= self.min_ops or elapsed >= 3 * seconds


@contextlib.contextmanager
def _traced(run: Run):
    if not run.traced:
        yield
        return
    run.tracer.install()
    try:
        yield
    finally:
        run.tracer.uninstall()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load(path: Path):
    return json.loads(path.read_text())


def _check_reward(run: Run, observables: dict, reward: float) -> None:
    ts, noise = observables["target_similarity"], observables["noise"]
    run.check(0.0 <= ts <= 1.0 and 0.0 <= noise <= NOISE_LEVEL, f"observables out of range: {observables}")
    expected = min(R_MAX, max(0.0, R_MAX * ts - noise))
    run.check(reward == expected, f"reward {reward!r} != clip(100*{ts!r} - {noise!r}) = {expected!r}")


def _check_trial(run: Run, records) -> None:
    methods = [r.method for r in records]
    run.check(len(set(methods)) == len(methods), "a method repeats within a trial")
    for r in records:
        _check_reward(run, r.observables, r.reward)


def _synthetic_spec(inputs: Path, problem_count: int):
    return graft.loop.SyntheticEnvSpec(
        problem_count=problem_count,
        mutation_rate=MUTATION_RATE,
        noise_level=NOISE_LEVEL,
        problem_graph=_load(inputs / "problem_graph.json"),
        action_graph=_load(inputs / "action_graph.json"),
    )


# ---------------------------------------------------------------------------
# warm-start


WARM_SETUP_REPEATS = 3
WARM_ROUND = 8  # arrivals per round
WARM_CHECK_EVERY = 32  # arrivals 0, 1 and every 32nd are checked outside the timed phase


def sigma(similarity: float) -> float:
    return 1.0 / (1.0 + math.exp(-KAPPA * (similarity - MIDPOINT)))


def check_prior(run: Run, repo, fp, substrate, action_truth: dict) -> None:
    """Compare rank_neighbors and compile_prior with a brute-force ranking and
    the paper's blend, both computed here with Python sets and floats."""
    ranked = graft.memory.rank_neighbors(repo, fp, N_NEIGHBORS)
    rows = graft.memory.compile_prior(repo, fp, substrate)

    cells = fp.cells
    scored = (
        (-len(cells & e.problem_fp.cells) / len(cells | e.problem_fp.cells), -e.reward, i)
        for i, e in enumerate(repo.entries)
        if not e.stale
    )
    top = [(repo.entries[i], -neg_sim) for neg_sim, _, i in heapq.nsmallest(N_NEIGHBORS, scored)]
    run.check(
        [(id(e), s) for e, s in ranked] == [(id(e), s) for e, s in top],
        "rank_neighbors differs from the brute-force ranking",
    )

    weights = [sigma(s) * e.reward / R_MAX for e, s in top]
    w_tot = sum(weights)
    n_eff = sum(1 for w in weights if w > 0.0)
    run.check(set(rows.rows) == set(action_truth["chains"]), "prior rows do not cover the chains")
    for head, chain in action_truth["chains"].items():
        options = chain["options"]
        u = 1.0 / len(options)
        if w_tot == 0.0:
            expected = [u] * len(options)
        else:
            w_bar = min(1.0, max(0.0, w_tot / n_eff))
            data = [
                sum(w for w, (e, _) in zip(weights, top) if e.method.picks[head] == o) / w_tot for o in options
            ]
            expected = [w_bar * d + (1.0 - w_bar) * u for d in data]
        row = rows.rows.get(head)
        if row is None:
            continue
        run.check(list(row.options) == options, f"row {head} lists options {row.options}")
        run.check(
            all(abs(a - b) <= 1e-12 for a, b in zip(row.mass, expected)),
            f"row {head} = {row.mass}, blend gives {expected}",
        )
        run.check(abs(sum(row.mass) - 1.0) <= 1e-12, f"row {head} sums to {sum(row.mass)!r}")


def _check_loaded(run: Run, repo, truth: dict) -> None:
    stored = truth["stored"]
    problems = [frozenset(map(tuple, cells)) for cells in stored["problems"]]
    run.check(len(repo) == len(stored["entries"]), f"loaded {len(repo)} of {len(stored['entries'])} entries")
    bad = 0
    for e, (pi, reward, code) in zip(repo.entries, stored["entries"]):
        if e.problem_fp.cells != problems[pi] or e.reward != reward or e.method.picks != picks_from_code(truth["action"], code):
            bad += 1
    run.check(bad == 0, f"{bad} loaded entries differ from the ones written")


def warm_start(run: Run) -> None:
    with _traced(run):
        _warm_start(run)


def _warm_start(run: Run) -> None:
    sz = SIZES["warm-start"][run.scale]
    truth = _load(run.inputs / "truth.json")
    action_truth = truth["action"]
    spec = _synthetic_spec(run.inputs, sz["arrivals"])
    memory = run.work / "memory.jsonl"
    repo = None
    for _ in range(WARM_SETUP_REPEATS):
        repo = None
        gc.collect()
        shutil.copyfile(run.inputs / "memory.jsonl", memory)
        t0 = perf_counter()
        env = graft.loop.make_synthetic_env(spec, truth["env_seed"])
        repo = graft.io.load_memory(memory, env.problem_substrate.tree_version, env.action_substrate.tree_version)
        run.setup_s.append(perf_counter() - t0)
    with run.tracer.paused():
        _check_loaded(run, repo, truth)
    del truth
    gc.collect()

    sub = env.action_substrate
    start = perf_counter()
    i = 0
    while not run.done(start):
        for _ in range(WARM_ROUND):
            p = i % sz["arrivals"]
            fp = env.problems[p].fingerprint
            if i < 2 or i % WARM_CHECK_EVERY == 0:
                with run.tracer.paused():
                    check_prior(run, repo, fp, sub, action_truth)
            run.attempted += 1
            run.tracer.op = i
            n0 = len(repo)
            t0 = perf_counter()
            try:
                result = graft.loop.run_trial(env.bind(p), sub, repo, fp, budget=sz["budget"], seed=run.seed * 100003 + i)
                for entry in repo.entries[n0:]:
                    graft.io.append_memory(repo, entry, memory)
            except Exception as exc:
                run.failed += 1
                run.fail(f"arrival {i}: {type(exc).__name__}: {exc}")
            else:
                run.latencies.append(perf_counter() - t0)
                run.check(len(result.history) == sz["budget"], f"arrival {i} ran {len(result.history)} attempts")
                _check_trial(run, result.history.records)
            i += 1

    run.peak_rss_mb = _self_rss_mb()
    run.bytes_per_entry = memory.stat().st_size / len(repo)
    with run.tracer.paused():
        # the appended file loads back whole, whatever its format
        expected = [(e.reward, e.method) for e in repo.entries]
        repo = result = None
        reloaded = graft.io.load_memory(memory)
        run.check([(e.reward, e.method) for e in reloaded.entries] == expected,
                  "the memory file does not load back the entries appended to it")


# ---------------------------------------------------------------------------
# cli-session


CLI_SETUP_REPEATS = 21
NEIGHBOR_COUNT = 5


@dataclass
class Call:
    kind: str
    argv: list
    out_file: str | None = None  # a file the call writes, compared across repetitions


def session_calls(truth: dict, budget: int) -> list[Call]:
    """One repetition of the session, in order.

    Kinds fall in three latency groups: start-up bound (fingerprint,
    similarity, footprint, sample, prob), memory bound (prior, record,
    neighbors) and the loop.  The repeats keep the median inside the first
    group and the 90th percentile inside the second.
    """
    path = ",".join(truth["path"])
    fingerprint = Call("fingerprint", ["fingerprint", "sub.json", "--path", path, "--k", "auto", "--out", "p.fp"], "p.fp")
    similarity = Call("similarity", ["similarity", "p.fp", "p.fp"])
    footprint = Call("footprint", ["footprint", "sub.json"])
    prior = Call("prior", ["prior", "memory.jsonl", "sub.json", "--problem", "p.fp", "--out", "rows.json"], "rows.json")
    sample = Call("sample", ["sample", "sub.json", "--rows", "rows.json", "--seed", str(truth["sample_seed"])])
    prob = Call("prob", ["prob", "sub.json", "--rows", "rows.json", "--method", "m.json"])
    record = Call("record", ["record", "memory.jsonl", "--substrate", "sub.json", "--problem", "p.fp",
                             "--method", "m.json", "--reward", repr(truth["reward"])])
    neighbors = Call("neighbors", ["neighbors", "memory.jsonl", "--problem", "p.fp", "-n", str(NEIGHBOR_COUNT)])
    loop = Call("loop", ["loop", "sub.json", "memory.jsonl", "--env", "synthetic", "--env-spec", "env.json",
                         "--budget", str(budget), "--seed", str(truth["loop_seed"]), "--problems", "0",
                         "--out", "report.jsonl"], "report.jsonl")
    return [fingerprint, similarity, footprint, prior, sample, prob, similarity, footprint, sample, prob,
            record, neighbors, fingerprint, similarity, footprint, prob, sample, prob, neighbors, loop]


class SessionChecker:
    def __init__(self, run: Run, truth: dict, budget: int):
        self.run = run
        self.truth = truth
        self.budget = budget
        self.chains = truth["action"]["chains"]
        stored = truth["stored"]
        problems = [frozenset(map(tuple, cells)) for cells in stored["problems"]]
        self.entries = [(problems[pi], reward, code) for pi, reward, code in stored["entries"]]
        self.digests: dict[int, str] = {}
        self.lines_before = 0

    def before(self, call: Call, work: Path) -> None:
        if call.kind == "record":
            self.lines_before = _count_lines(work / "memory.jsonl")

    def after(self, position: int, call: Call, stdout: bytes, work: Path) -> None:
        try:
            self._after(position, call, stdout, work)
        except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
            self.run.check(False, f"{call.kind} (call {position}): unreadable output: {exc!r}")

    def _after(self, position: int, call: Call, stdout: bytes, work: Path) -> None:
        run, kind = self.run, call.kind
        text = stdout.decode()
        digest = hashlib.sha256(stdout)
        if call.out_file:
            digest.update((work / call.out_file).read_bytes())
        digest = digest.hexdigest()
        reference = self.digests.setdefault(position, digest)
        run.check(digest == reference, f"{kind} (call {position}) printed other output than its first repetition")
        if kind == "similarity":
            run.check(text.strip() == "1.0", f"similarity of a fingerprint with itself printed {text.strip()!r}")
        elif kind == "footprint":
            c, o = len(self.chains), len(next(iter(self.chains.values()))["options"])
            expected = f"joint={o ** c} factored={c * o}"
            run.check(text.strip() == expected, f"footprint printed {text.strip()!r}, expected {expected!r}")
        elif kind == "sample":
            picks = json.loads(text)["picks"]
            run.check(
                set(picks) == set(self.chains) and all(picks[h] in c["options"] for h, c in self.chains.items()),
                "sampled method does not pick one option per chain",
            )
            (work / "m.json").write_text(text)
        elif kind == "prob":
            rows = json.loads((work / "rows.json").read_text())["rows"]
            picks = json.loads((work / "m.json").read_text())["picks"]
            expected = 1.0
            for head in sorted(self.chains):
                row = rows[head]
                expected *= row["mass"][row["options"].index(picks[head])]
            run.check(math.isclose(float(text), expected, rel_tol=1e-12, abs_tol=0.0),
                      f"prob printed {text.strip()}, product of row masses is {expected!r}")
        elif kind == "record":
            added = _count_lines(work / "memory.jsonl") - self.lines_before
            run.check(added == 1, f"record added {added} lines")
        elif kind == "neighbors":
            self._check_neighbors(text, work)
        elif kind == "loop":
            report = [json.loads(line) for line in (work / "report.jsonl").read_text().splitlines()]
            methods = [json.dumps(r["method"], sort_keys=True) for r in report]
            run.check(len(report) == self.budget, f"loop report holds {len(report)} lines for budget {self.budget}")
            run.check(len(set(methods)) == len(methods), "loop report repeats a method")

    def _check_neighbors(self, text: str, work: Path) -> None:
        fp_cells = frozenset(tuple(c) for c in json.loads((work / "p.fp").read_text())["cells"])
        recorded = json.loads((work / "m.json").read_text())["picks"]
        pool = self.entries + [(fp_cells, self.truth["reward"], recorded)]
        scored = []
        for i, (cells, reward, picks) in enumerate(pool):
            scored.append((-len(fp_cells & cells) / len(fp_cells | cells), -reward, i))
        expected = []
        for neg_sim, neg_reward, i in heapq.nsmallest(NEIGHBOR_COUNT, scored):
            picks = pool[i][2]
            if isinstance(picks, str):
                picks = picks_from_code(self.truth["action"], picks)
            expected.append((-neg_sim, -neg_reward, picks))
        got = []
        for line in text.splitlines():
            sim, reward, picks = line.split("\t")
            got.append((float(sim), float(reward), json.loads(picks)))
        keys = [(-s, -r) for s, r, _ in got]
        self.run.check(keys == sorted(keys), "neighbors lines are out of order")
        self.run.check(got == expected, "neighbors differ from the brute-force ranking of the stored cells")


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Child:
    """Runs ``python -m graft`` children one at a time and reaps each with
    wait4, so every call's own peak RSS is known."""

    def __init__(self, run: Run):
        self.run = run
        self.env = dict(os.environ, PYTHONPATH=str(run.src), GRAFT_WORKSPACE=str(run.work))
        self.out_path = run.work.parent / f"{run.work.name}.stdout"
        self.err_path = run.work.parent / f"{run.work.name}.stderr"

    def __call__(self, argv: list, timeout: float = 120.0) -> tuple[int, bytes, float, float]:
        with open(self.out_path, "w+b") as out, open(self.err_path, "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            if proc.returncode != 0:
                err.seek(0)
                self.run.fail(f"{' '.join(map(str, argv[1:6]))}: exit {proc.returncode}: {err.read().decode()[-300:]}")
        return proc.returncode, stdout, elapsed, usage.ru_maxrss / 1024.0

    def graft(self, args: list) -> tuple[int, bytes, float, float]:
        return self([sys.executable, "-m", "graft", "--quiet", *args])


def _restore(run: Run) -> None:
    shutil.copyfile(run.inputs / "memory.jsonl", run.work / "memory.jsonl")
    for name in ("p.fp", "rows.json", "m.json", "report.jsonl"):
        (run.work / name).unlink(missing_ok=True)


def _child_sessions(run: Run, child: Child, calls: list, checker: SessionChecker, seconds: float) -> None:
    start = perf_counter()
    while not run.done(start, seconds):
        _restore(run)
        for position, call in enumerate(calls):
            checker.before(call, run.work)
            run.attempted += 1
            code, stdout, elapsed, rss = child.graft(call.argv)
            if code != 0:
                run.failed += 1
                continue
            run.latencies.append(elapsed)
            run.per_kind.setdefault(call.kind, []).append(elapsed)
            run.peak_rss_mb = max(run.peak_rss_mb, rss)
            checker.after(position, call, stdout, run.work)


def _inproc_sessions(run: Run, calls: list, checker: SessionChecker, seconds: float) -> list:
    """Replay sessions through graft.cli.main in this process."""
    latencies = []
    os.environ["GRAFT_WORKSPACE"] = str(run.work)
    start = perf_counter()
    while perf_counter() - start < seconds or not latencies:
        _restore(run)
        for position, call in enumerate(calls):
            checker.before(call, run.work)
            buffer = _io.StringIO()
            run.attempted += 1
            run.tracer.op = len(latencies)
            t0 = perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = graft.cli.main(["--quiet", *call.argv])
            elapsed = perf_counter() - t0
            if code != 0:
                run.failed += 1
                run.fail(f"in-process {call.kind}: exit {code}")
                continue
            latencies.append(elapsed)
            with run.tracer.paused():
                checker.after(position, call, buffer.getvalue().encode(), run.work)
    return latencies


def cli_session(run: Run) -> None:
    sz = SIZES["cli-session"][run.scale]
    truth = _load(run.inputs / "truth.json")
    for name in ("graph.json", "env.json"):
        shutil.copyfile(run.inputs / name, run.work / name)
    child = Child(run)
    for _ in range(CLI_SETUP_REPEATS):
        code, _, elapsed, _ = child.graft(["build", "graph.json", "--out", "sub.json"])
        if code == 0:
            run.setup_s.append(elapsed)
    if not run.setup_s:
        return
    calls = session_calls(truth, sz["budget"])
    checker = SessionChecker(run, truth, sz["budget"])
    # a session ends with the memory restored, one entry recorded and the loop's budget saved
    entries = len(checker.entries) + 1 + sz["budget"]
    if not run.traced:
        _child_sessions(run, child, calls, checker, run.seconds)
        run.bytes_per_entry = (run.work / "memory.jsonl").stat().st_size / entries
        return

    # traced run: child sessions for the per-subcommand wall times, then the
    # same session replayed in-process, first untraced and then traced
    _child_sessions(run, child, calls, checker, run.seconds / 2)
    run.bytes_per_entry = (run.work / "memory.jsonl").stat().st_size / entries
    for _ in range(5):
        code, _, elapsed, _ = child([sys.executable, "-c", "import graft.cli"])
        if code == 0:
            run.startup_s.append(elapsed)
    run.inproc["untraced"] = _inproc_sessions(run, calls, checker, run.seconds / 4)
    run.tracer.install()
    try:
        run.inproc["traced"] = _inproc_sessions(run, calls, checker, run.seconds / 4)
    finally:
        run.tracer.uninstall()

