"""One validating pass over a memory file.

``record`` counts the records it scans, and ``neighbors`` and ``prior`` rank
what the scan keeps of each record and build only the entries they return.
Every memory command reports a bad record as one error line naming its file
and line, and leaves the file as it was.
"""

import contextlib
import copy
import gc
import io as _io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from graft import (
    Fingerprint,
    GraftError,
    MemoryEntry,
    MemoryRepository,
    PriorParams,
    build_substrate,
    compile_prior,
    fingerprint,
    layout,
    method_path_nodes,
    min_injective_k,
    rank_neighbors,
    sample_method,
    uniform_rows,
)
from graft import cli, io
from graft.fixtures import morning_graph, morning_graph_document

from test_lean_memory import _trial_repository
from test_robustness import LOOP, _loop_workdir, assert_one_error_line, run_cli

RECORD = ["record", "memory.jsonl", "--substrate", "asub.json", "--problem", "p.fp", "--method", "m.json", "--reward", "1"]
NEIGHBORS = ["neighbors", "memory.jsonl", "--problem", "p.fp"]
PRIOR = ["prior", "memory.jsonl", "asub.json", "--problem", "p.fp", "--out", "rows.json"]
LANDSCAPE = ["landscape", "memory.jsonl", "--observable", "wall", "--problem-substrate", "asub.json",
             "--action-substrate", "asub.json", "--out", "land.tsv"]  # fmt: skip
COMMANDS = {"record": RECORD, "neighbors": NEIGHBORS, "prior": PRIOR, "landscape": LANDSCAPE}
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}  # where open() without an encoding decodes as ASCII


def _morning_memory(tmp_path: Path, records: int = 3) -> Path:
    """``memory.jsonl`` of ``records`` morning entries, with ``asub.json``,
    ``p.fp`` and ``m.json`` beside it."""
    s = build_substrate(morning_graph())
    e = layout(s.tree)
    k = min_injective_k(e)
    repo = MemoryRepository(e.tree_version, s.tree_version)
    for seed in range(records):
        m = sample_method(s, uniform_rows(s), seed)
        nodes = method_path_nodes(s, m)
        repo.entries.append(MemoryEntry(fingerprint(e, nodes, k), m, nodes, {"wall": float(seed)}, 10.0 * seed))
    io.save_substrate(s, tmp_path / "asub.json")
    io.save_fingerprint(repo.entries[1].problem_fp, tmp_path / "p.fp")
    io.save_method(repo.entries[0].method, tmp_path / "m.json")
    io.save_memory(repo, tmp_path / "memory.jsonl")
    return tmp_path / "memory.jsonl"


def _edit_record(**fields):
    def edit(line: bytes) -> bytes:
        record = json.loads(line)
        record.update(fields)
        return io.json_line(record).encode()

    return edit


BAD_RECORDS = {
    "malformed-json": (lambda line: line[:40] + b"\n", "malformed JSON"),
    "reward-string": (_edit_record(reward="5"), "field 'reward' must be a number"),
    "mixed-versions": (_edit_record(problem_tree_version="other"), "mixed tree versions in one memory file"),
    "reward-out-of-range": (_edit_record(reward=500.0), "reward 500.0 outside [0, 100.0]"),
    "not-utf-8": (lambda line: line[:30] + b"\xff" + line[30:], "not UTF-8 ('utf-8' codec can't decode byte 0xff in position 30"),
}


@pytest.mark.parametrize("name", ["record", "neighbors", "prior"])
@pytest.mark.parametrize("case", BAD_RECORDS)
def test_a_bad_middle_record_is_named_and_the_file_kept(case, name, tmp_path):
    command, path = COMMANDS[name], _morning_memory(tmp_path)
    edit, needle = BAD_RECORDS[case]
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = edit(lines[1])
    path.write_bytes(b"".join(lines))
    out = run_cli(*command, cwd=tmp_path)
    assert_one_error_line(out)
    assert f"error: {path}:2: {needle}" in out.stderr
    assert path.read_bytes() == b"".join(lines)
    assert out.stdout == "" and not (tmp_path / "rows.json").exists()


@pytest.mark.parametrize("env", [{}, C_LOCALE], ids=["default-locale", "c-locale"])
@pytest.mark.parametrize("name", [*COMMANDS, "loop"])
def test_a_line_that_is_not_utf_8_is_named_by_every_memory_command(name, env, tmp_path, monkeypatch):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    if name == "loop":
        _loop_workdir(tmp_path, morning_graph_document())
        command = [*LOOP, "--env-spec", "env.json", "--problems", "0"]
        assert run_cli(*command, cwd=tmp_path).returncode == 0
        path = tmp_path / "memory.jsonl"
    else:
        command, path = COMMANDS[name], _morning_memory(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = lines[0][:12] + b"\xff" + lines[0][12:]
    path.write_bytes(b"".join(lines))
    out = run_cli(*command, cwd=tmp_path)
    assert_one_error_line(out)
    assert f"error: {path}:1: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 12: invalid start byte)" in out.stderr
    assert path.read_bytes() == b"".join(lines)


def test_record_adds_one_line_and_counts_the_records(tmp_path):
    path = _morning_memory(tmp_path)
    before = path.read_bytes()
    out = run_cli(*RECORD[:-2], "--reward", "7.5", cwd=tmp_path)  # run_cli passes --quiet, so no count is said
    assert out.returncode == 0, out.stderr
    grown = path.read_bytes()
    assert grown.startswith(before) and grown.count(b"\n") == before.count(b"\n") + 1
    s = io.load_substrate(tmp_path / "asub.json")
    assert io.load_memory(path).entries[-1].reward == 7.5
    assert io.count_memory(path, io.load_fingerprint(tmp_path / "p.fp").tree_tag, s.tree_version) == 4


def test_lines_split_where_text_mode_splits(tmp_path):
    path = tmp_path / "lines"
    path.write_bytes(b"a\r\nb\rc\n\nd\r\re")
    with open(path, "rb") as fh:
        lines = list(io._lines(fh))
    with open(path, newline=None) as fh:
        assert [line.rstrip(b"\r\n") for _, line in lines] == [t.removesuffix("\n").encode() for t in fh]
    raw = path.read_bytes()
    assert [raw[offset : offset + len(line)] for offset, line in lines] == [line for _, line in lines]


# -- the scan path against the loader ------------------------------------------

S = build_substrate(morning_graph())
E = layout(S.tree)
K = min_injective_k(E)
METHODS = [sample_method(S, uniform_rows(S), seed) for seed in range(6)]
S_NODES = sorted(n for n, kind in E.entered_by.items() if kind == "s")


@st.composite
def memories(draw):
    """(repository, query, n): entries over a few fingerprints and rewards, so
    that ties are common, some stale, and some that ``jaccard`` refuses."""
    pool = [
        fingerprint(E, draw(st.lists(st.sampled_from(S_NODES), min_size=1, max_size=5, unique=True)), K)
        for _ in range(draw(st.integers(1, 4)))
    ]
    repo = MemoryRepository(E.tree_version, S.tree_version)
    for i in range(draw(st.integers(0, 24))):
        m = draw(st.sampled_from(METHODS))
        fp = draw(st.sampled_from(pool))
        foreign = draw(st.sampled_from([None] * 12 + ["tree", "resolution", "empty"]))
        if foreign == "tree":
            fp = Fingerprint(fp.cells, fp.resolution, f"other{i}", fp.keep)
        elif foreign == "resolution":  # a resolution of its own, so jaccard's message names this entry
            fp = Fingerprint(fp.cells, K + 1 + i, fp.tree_tag, fp.keep)
        elif foreign == "empty":
            fp = Fingerprint(frozenset(), fp.resolution, fp.tree_tag, fp.keep)
        reward = draw(st.sampled_from([0.0, 12.5, 50.0, 99.0, 100.0]))
        stale = draw(st.booleans()) if draw(st.booleans()) else False
        repo.entries.append(MemoryEntry(fp, m, method_path_nodes(S, m), {}, reward, stale))
    return repo, draw(st.sampled_from(pool)), draw(st.integers(0, 6))


def _main(*argv) -> tuple[str, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(["--quiet", *argv])
    return out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(memories())
def test_neighbors_and_prior_match_the_loaded_repository(case):
    repo, query, n = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        memory, problem, substrate = tmp / "memory.jsonl", tmp / "p.fp", tmp / "asub.json"
        io.save_memory(repo, memory)
        io.save_fingerprint(query, problem)
        io.save_substrate(S, substrate)

        try:
            loaded = io.load_memory(memory, problem_tree_version=query.tree_tag)
            expected = "".join(
                f"{sim!r}\t{e.reward!r}\t{json.dumps(e.method.picks, sort_keys=True)}\n"
                for e, sim in rank_neighbors(loaded, query, n)
            ), ""
        except GraftError as exc:
            expected = "", f"error: {exc}\n"
        if not repo.entries:
            expected = "", ""  # neighbors prints nothing for a memory without tree versions
        assert _main("neighbors", str(memory), "--problem", str(problem), "-n", str(n)) == expected

        try:
            loaded = io.load_memory(memory, query.tree_tag, S.tree_version)
            io.save_rows(compile_prior(loaded, query, S, PriorParams(n)), tmp / "expected.json")
            expected = (tmp / "expected.json").read_bytes(), ""
        except GraftError as exc:
            expected = None, f"error: {exc}\n"
        out = tmp / "rows.json"
        _, err = _main("prior", str(memory), str(substrate), "--problem", str(problem), "--neighbors", str(n), "--out", str(out))
        assert (out.read_bytes() if out.exists() else None, err) == expected


def test_load_neighbors_returns_the_loaded_entries_and_similarities(tmp_path):
    _, repo = _trial_repository()
    repo.entries[1].stale = True
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    query = repo.entries[2].problem_fp
    expected = rank_neighbors(io.load_memory(path), query, 3)
    got = io.load_neighbors(path, query, 3)
    assert [(e, sim.hex()) for e, sim in got] == [(e, sim.hex()) for e, sim in expected]
    assert len(got) == 3 and repo.entries[1] not in [e for e, _ in got]


# -- the scan itself -------------------------------------------------------------


def test_the_memory_scan_streams_its_file(tmp_path):
    # the scan's peak stays below half the file, and it keeps nothing
    _, repo = _trial_repository()
    trial = list(repo.entries)
    for i in range(400):
        for entry in trial:
            fresh = copy.copy(entry)
            fresh.reward = (i * 7.25) % 100.0
            repo.entries.append(fresh)
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        versions = io.scan_memory(path, lambda offset, payload: None)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert versions == (repo.problem_tree_version, repo.action_tree_version)
    assert peak - before < size / 2, (peak - before, size)
    assert retained - before < 4096, retained - before


@pytest.mark.parametrize("collecting", [True, False])
def test_memory_scan_restores_the_collector_state(tmp_path, collecting):
    path = _morning_memory(tmp_path, 2)
    good, second = path.read_text().splitlines(keepends=True)
    bad_json, bad_reward = tmp_path / "bad-json.jsonl", tmp_path / "bad-reward.jsonl"
    bad_json.write_text(good + "{not json\n")
    bad_reward.write_text(good + second.replace('"reward":10.0', '"reward":500.0'))

    def refuse(offset, payload):
        raise ValueError("refused here")

    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert io.count_memory(path, *io.scan_memory(path, lambda offset, payload: None)) == 2
        assert gc.isenabled() is collecting
        for scan, message in (
            (lambda: io.scan_memory(bad_json, lambda offset, payload: None), "malformed JSON"),
            (lambda: io.scan_memory(bad_reward, lambda offset, payload: None), "reward 500.0"),
            (lambda: io.scan_memory(path, refuse), f"{path}:1: refused here"),
        ):
            with pytest.raises(GraftError, match=message):
                scan()
            assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()
