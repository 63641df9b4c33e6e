"""One validating pass over a memory file.

``record`` counts the records it scans, and ``neighbors`` and ``prior`` rank
what the scan keeps of each record and build only the entries they return.
Every memory command reports a bad record as one error line naming its file
and line, and leaves the file as it was.  The scans of ``record``,
``neighbors`` and ``prior`` keep what they checked in a sidecar keyed by each
line's SHA-256; whatever the sidecar holds, they give what a scan without it
gives.
"""

import contextlib
import copy
import gc
import hashlib
import io as _io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial
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
from graft import checked, cli, io
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


# -- the checked sidecar -----------------------------------------------------------


def _set_sidecar(path: Path, state) -> None:
    """Put ``state`` beside the memory file ``path``: None for no sidecar,
    ``"directory"`` for a directory in its place, else the sidecar's bytes."""
    sidecar = checked.sidecar(path)
    if sidecar.is_dir():
        sidecar.rmdir()
    sidecar.unlink(missing_ok=True)
    if state == "directory":
        sidecar.mkdir()
    elif state is not None:
        sidecar.write_bytes(state)


def _within(tmp: Path, argv: list[str]) -> list[str]:
    """``argv`` with the files a memory command names put in ``tmp``."""
    return [str(tmp / a) if a in ("memory.jsonl", "asub.json", "p.fp", "m.json", "rows.json") else a for a in argv]


def _outcome(tmp: Path, argv: list[str], memory: bytes, sidecar) -> tuple:
    """Exit code, stdout, stderr, rows file and memory bytes of one in-process
    call on ``memory`` with ``sidecar`` beside it, and the sidecar it leaves."""
    path, rows = tmp / "memory.jsonl", tmp / "rows.json"
    path.write_bytes(memory)
    rows.unlink(missing_ok=True)
    _set_sidecar(path, sidecar)
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--quiet", *argv])
    left = checked.sidecar(path).read_bytes() if checked.sidecar(path).is_file() else None
    return (code, out.getvalue(), err.getvalue(), rows.read_bytes() if rows.exists() else None, path.read_bytes()), left


def _retagged(line: bytes, **fields) -> bytes:
    """``line`` with ``fields`` replaced, its line end kept; as it was if it is not a record."""
    body = line.rstrip(b"\r\n")
    try:
        record = json.loads(body)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    return io.json_line({**record, **fields}).encode()[:-1] + line[len(body):]


EDITS = ("append-valid", "append-invalid", "truncate", "change-byte", "swap", "mix-versions", "crlf", "lone-cr",
         "blank", "no-last-end")  # fmt: skip


CORRUPTIONS = {  # a well-formed sidecar whose views are not: each makes the whole sidecar unusable
    "short-view": lambda doc: {**doc, "records": {d: v[:2] for d, v in doc["records"].items()}},
    "reward-string": lambda doc: {**doc, "records": {d: [f, str(r), s] for d, (f, r, s) in doc["records"].items()}},
    "reward-out-of-range": lambda doc: {**doc, "records": {d: [f, 500, s] for d, (f, r, s) in doc["records"].items()}},
    "stale-number": lambda doc: {**doc, "records": {d: [f, r, 1] for d, (f, r, s) in doc["records"].items()}},
    "fingerprint-index": lambda doc: {**doc, "records": {d: [len(doc["fingerprints"]), r, s] for d, (f, r, s) in doc["records"].items()}},
    "versions-triple": lambda doc: {**doc, "versions": [*doc["versions"], "x"]},
    "cells-not-triples": lambda doc: {**doc, "fingerprints": [{**fp, "cells": [[0, 0]]} for fp in doc["fingerprints"]]},
}  # fmt: skip


def _corrupted(sidecar, how: str) -> bytes:
    return io.json_line(CORRUPTIONS[how](json.loads(sidecar))).encode() if sidecar else b"[]"


def _scanned_sidecar(path: Path, memory: bytes):
    """The sidecar ``record``'s scan leaves beside ``memory``, written at ``path``; None if it refuses the memory."""
    path.write_bytes(memory)
    _set_sidecar(path, None)
    with contextlib.suppress(GraftError):
        io.count_memory(path, None, None)  # the versions of the file
    return checked.sidecar(path).read_bytes() if checked.sidecar(path).exists() else None


@st.composite
def edited_memories(draw):
    """(query, n, base, edited, corruption): a memory's bytes before and after
    random edits, and a way to spoil the views of a sidecar."""
    repo, query, n = draw(memories())
    lines = [io.json_line(io._entry_payload(e, repo)).encode() for e in repo.entries]
    base = b"".join(lines)
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "append-valid":
            m = draw(st.sampled_from(METHODS))
            entry = MemoryEntry(query, m, method_path_nodes(S, m), {"wall": 1.5}, draw(st.sampled_from([3, 42.25])))
            lines.append(io.json_line(io._entry_payload(entry, repo)).encode())
        elif edit == "append-invalid":
            lines.append(draw(st.sampled_from([b'{"torn": \n', b"[]\n", b'{"reward": 1}\n'])))
        elif edit == "truncate":
            del lines[at:]
        elif not lines:
            continue
        elif edit == "change-byte":
            line = lines[at]
            i = draw(st.integers(0, len(line) - 1))
            lines[at] = line[:i] + bytes([draw(st.integers(0, 255))]) + line[i + 1 :]
        elif edit == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif edit == "mix-versions":
            lines[at] = _retagged(lines[at], problem_tree_version="other")
        elif edit in ("crlf", "lone-cr"):
            if lines[at].endswith(b"\n") and not lines[at].endswith(b"\r\n"):
                lines[at] = lines[at][:-1] + (b"\r\n" if edit == "crlf" else b"\r")
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from([b"\n", b"  \r\n", b"\r"])))
        elif edit == "no-last-end":
            lines[-1] = lines[-1].rstrip(b"\r\n")
    return query, n, base, b"".join(lines), draw(st.sampled_from(sorted(CORRUPTIONS)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(edited_memories())
def test_a_sidecar_never_changes_what_record_neighbors_and_prior_give(case):
    query, n, base, edited, corruption = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        io.save_fingerprint(query, tmp / "p.fp")
        io.save_substrate(S, tmp / "asub.json")
        io.save_method(METHODS[0], tmp / "m.json")
        path = tmp / "memory.jsonl"
        earlier = _scanned_sidecar(path, base)  # the sidecar of the memory before its edits
        # and of the memory with every record under another problem tree, so that
        # the records that an edit moved there are held, and come mixed with others
        retagged = b"".join(_retagged(line, problem_tree_version="other") for line in base.splitlines(keepends=True))
        foreign = _scanned_sidecar(path, retagged)
        commands = [[*RECORD[:-1], "2.5"], [*NEIGHBORS, "-n", str(n)], [*PRIOR, "--neighbors", str(n)]]
        for argv in map(partial(_within, tmp), commands):
            expected, fresh = _outcome(tmp, argv, edited, None)
            assert expected[4] == edited or (argv[0] == "record" and expected[4].startswith(edited))
            empty = {"fingerprints": [], "format": checked.FORMAT, "records": {}, "rules": checked.rules(), "versions": [E.tree_version, S.tree_version]}
            whole = earlier or io.json_line(empty).encode()
            states = {
                "fresh": fresh,
                "earlier": earlier,
                "foreign": foreign,
                corruption: _corrupted(earlier, corruption),
                "cut-short": whole[: len(whole) // 2],
                "garbage": b"\x00{not json\xff\n",
                "too-deep": b"[" * 100_000,
                "directory": "directory",
                "wrong-format": whole.replace(b"graft-memory-checked/1", b"graft-memory-checked/0"),
                "other-rules": whole.replace(checked.rules().encode(), b"0" * 64),
            }
            for state, sidecar in states.items():
                assert _outcome(tmp, argv, edited, sidecar)[0] == expected, (argv[0], state)
            _set_sidecar(path, None)


def test_a_warm_scan_parses_only_the_lines_its_sidecar_lacks(tmp_path, monkeypatch):
    path = _morning_memory(tmp_path, 4)
    loaded = io.load_memory(path)
    cold = _main(*NEIGHBORS[:1], str(path), "--problem", str(tmp_path / "p.fp"))
    parsed = []
    record = io._record
    monkeypatch.setattr(io, "_record", lambda where, raw: parsed.append(where) or record(where, raw))
    assert _main(*NEIGHBORS[:1], str(path), "--problem", str(tmp_path / "p.fp")) == cold
    assert parsed == []
    with open(path, "ab") as fh:
        fh.write(path.read_bytes().splitlines(keepends=True)[0])  # a record already met, so already checked
        fh.write(b"\n")
    assert _main(*NEIGHBORS[:1], str(path), "--problem", str(tmp_path / "p.fp")) == cold
    assert parsed == [f"{path}:6"]  # the blank line is read, and holds no record
    assert io.count_memory(path, loaded.problem_tree_version, loaded.action_tree_version) == 5
    assert parsed == [f"{path}:6", f"{path}:6"]  # a blank line is never held


def test_the_sidecar_is_one_json_line_record_of_the_lines_scanned(tmp_path):
    path = _morning_memory(tmp_path, 3)
    lines = path.read_bytes().splitlines(keepends=True)
    assert not checked.sidecar(path).exists()
    io.count_memory(path, *io.scan_memory(path, lambda offset, payload: None))
    text = checked.sidecar(path).read_text()
    doc = json.loads(text)
    assert text == io.json_line(doc) and doc["format"] == "graft-memory-checked/1" and doc["rules"] == checked.rules()
    loaded = io.load_memory(path)
    assert doc["versions"] == [loaded.problem_tree_version, loaded.action_tree_version]
    assert sorted(doc["records"]) == sorted(hashlib.sha256(line).hexdigest() for line in lines)
    for line, entry in zip(lines, loaded.entries):
        f, reward, stale = doc["records"][hashlib.sha256(line).hexdigest()]
        assert (reward, stale) == (entry.reward, entry.stale)
        fp = doc["fingerprints"][f]
        assert Fingerprint(frozenset(map(tuple, fp["cells"])), fp["resolution"], fp["tree_tag"], fp["keep"]) == entry.problem_fp


def test_a_sidecar_made_under_other_rules_is_not_used(tmp_path, monkeypatch):
    # a change to what a memory line must satisfy changes the rules digest, so
    # a sidecar of lines checked before it vouches for none of them
    path = _morning_memory(tmp_path, 4)
    argv = [*NEIGHBORS[:1], str(path), "--problem", str(tmp_path / "p.fp")]
    cold = _main(*argv)
    parsed = []
    record = io._record
    monkeypatch.setattr(io, "_record", lambda where, raw: parsed.append(where) or record(where, raw))
    monkeypatch.setattr(checked, "rules", lambda: "0" * 64)
    assert _main(*argv) == cold
    assert parsed == [f"{path}:{i}" for i in range(1, 5)]
    assert json.loads(checked.sidecar(path).read_bytes())["rules"] == "0" * 64
    assert _main(*argv) == cold and len(parsed) == 4


def test_the_rules_digest_follows_the_checking_code(tmp_path):
    source = Path(checked.__file__).parent

    def rules(tree: Path) -> str:
        code = "import graft.checked; print(graft.checked.rules())"
        env = {**os.environ, "PYTHONPATH": str(tree), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout

    trees = {}
    for name in ("same", "io", "memory", "checked"):
        trees[name] = tmp_path / name
        shutil.copytree(source, trees[name] / "graft", ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("io", "memory", "checked"):
        with open(trees[name] / "graft" / f"{name}.py", "a") as fh:
            fh.write("# a changed line\n")
    digests = {name: rules(tree) for name, tree in trees.items()}
    assert digests["same"] == checked.rules() + "\n"
    assert len(set(digests.values())) == 4, digests


@pytest.mark.parametrize("name", ["record", "neighbors", "prior"])
def test_a_scan_that_ends_in_an_error_writes_no_sidecar(name, tmp_path):
    path = _morning_memory(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([*lines, b'{"torn": \n']))
    assert run_cli(*COMMANDS[name], cwd=tmp_path).returncode == 1
    assert not checked.sidecar(path).exists()
    path.write_bytes(b"".join(lines))
    assert io.count_memory(path, *io.scan_memory(path, lambda offset, payload: None)) == 3
    held = checked.sidecar(path).read_bytes()
    path.write_bytes(b"".join([*lines, _retagged(lines[0], reward=500.0)]))
    out = run_cli(*COMMANDS[name], cwd=tmp_path)
    assert_one_error_line(out)
    assert f"{path}:4: reward 500.0 outside" in out.stderr
    assert checked.sidecar(path).read_bytes() == held


@pytest.mark.parametrize("name", ["record", "neighbors", "prior"])
def test_a_sidecar_that_cannot_be_written_changes_nothing(name, tmp_path, monkeypatch):
    path = _morning_memory(tmp_path)
    before = path.read_bytes()
    argv = _within(tmp_path, COMMANDS[name])
    expected, written = _outcome(tmp_path, argv, before, None)
    assert expected[0] == 0 and written is not None
    write_whole = io.write_whole

    def refuse_sidecar(target, text):  # a permission bit would not stop root
        if str(target).endswith(".checked"):
            raise PermissionError(13, "Permission denied", str(target))
        write_whole(target, text)

    monkeypatch.setattr(io, "write_whole", refuse_sidecar)
    assert _outcome(tmp_path, argv, before, None) == (expected, None)
    assert _outcome(tmp_path, argv, before, written) == (expected, written)


def test_load_neighbors_reads_the_winners_from_the_file_it_scanned(tmp_path, monkeypatch):
    import graft.memory

    _, repo = _trial_repository()
    path = tmp_path / "memory.jsonl"
    io.save_memory(repo, path)
    query = repo.entries[2].problem_fp
    expected = rank_neighbors(io.load_memory(path), query, 3)
    other = MemoryRepository(repo.problem_tree_version, repo.action_tree_version)
    for entry in reversed(repo.entries):
        fresh = copy.copy(entry)
        fresh.observables = {"x": 1.0, **entry.observables}
        other.entries.append(fresh)
    check_entry = graft.memory.check_entry

    def replace_then_check(reward, observables):
        if not replaced:
            replaced.append(path)
            io.save_memory(other, path)  # a temporary file moved over the one being scanned
        check_entry(reward, observables)

    for warm in (False, True):  # replaced while its lines are checked, or while its sidecar is read
        replaced = []
        io.save_memory(repo, path)
        _set_sidecar(path, None)
        if warm:
            io.count_memory(path, repo.problem_tree_version, repo.action_tree_version)
        monkeypatch.setattr(graft.memory, "check_entry", replace_then_check)
        got = io.load_neighbors(path, query, 3)
        monkeypatch.undo()
        assert replaced and io.load_memory(path).entries == other.entries
        assert [(e, sim.hex()) for e, sim in got] == [(e, sim.hex()) for e, sim in expected]


def test_library_loads_and_saves_write_no_sidecar(tmp_path):
    path = _morning_memory(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    io.load_memory(path)
    io.scan_memory(path, lambda offset, payload: None)
    io.save_memory(io.load_memory(path), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_the_views_scan_streams_its_file(tmp_path, warm):
    # with or without its sidecar, a scan for views keeps nothing, and its peak
    # does not grow with the bytes of the lines it reads: it holds no line or payload
    _, repo = _trial_repository()
    trial = list(repo.entries)
    peaks, sizes = [], []
    for padding in (0, 150):
        repo.entries = []
        for i in range(200):
            for entry in trial:
                fresh = copy.copy(entry)
                fresh.reward = (i * 7.25) % 100.0
                fresh.observables = {f"o{k:03d}": k * 0.5 for k in range(padding)}
                repo.entries.append(fresh)
        path = tmp_path / f"memory{padding}.jsonl"
        io.save_memory(repo, path)
        io.count_memory(path, repo.problem_tree_version, repo.action_tree_version)  # the encoder's first-call caches
        if not warm:
            checked.sidecar(path).unlink()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            count = io.count_memory(path, repo.problem_tree_version, repo.action_tree_version)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == len(repo.entries) and checked.sidecar(path).exists()
        assert retained - before < 4096, retained - before
        peaks.append(peak - before)
        sizes.append(path.stat().st_size)
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 8, (peaks, sizes)
