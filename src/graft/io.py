"""File formats: substrate, rows, fingerprint, method, memory, and reports.

Every artifact is JSON (memory and loop reports are JSON Lines) with a
format marker and the producing tree version; loading refuses mixed
versions.  Serialization is byte-deterministic: sorted keys, fixed
separators, one trailing newline.  Floats round-trip exactly through the
shortest-repr encoding json uses for binary64.  Whole files are written
through ``write_whole``; memory records are appended.  Every memory
command reads its file through one scan that checks each record in order;
only ``load_memory`` builds an entry for each.  The scans of ``record``,
``neighbors`` and ``prior`` skip the lines the memory file's sidecar holds
(``graft.checked``).
"""

from __future__ import annotations

import gc
import json
import os
from io import BytesIO
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from .build import Substrate, build_substrate, substrate_content_hash
from .embedding import Embedding, Fingerprint
from .errors import EmptyMemoryError, GraftError, GraphFormatError, VersionMismatchError
from .graph import KnowledgeGraph, graph_from_document, graph_to_document, indented_json

if TYPE_CHECKING:  # imported by the loaders that need them, so other subcommands skip them
    from .checked import View
    from .memory import MemoryEntry, MemoryRepository
    from .policy import MethodTuple, PolicyRows

SUBSTRATE_FORMAT = "graft-substrate/1"
ROWS_FORMAT = "graft-rows/1"
FINGERPRINT_FORMAT = "graft-fingerprint/1"
METHOD_FORMAT = "graft-method/1"
EMBEDDING_FORMAT = "graft-embedding/1"
FINGERPRINT_FIELDS = ("cells", "resolution", "tree_tag", "keep")
MEMORY_FIELDS = (  # every field of a memory record but the optional "stale"
    "problem_tree_version", "action_tree_version", "problem_fp", "method", "method_path_nodes", "observables", "reward"
)

# A kind is a test on a JSON value and the words an error uses for it.
Kind = tuple[Callable[[object], bool], str]


def _is(*types: type) -> Callable[[object], bool]:
    # exact types, so that a JSON true is not taken for the number 1
    return lambda v: type(v) in types


def _list_of(*types: type) -> Callable[[object], bool]:
    allowed = set(types)
    return lambda v: type(v) is list and set(map(type, v)) <= allowed


def _is_cells(v) -> bool:
    return (
        type(v) is list
        and set(map(type, v)) <= {list}
        and set(map(len, v)) <= {3}
        and set(map(type, chain.from_iterable(v))) <= {int}
    )


STRING: Kind = (_is(str), "a string")
NUMBER: Kind = (_is(int, float), "a number")
OBJECT: Kind = (_is(dict), "an object")
STRINGS: Kind = (_list_of(str), "a list of strings")
PICKS: Kind = (
    lambda v: type(v) is dict and set(map(type, v.values())) <= {str, type(None)},
    "an object of strings or nulls",
)
FINGERPRINT_KINDS: dict[str, Kind] = {
    "cells": (_is_cells, "a list of [x, y, depth] integer triples"),
    "resolution": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    "tree_tag": STRING,
    "keep": STRING,
}
MEMORY_KINDS: dict[str, Kind] = {
    "reward": NUMBER,
    "method": PICKS,
    "method_path_nodes": STRINGS,
    "observables": OBJECT,
    "stale": (_is(bool), "true or false"),
}
ROWS_FILE_KINDS: dict[str, Kind] = {"rows": OBJECT, "tree_version": STRING}
ROW_KINDS: dict[str, Kind] = {"options": STRINGS, "mass": (_list_of(int, float), "a list of numbers")}


def json_line(payload) -> str:
    """One JSON Lines record: sorted keys, no spaces, one line end."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_whole(path: str | Path, text: str) -> None:
    """Write beside the target, then move over it: a write cut short leaves
    the old file whole.  A failed write names the target."""
    temporary = Path(f"{path}.{os.getpid()}.tmp")  # in the target's directory, so os.replace is atomic
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(Path(path))) from None
    finally:
        temporary.unlink(missing_ok=True)


def _decoded(where: str | Path, raw: bytes) -> str:
    """``raw`` decoded as UTF-8, whatever the locale's encoding."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraftError(f"{where}: not UTF-8 ({exc})") from None


def _read_text(path: str | Path) -> str:
    """The file at ``path`` read as UTF-8; its line ends are kept."""
    return _decoded(path, Path(path).read_bytes())


def _parse_json(where: str | Path, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraftError(f"{where}: malformed JSON ({exc})") from exc


def _object(
    where: str | Path,
    payload,
    marker: str | None = None,
    fields: tuple[str, ...] = (),
    kinds: Mapping[str, Kind] = {},
) -> dict:
    """``payload`` checked to be a JSON object carrying ``marker`` as its
    format when given, every one of ``fields``, and a value of its kind for
    each key of ``kinds`` it holds; errors name ``where``."""
    if not isinstance(payload, dict):
        raise GraftError(f"{where}: expected a JSON object, found {type(payload).__name__}")
    if marker is not None and payload.get("format") != marker:
        raise GraftError(f"{where}: expected a {marker} file, found {payload.get('format')!r}")
    for key in fields:
        if key not in payload:
            raise GraftError(f"{where}: missing field {key!r}")
    for key, (ok, what) in kinds.items():
        if key in payload and not ok(payload[key]):
            raise GraftError(f"{where}: field {key!r} must be {what}")
    return payload


def load_object(
    path: str | Path, marker: str | None = None, fields: tuple[str, ...] = (), kinds: Mapping[str, Kind] = {}
) -> dict:
    return _object(path, _parse_json(path, _read_text(path)), marker, fields, kinds)


# -- graph documents ---------------------------------------------------------


def _graph(path: str | Path, doc) -> KnowledgeGraph:
    """``graph_from_document(doc)``, its format errors naming ``path``."""
    try:
        return graph_from_document(doc)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def load_graph(path: str | Path) -> KnowledgeGraph:
    return _graph(path, load_object(path))


# -- substrate ---------------------------------------------------------------


def save_substrate(s: Substrate, path: str | Path) -> None:
    """The graph document and its hashes; everything else is rebuilt on load."""
    doc = graph_to_document(s.graph)
    payload = {
        "format": SUBSTRATE_FORMAT,
        "graph": doc,
        "content_hash": substrate_content_hash(doc),
        "tree_version": s.tree_version,
    }
    write_whole(path, indented_json(payload))


def load_substrate(path: str | Path) -> Substrate:
    payload = load_object(path, SUBSTRATE_FORMAT, ("graph", "content_hash"))
    doc = payload["graph"]
    if substrate_content_hash(doc) != payload["content_hash"]:
        raise GraftError(f"{path}: content hash mismatch, file has drifted")
    s = build_substrate(_graph(path, doc))
    if s.tree_version != payload.get("tree_version"):
        raise GraftError(f"{path}: recorded tree version does not match the rebuilt tree")
    return s


# -- policy rows -------------------------------------------------------------


def save_rows(rows: PolicyRows, path: str | Path) -> None:
    payload = {
        "format": ROWS_FORMAT,
        "tree_version": rows.tree_version,
        "rows": {
            node: {"options": list(r.options), "mass": list(r.mass)}
            for node, r in sorted(rows.rows.items())
        },
    }
    write_whole(path, indented_json(payload))


def load_rows(path: str | Path) -> PolicyRows:
    from .policy import PolicyRows, ProbabilityRow

    payload = load_object(path, ROWS_FORMAT, ("rows", "tree_version"), ROWS_FILE_KINDS)
    rows = {}
    for node, r in payload["rows"].items():
        _object(f"{path}: row {node!r}", r, fields=("options", "mass"), kinds=ROW_KINDS)
        try:
            rows[node] = ProbabilityRow(options=tuple(r["options"]), mass=tuple(r["mass"]))
        except ValueError as exc:  # the row's own checks: lengths, each mass in [0, 1], sum 1
            raise GraftError(f"{path}: row {node!r}: {exc}") from None
    return PolicyRows(rows=rows, tree_version=payload["tree_version"])


# -- fingerprints ------------------------------------------------------------


def fingerprint_payload(fp: Fingerprint) -> dict:
    return {
        "format": FINGERPRINT_FORMAT,
        "tree_tag": fp.tree_tag,
        "resolution": fp.resolution,
        "keep": fp.keep,
        "cells": sorted(list(c) for c in fp.cells),
    }


def save_fingerprint(fp: Fingerprint, path: str | Path) -> None:
    write_whole(path, indented_json(fingerprint_payload(fp)))


def _fingerprint_fields(payload: dict) -> tuple:
    """A fingerprint payload's (cells, resolution, tree_tag, keep)."""
    return frozenset(map(tuple, payload["cells"])), payload["resolution"], payload["tree_tag"], payload["keep"]


def load_fingerprint(path: str | Path) -> Fingerprint:
    payload = load_object(path, FINGERPRINT_FORMAT, FINGERPRINT_FIELDS, FINGERPRINT_KINDS)
    return Fingerprint(*_fingerprint_fields(payload))


# -- method tuples -----------------------------------------------------------


def method_payload(m: MethodTuple) -> dict:
    return {"format": METHOD_FORMAT, "picks": m.picks}


def save_method(m: MethodTuple, path: str | Path) -> None:
    write_whole(path, indented_json(method_payload(m)))


def load_method(path: str | Path) -> MethodTuple:
    from .policy import MethodTuple

    return MethodTuple.from_picks(load_object(path, METHOD_FORMAT, ("picks",), {"picks": PICKS})["picks"])


def load_method_list(path: str | Path) -> list[MethodTuple]:
    """A JSON array of picks objects (or method payloads), e.g. an avoid set."""
    from .policy import MethodTuple

    payload = _parse_json(path, _read_text(path))
    if not isinstance(payload, list):
        raise GraftError(f"{path}: expected a JSON array of method records")
    out = []
    for item in payload:
        picks = item.get("picks", item) if isinstance(item, dict) else None
        if not PICKS[0](picks):
            raise GraftError(f"{path}: bad method record {item!r}")
        out.append(MethodTuple.from_picks(picks))
    return out


# -- memory (JSON Lines, append-friendly) -------------------------------------


def _problem_fp_payload(fp: Fingerprint) -> dict:
    payload = fingerprint_payload(fp)
    del payload["format"]  # memory records have never carried the marker
    return payload


def _entry_payload(entry: MemoryEntry, repo: MemoryRepository) -> dict:
    return {
        "problem_tree_version": repo.problem_tree_version,
        "action_tree_version": repo.action_tree_version,
        "problem_fp": _problem_fp_payload(entry.problem_fp),
        "method": entry.method.picks,
        "method_path_nodes": sorted(entry.method_path_nodes),
        "observables": dict(sorted(entry.observables.items())),
        "reward": entry.reward,
        "stale": entry.stale,
    }


def _fingerprint_reader() -> Callable[[dict], Fingerprint]:
    """A function from a record's ``problem_fp`` to its fingerprint; equal
    fingerprints resolve to the first one it met, so its results share them."""
    fingerprints: dict[tuple, Fingerprint] = {}  # (cells, resolution, tree_tag, keep) -> one object

    def read(payload: dict) -> Fingerprint:
        key = _fingerprint_fields(payload)
        fp = fingerprints.get(key)
        if fp is None:
            fp = fingerprints[key] = Fingerprint(*key)
        return fp

    return read


def _entry_reader() -> Callable[[dict], MemoryEntry]:
    """A function from a memory record to its entry.  The entries it makes
    share equal problem fingerprints, and node names through the first equal
    string; method pairs are shared through ``MethodTuple.from_picks``."""
    from .memory import MemoryEntry
    from .policy import MethodTuple

    fingerprint = _fingerprint_reader()
    share = {}.setdefault  # node name -> the first equal string

    def read(payload: dict) -> MemoryEntry:
        nodes = payload["method_path_nodes"]
        return MemoryEntry(
            problem_fp=fingerprint(payload["problem_fp"]),
            method=MethodTuple.from_picks(payload["method"]),
            method_path_nodes=map(share, nodes, nodes),  # MemoryEntry sorts the shared names into a tuple
            observables=dict(payload["observables"]),
            reward=payload["reward"],
            stale=payload.get("stale", False),
        )

    return read


def load_observables(path: str | Path) -> dict[str, float]:
    """An observables file: one JSON object whose values are numbers."""
    from .memory import check_observables

    payload = load_object(path)
    try:
        check_observables(payload)
    except ValueError as exc:
        raise GraftError(f"{path}: {exc}") from None
    return payload


def save_memory(repo: MemoryRepository, path: str | Path) -> None:
    write_whole(path, "".join(json_line(_entry_payload(e, repo)) for e in repo.entries))


def append_memory(repo: MemoryRepository, entry: MemoryEntry, path: str | Path) -> None:
    """Append one record; a file whose last record has no line end is refused, as
    the new record would be glued to it."""
    line = json_line(_entry_payload(entry, repo))
    with open(path, "a+b") as fh:  # writes go to the end, wherever the file was read
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise GraftError(f"{path}: last record has no line end")
        fh.write(line.encode())


def _lines(fh) -> Iterator[tuple[int, bytes]]:
    """(byte offset, line) for each line of a file opened in binary, split where
    text mode splits, at \\n, \\r\\n and a lone \\r; a line keeps its line end."""
    offset = 0
    for raw in fh:
        for piece in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
            yield offset, piece
            offset += len(piece)


def _record(where: str, raw: bytes) -> dict | None:
    """A memory line's record, checked on its own; None for a blank line."""
    line = _decoded(where, raw)
    if not line.strip():
        return None
    try:  # the line end is trailing whitespace to the parser
        payload = json.loads(line)
    except json.JSONDecodeError:  # an error's position as on the line without its end
        payload = _parse_json(where, line.rstrip("\r\n"))
    payload = _object(where, payload, fields=MEMORY_FIELDS, kinds=MEMORY_KINDS)
    _object(f"{where}: problem_fp", payload["problem_fp"], fields=FINGERPRINT_FIELDS, kinds=FINGERPRINT_KINDS)
    return payload


def _open_memory(path: str | Path):
    """``path`` opened for a scan; a missing file reads as empty."""
    # line by line: a whole text and its list of long line strings would be
    # held through the parse and fragment the heap; with 8 KiB reads,
    # splitting took twice as long
    return open(path, "rb", buffering=1 << 16) if Path(path).exists() else BytesIO()


def _scan(
    path: str | Path,
    fh,
    keep: Callable[[int, object], object],
    problem_tree_version: str | None,
    action_tree_version: str | None,
    views: bool = False,
) -> tuple[str, str]:
    """``scan_memory`` over ``fh``, the file at ``path`` opened in binary.
    With ``views``, ``keep`` gets each record's ``checked.View``: a line the
    sidecar holds is not parsed again and has the sidecar's tree versions,
    and a scan that checked a line anew and ended without error rewrites
    the sidecar."""
    from .memory import check_entry

    versions: tuple[str, str] | None = None
    collecting = gc.isenabled()
    # the parse allocates many containers and frees no cycles, so
    # collections would only rescan them
    gc.disable()
    try:
        if views:
            from .checked import Checked

            checked = Checked(path, _fingerprint_reader())
        for i, (offset, raw) in enumerate(_lines(fh), 1):
            view = checked.view(raw, offset) if views else None
            if view is None:
                payload = _record(f"{path}:{i}", raw)
                if payload is None:
                    continue
            pair = checked.versions if view else (payload["problem_tree_version"], payload["action_tree_version"])
            if versions is None:
                versions = pair
            elif versions != pair:
                raise VersionMismatchError(f"{path}:{i}: mixed tree versions in one memory file")
            try:
                if view is None:
                    check_entry(payload["reward"], payload["observables"])
                    if views:
                        view = checked.check(payload, offset)
                keep(offset, view if views else payload)
            except ValueError as exc:
                raise GraftError(f"{path}:{i}: {exc}") from None
        if versions is None:
            if problem_tree_version is None or action_tree_version is None:
                raise EmptyMemoryError(f"{path}: empty memory needs explicit tree versions")
            versions = (problem_tree_version, action_tree_version)
        if problem_tree_version is not None and versions[0] != problem_tree_version:
            raise VersionMismatchError(
                f"{path}: memory problem tree {versions[0]} does not match {problem_tree_version}"
            )
        if action_tree_version is not None and versions[1] != action_tree_version:
            raise VersionMismatchError(
                f"{path}: memory action tree {versions[1]} does not match {action_tree_version}"
            )
        if views:
            checked.save(versions)
    finally:
        if collecting:
            gc.enable()
    return versions


def scan_memory(
    path: str | Path,
    keep: Callable[[int, dict], object],
    problem_tree_version: str | None = None,
    action_tree_version: str | None = None,
) -> tuple[str, str]:
    """Check every record of a JSONL memory file, in file order, and pass each
    to ``keep`` with the byte offset of its line; return the tree versions.

    Every record must agree on tree versions and pass ``check_entry``; an
    error of that check or a ValueError of ``keep`` names the record's line.
    An empty or missing file has the supplied versions (both must then be
    given); a version supplied must match the file's.
    """
    with _open_memory(path) as fh:
        return _scan(path, fh, keep, problem_tree_version, action_tree_version)


def load_memory(
    path: str | Path,
    problem_tree_version: str | None = None,
    action_tree_version: str | None = None,
) -> MemoryRepository:
    """Read a JSONL memory file, an entry per record, through ``scan_memory``."""
    from .memory import MemoryRepository

    entries: list[MemoryEntry] = []
    read = _entry_reader()
    versions = scan_memory(
        path, lambda _, payload: entries.append(read(payload)), problem_tree_version, action_tree_version
    )
    return MemoryRepository(*versions, entries=entries)


def count_memory(path: str | Path, problem_tree_version: str, action_tree_version: str) -> int:
    """The number of records ``load_memory`` would load, building none."""
    records: list[None] = []
    with _open_memory(path) as fh:
        _scan(path, fh, lambda _, __: records.append(None), problem_tree_version, action_tree_version, views=True)
    return len(records)


def load_neighbors(
    path: str | Path,
    p_new: Fingerprint,
    n: int,
    problem_tree_version: str | None = None,
    action_tree_version: str | None = None,
) -> list[tuple[MemoryEntry, float]]:
    """``rank_neighbors(load_memory(path, ...), p_new, n)``, its errors included,
    building only the entries it returns: the scan keeps of each record what
    ranking reads, and the winners' lines are read again through the handle
    scanned, so a file replaced in between is not the one read."""
    from .memory import MemoryRepository, rank_neighbors

    kept: list[View] = []
    read, built = _entry_reader(), []
    with _open_memory(path) as fh:
        versions = _scan(path, fh, lambda _, v: kept.append(v), problem_tree_version, action_tree_version, views=True)
        for record, similarity in rank_neighbors(MemoryRepository(*versions, entries=kept), p_new, n):
            fh.seek(record.offset)
            _, line = next(_lines(fh))
            built.append((read(json.loads(line.decode("utf-8"))), similarity))
    return built


# -- embeddings ---------------------------------------------------------------


def save_embedding(e: Embedding, path: str | Path) -> None:
    payload = {
        "format": EMBEDDING_FORMAT,
        "tree_version": e.tree_version,
        "max_depth": e.max_depth,
        "position": {n: list(p) for n, p in sorted(e.position.items())},
        "depth": dict(sorted(e.depth.items())),
        "rect": {n: list(r) for n, r in sorted(e.rect.items())},
        "entered_by": dict(sorted(e.entered_by.items())),
    }
    write_whole(path, indented_json(payload))


def load_embedding(path: str | Path) -> Embedding:
    fields = ("position", "depth", "max_depth", "rect", "entered_by", "tree_version")
    payload = load_object(path, EMBEDDING_FORMAT, fields)
    return Embedding(
        position={n: tuple(p) for n, p in payload["position"].items()},
        depth=dict(payload["depth"]),
        max_depth=payload["max_depth"],
        rect={n: tuple(r) for n, r in payload["rect"].items()},
        entered_by=dict(payload["entered_by"]),
        tree_version=payload["tree_version"],
    )

