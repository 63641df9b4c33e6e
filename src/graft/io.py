"""File formats: substrate, rows, fingerprint, method, memory, and reports.

Every artifact is JSON (memory and loop reports are JSON Lines) with a
format marker and the producing tree version; loading refuses mixed
versions.  Serialization is byte-deterministic: sorted keys, fixed
separators, one trailing newline.  Floats round-trip exactly through the
shortest-repr encoding json uses for binary64.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from .build import Substrate, build_substrate, substrate_content_hash
from .embedding import Embedding, Fingerprint
from .errors import GraftError, VersionMismatchError
from .graph import KnowledgeGraph, graph_from_document, graph_to_document

if TYPE_CHECKING:  # imported by the loaders that need them, so other subcommands skip them
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
    return lambda v: type(v) is list and set(map(type, v)) <= set(types)


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


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def load_object(path: str | Path, marker: str | None = None, fields: tuple[str, ...] = ()) -> dict:
    return _object(path, _parse_json(path, Path(path).read_text()), marker, fields)


# -- graph documents ---------------------------------------------------------


def load_graph(path: str | Path) -> KnowledgeGraph:
    return graph_from_document(load_object(path))


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
    Path(path).write_text(_dump(payload))


def load_substrate(path: str | Path) -> Substrate:
    payload = load_object(path, SUBSTRATE_FORMAT, ("graph", "content_hash"))
    doc = payload["graph"]
    if substrate_content_hash(doc) != payload["content_hash"]:
        raise GraftError(f"{path}: content hash mismatch, file has drifted")
    s = build_substrate(graph_from_document(doc))
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
    Path(path).write_text(_dump(payload))


def load_rows(path: str | Path) -> PolicyRows:
    from .policy import PolicyRows, ProbabilityRow

    payload = _object(path, load_object(path, ROWS_FORMAT, ("rows", "tree_version")), kinds=ROWS_FILE_KINDS)
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
    Path(path).write_text(_dump(fingerprint_payload(fp)))


def _fingerprint_fields(payload: dict) -> tuple:
    """A fingerprint payload's (cells, resolution, tree_tag, keep)."""
    return frozenset(map(tuple, payload["cells"])), payload["resolution"], payload["tree_tag"], payload["keep"]


def fingerprint_from_payload(payload: dict) -> Fingerprint:
    return Fingerprint(*_fingerprint_fields(payload))


def load_fingerprint(path: str | Path) -> Fingerprint:
    payload = load_object(path, FINGERPRINT_FORMAT, FINGERPRINT_FIELDS)
    return fingerprint_from_payload(_object(path, payload, kinds=FINGERPRINT_KINDS))


# -- method tuples -----------------------------------------------------------


def method_payload(m: MethodTuple) -> dict:
    return {"format": METHOD_FORMAT, "picks": {k: v for k, v in m.items}}


def save_method(m: MethodTuple, path: str | Path) -> None:
    Path(path).write_text(_dump(method_payload(m)))


def load_method(path: str | Path) -> MethodTuple:
    from .policy import MethodTuple

    payload = _object(path, load_object(path, METHOD_FORMAT, ("picks",)), kinds={"picks": PICKS})
    return MethodTuple.from_picks(payload["picks"])


def load_method_list(path: str | Path) -> list[MethodTuple]:
    """A JSON array of picks objects (or method payloads), e.g. an avoid set."""
    from .policy import MethodTuple

    payload = _parse_json(path, Path(path).read_text())
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


def _entry_payload(entry: MemoryEntry, repo: MemoryRepository) -> dict:
    problem_fp = fingerprint_payload(entry.problem_fp)
    del problem_fp["format"]  # memory records have never carried the marker
    return {
        "problem_tree_version": repo.problem_tree_version,
        "action_tree_version": repo.action_tree_version,
        "problem_fp": problem_fp,
        "method": {k: v for k, v in entry.method.items},
        "method_path_nodes": sorted(entry.method_path_nodes),
        "observables": dict(sorted(entry.observables.items())),
        "reward": entry.reward,
        "stale": entry.stale,
    }


def _entry_reader() -> Callable[[dict], MemoryEntry]:
    """A function from a memory record to its entry.  Equal problem
    fingerprints resolve to the first one it met, and node names to the
    first equal string, so the entries of one load share them; method
    pairs are shared through ``MethodTuple.from_picks``."""
    from .memory import MemoryEntry
    from .policy import MethodTuple

    fingerprints: dict[tuple, Fingerprint] = {}  # (cells, resolution, tree_tag, keep) -> one object
    share = {}.setdefault  # node name -> the first equal string

    def read(payload: dict) -> MemoryEntry:
        key = _fingerprint_fields(payload["problem_fp"])
        problem_fp = fingerprints.get(key)
        if problem_fp is None:
            problem_fp = fingerprints[key] = Fingerprint(*key)
        nodes = payload["method_path_nodes"]
        return MemoryEntry(
            problem_fp=problem_fp,
            method=MethodTuple.from_picks(payload["method"]),
            method_path_nodes=frozenset(map(share, nodes, nodes)),
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
    """Write beside the target, then move over it: a write cut short leaves the old file whole."""
    lines = [json.dumps(_entry_payload(e, repo), sort_keys=True, separators=(",", ":")) for e in repo.entries]
    temporary = Path(f"{path}.{os.getpid()}.tmp")  # in the target's directory, so os.replace is atomic
    try:
        temporary.write_text("".join(line + "\n" for line in lines))
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def append_memory(repo: MemoryRepository, entry: MemoryEntry, path: str | Path) -> None:
    line = json.dumps(_entry_payload(entry, repo), sort_keys=True, separators=(",", ":"))
    with open(path, "a") as fh:
        fh.write(line + "\n")


def load_memory(
    path: str | Path,
    problem_tree_version: str | None = None,
    action_tree_version: str | None = None,
) -> MemoryRepository:
    """Read a JSONL memory file; every record must agree on tree versions.

    An empty or missing file yields an empty repository with the supplied
    versions (both must then be given).
    """
    from .memory import MemoryRepository

    p = Path(path)
    entries = []
    versions: tuple[str, str] | None = None
    if p.exists():
        text, read = p.read_text(), _entry_reader()
        collecting = gc.isenabled()
        # the parse allocates many containers and frees no cycles, so
        # collections would only rescan them
        gc.disable()
        try:
            for i, line in enumerate(text.splitlines()):
                if not line.strip():
                    continue
                where = f"{path}:{i + 1}"
                payload = _object(where, _parse_json(where, line), fields=MEMORY_FIELDS, kinds=MEMORY_KINDS)
                fp_where = f"{where}: problem_fp"
                _object(fp_where, payload["problem_fp"], fields=FINGERPRINT_FIELDS, kinds=FINGERPRINT_KINDS)
                record_versions = (payload["problem_tree_version"], payload["action_tree_version"])
                if versions is None:
                    versions = record_versions
                elif versions != record_versions:
                    raise VersionMismatchError(f"{path}:{i + 1}: mixed tree versions in one memory file")
                try:
                    entries.append(read(payload))
                except ValueError as exc:  # MemoryEntry's reward and observable checks
                    raise GraftError(f"{where}: {exc}") from None
        finally:
            if collecting:
                gc.enable()
    if versions is None:
        if problem_tree_version is None or action_tree_version is None:
            raise GraftError(f"{path}: empty memory needs explicit tree versions")
        versions = (problem_tree_version, action_tree_version)
    if problem_tree_version is not None and versions[0] != problem_tree_version:
        raise VersionMismatchError(
            f"{path}: memory problem tree {versions[0]} does not match {problem_tree_version}"
        )
    if action_tree_version is not None and versions[1] != action_tree_version:
        raise VersionMismatchError(
            f"{path}: memory action tree {versions[1]} does not match {action_tree_version}"
        )
    return MemoryRepository(
        problem_tree_version=versions[0],
        action_tree_version=versions[1],
        entries=entries,
    )


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
    Path(path).write_text(_dump(payload))


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

