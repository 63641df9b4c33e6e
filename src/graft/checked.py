"""The checked sidecar of a memory file, ``<memory>.checked``.

The scans of ``record``, ``neighbors`` and ``prior`` keep beside the memory
file what they checked of each of its records: one ``io.json_line`` record
that maps the hex SHA-256 of each line's bytes, line end included, to what
ranking and counting read of it (a ``View``).  A line whose digest the
sidecar holds is not decoded or parsed again.  ``load_memory``, and so
``loop``, ``landscape`` and the library, never reads or writes it.

The sidecar names the rules its lines were checked under: a digest of the
sources of the modules that decide whether a line is accepted and what its
view holds (``io``, ``memory`` and this one), and of the Python whose json
parsed it.  A sidecar made under other rules, like one that is missing,
unreadable, malformed or of another format, is taken as empty, so a change
to what a memory line must satisfy needs no marker bump to take effect.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from functools import cache
from hashlib import sha256
from pathlib import Path
from typing import Callable

from . import io, memory
from .embedding import Fingerprint
from .errors import GraftError

FORMAT = "graft-memory-checked/1"  # the layout below; the checks are covered by "rules"
FIELDS = ("fingerprints", "records", "rules", "versions")
KINDS: dict[str, io.Kind] = {
    "fingerprints": (io._list_of(dict), "a list of objects"),
    "records": io.OBJECT,
    "rules": io.STRING,
    "versions": (io._list_of(list), "a list of lists"),
}

# what ranking and counting read of a checked record: its problem fingerprint,
# its reward, its stale flag and its (problem, action) tree versions
View = namedtuple("View", "problem_fp reward stale versions")


def sidecar(path: str | Path) -> Path:
    """The sidecar of the memory file at ``path``."""
    return Path(f"{path}.checked")


@cache
def rules() -> str:
    """The hex SHA-256 of the Python version and of the sources of ``io``,
    ``memory`` and this module."""
    digest = sha256(sys.version.encode())
    for module in (io, memory, sys.modules[__name__]):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()


def _read(path: Path, rules: str, fingerprint: Callable[[dict], Fingerprint]) -> dict[str, View]:
    """The views the sidecar at ``path`` holds, by the hex SHA-256 of their
    lines; none when it is missing, unreadable, malformed, of another format
    or made under other rules."""
    try:
        doc = io._object(path, json.loads(path.read_bytes()), FORMAT, FIELDS, KINDS)
        if doc["rules"] != rules:
            return {}
        fps = [
            fingerprint(io._object(path, p, fields=io.FINGERPRINT_FIELDS, kinds=io.FINGERPRINT_KINDS))
            for p in doc["fingerprints"]
        ]
        versions = [tuple(pair) for pair in doc["versions"]]
        if not all(len(pair) == 2 and set(map(type, pair)) <= {str} for pair in versions):
            return {}
        views = doc["records"]
        for digest, (f, reward, stale, v) in views.items():
            if not (type(f) is type(v) is int and 0 <= f < len(fps) and 0 <= v < len(versions)):
                return {}
            if type(stale) is not bool or not io.NUMBER[0](reward):
                return {}
            memory.check_entry(reward, {})
            views[digest] = View(fps[f], reward, stale, versions[v])
        return views
    except (OSError, ValueError, TypeError, RecursionError, GraftError):
        return {}


class Checked:
    """The sidecar of the memory file at ``path`` through one scan of it: the
    views it holds, and the view of each line the scan met."""

    def __init__(self, path: str | Path, fingerprint: Callable[[dict], Fingerprint]):
        self.path = sidecar(path)
        self.fingerprint = fingerprint  # shared by the sidecar's views and the lines checked anew
        try:
            self.rules = rules()
        except (OSError, TypeError):  # no source to take the digest of: hold nothing, write nothing
            self.rules = None
        self.held = _read(self.path, self.rules, fingerprint) if self.rules else {}
        self.seen: dict[str, View] = {}  # each line's digest and view, in file order
        self.digest = ""  # of the line last looked up
        self.checked = 0  # the lines the sidecar did not hold

    def view(self, raw: bytes) -> View | None:
        """The view the sidecar holds of the line ``raw``, or None."""
        self.digest = sha256(raw).hexdigest()
        view = self.held.get(self.digest)
        if view is not None:
            self.seen[self.digest] = view
        return view

    def check(self, payload: dict, versions: tuple[str, str]) -> View:
        """The view of the record ``payload`` of the line last looked up, which
        the scan has checked anew."""
        self.checked += 1
        view = View(self.fingerprint(payload["problem_fp"]), payload["reward"], payload.get("stale", False), versions)
        self.seen[self.digest] = view
        return view

    def save(self) -> None:
        """Replace the sidecar with the views of the lines met, if the scan
        checked one anew; a sidecar that cannot be written is left as it was."""
        if not self.checked or self.rules is None:
            return
        fps: dict[Fingerprint, int] = {}
        versions: dict[tuple[str, str], int] = {}
        records = {
            digest: [fps.setdefault(view.problem_fp, len(fps)), view.reward, view.stale,
                     versions.setdefault(view.versions, len(versions))]
            for digest, view in self.seen.items()
        }  # fmt: skip
        # the bytes json_line gives the whole record, with the fingerprint table
        # (its key sorts first) encoded a payload at a time: encoded in one call,
        # its cells took 2.5 MB of small strings for 110 KB of text at 2,000 entries
        table = ",".join(io.json_line(io._problem_fp_payload(fp))[:-1] for fp in fps)
        rest = io.json_line({"format": FORMAT, "records": records, "rules": self.rules, "versions": list(versions)})
        try:
            io.write_whole(self.path, f'{{"fingerprints":[{table}],{rest[1:]}')
        except OSError:
            pass  # the next scan finds it missing or as it was, and checks every line it does not hold
