"""Partition-of-unity layout, grid fingerprints, and the similarity metric.

The layout places every tree node at the centroid of a recursively
subdivided rectangle: s-children split their parent's rectangle along x,
c-children along y, children taken in lexicographic name order.  Odd-size
groups open one extra slot and drop the middle one, so no child centroid
ever lands on its parent's midpoint; this is what makes the planar
projection injective.  Binning the unit square at resolution K (with the
depth as third coordinate) turns a node set into a fingerprint, compared by
normalised Jaccard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import FingerprintError, ResolutionSearchError
from .reduction import FactoredTree

if TYPE_CHECKING:
    import numpy as np

K_MAX = 4096
VISUALIZATION_K = 32

KEEP_S_ONLY = "s"
KEEP_ALL = "all"


@dataclass(frozen=True)
class Embedding:
    position: dict[str, tuple[float, float, float]]
    depth: dict[str, int]
    max_depth: int
    rect: dict[str, tuple[float, float, float, float]]  # x0, x1, y0, y1
    entered_by: dict[str, str]  # edge type into each non-root node ("c" | "s")
    tree_version: str


@dataclass(frozen=True)
class Fingerprint:
    cells: frozenset[tuple[int, int, int]]
    resolution: int
    tree_tag: str
    keep: str


def layout(tree: FactoredTree) -> Embedding:
    """Nested subdivision with parent-midpoint exclusion."""
    rect: dict[str, tuple[float, float, float, float]] = {}
    depth: dict[str, int] = {}
    stack = [(tree.root, 0.0, 1.0, 0.0, 1.0, 0)]
    while stack:  # preorder, children in name order
        node, x0, x1, y0, y1, d = stack.pop()
        rect[node] = (x0, x1, y0, y1)
        depth[node] = d
        groups: dict[str, list[str]] = {}
        for child in tree.children.get(node, ()):  # already lexicographically sorted
            groups.setdefault(tree.edge_type[child].value, []).append(child)
        placed = []
        for kind, members in groups.items():
            n = len(members)
            if n % 2 == 0:
                q, slots = n, list(range(n))
            else:
                q = n + 1  # open one extra slot, drop the middle
                slots = [i for i in range(q) if i != q // 2]
            if kind == "c":
                h = (y1 - y0) / q
                for i, child in zip(slots, members):
                    placed.append((child, x0, x1, y0 + i * h, y0 + (i + 1) * h, d + 1))
            else:
                w = (x1 - x0) / q
                for i, child in zip(slots, members):
                    placed.append((child, x0 + i * w, x0 + (i + 1) * w, y0, y1, d + 1))
        stack.extend(reversed(placed))

    max_depth = max(depth.values())
    position = {}
    for node, (x0, x1, y0, y1) in rect.items():
        z = depth[node] / max_depth if max_depth > 0 else 0.0
        position[node] = ((x0 + x1) / 2.0, (y0 + y1) / 2.0, z)

    entered_by = {n: t.value for n, t in tree.edge_type.items()}
    return Embedding(
        position=position,
        depth=depth,
        max_depth=max_depth,
        rect=rect,
        entered_by=entered_by,
        tree_version=tree.version_hash(),
    )


def bin_cell(e: Embedding, node: str, resolution: int) -> tuple[int, int, int]:
    """Boundary-clamped bin of one node at the given resolution."""
    x, y, _ = e.position[node]
    return (
        min(resolution - 1, int(resolution * x)),
        min(resolution - 1, int(resolution * y)),
        e.depth[node],
    )


def bin_cells(e: Embedding, resolution: int) -> dict[str, tuple[int, int, int]]:
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    return {n: bin_cell(e, n, resolution) for n in e.position}


def min_injective_k(e: Embedding, cap: int = K_MAX) -> int:
    """Smallest resolution at which binning separates every node; hard cap.

    Resolutions are tried in order.  A pair of nodes seen to share a cell
    at an earlier resolution is tried first, most recent first, and
    rejects a resolution it still collides at without binning the rest.
    """
    witnesses: list[tuple[str, str]] = []
    for k in range(1, cap + 1):
        for i, (a, b) in enumerate(witnesses):
            if bin_cell(e, a, k) == bin_cell(e, b, k):
                witnesses.insert(0, witnesses.pop(i))
                break
        else:
            seen: dict[tuple[int, int, int], str] = {}
            for node in e.position:
                other = seen.setdefault(bin_cell(e, node, k), node)
                if other != node:
                    witnesses.insert(0, (other, node))
                    break
            else:
                return k
    raise ResolutionSearchError(f"no K <= {cap} separates all nodes")


def fingerprint(
    e: Embedding, path_nodes: Iterable[str], resolution: int, keep: str = KEEP_S_ONLY
) -> Fingerprint:
    """Cell set of the kept nodes of a path at the given resolution.

    ``keep`` is either "s" (nodes entered by an s-edge, the default
    discriminative measure) or "all".
    """
    if keep not in (KEEP_S_ONLY, KEEP_ALL):
        raise ValueError(f"unknown keep policy {keep!r}")
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    nodes = list(path_nodes)
    unknown = [n for n in nodes if n not in e.position]
    if unknown:
        raise FingerprintError(f"nodes not in embedding: {sorted(unknown)}")
    if keep == KEEP_S_ONLY:
        nodes = [n for n in nodes if e.entered_by.get(n) == "s"]
    if not nodes:
        raise FingerprintError("no kept nodes; fingerprints must be non-empty")
    cells = frozenset(bin_cell(e, n, resolution) for n in nodes)
    return Fingerprint(cells=cells, resolution=resolution, tree_tag=e.tree_version, keep=keep)


def jaccard(a: Fingerprint, b: Fingerprint) -> float:
    """Normalised Jaccard similarity |a & b| / |a | b| of two fingerprints."""
    if a.tree_tag != b.tree_tag:
        raise FingerprintError("fingerprints from different trees are not comparable")
    if a.resolution != b.resolution:
        raise FingerprintError(f"resolution mismatch: {a.resolution} vs {b.resolution}")
    if not a.cells or not b.cells:
        raise FingerprintError("fingerprints must be non-empty")
    inter = len(a.cells & b.cells)
    union = len(a.cells | b.cells)
    return inter / union


def invert_cells(e: Embedding, resolution: int) -> dict[tuple[int, int, int], str]:
    """cell -> node map at a resolution where binning is injective."""
    table: dict[tuple[int, int, int], str] = {}
    for node in sorted(e.position):
        cell = bin_cell(e, node, resolution)
        if cell in table:
            raise FingerprintError(f"binning not injective at K={resolution} (cell {cell})")
        table[cell] = node
    return table


def first_principal_coordinates(vectors: np.ndarray) -> tuple[np.ndarray, bool]:
    """Project rows onto their first principal component by power iteration.

    Fixed scheme: mean-centering, all-ones start, tolerance 1e-9, at most
    200 iterations, sign chosen so the largest-magnitude loading is
    positive.  Returns (coordinates, degenerate_flag); a degenerate input
    (no variance) yields all-zero coordinates with the flag set.
    """
    import numpy as np

    centered = vectors - vectors.mean(axis=0, keepdims=True)
    p = centered.shape[1]
    v = np.ones(p) / np.sqrt(p)
    for _ in range(200):
        w = centered.T @ (centered @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return np.zeros(centered.shape[0]), True
        w = w / norm
        if np.linalg.norm(w - v) < 1e-9:
            v = w
            break
        v = w
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return centered @ v, False


@dataclass(frozen=True)
class LandscapeTable:
    rows: tuple[tuple[float, float, float], ...]  # (x problem, y method, observable)
    observable: str
    degenerate_problem_axis: bool
    degenerate_method_axis: bool


def _indicator_matrix(cell_sets: list[frozenset[tuple[int, int, int]]]) -> np.ndarray:
    import numpy as np

    all_cells = sorted(set().union(*cell_sets))
    index = {c: i for i, c in enumerate(all_cells)}
    out = np.zeros((len(cell_sets), len(all_cells)))
    for r, cells in enumerate(cell_sets):
        for c in cells:
            out[r, index[c]] = 1.0
    return out


def landscape_export(
    memory,
    problem_embedding: Embedding,
    action_embedding: Embedding,
    observable: str,
    *,
    resolution: int = VISUALIZATION_K,
) -> LandscapeTable:
    """One (problem PCA, method PCA, observable) row per memory entry.

    Problem fingerprints are stored at the identity-preserving resolution,
    so their cells are inverted back to nodes and re-binned at the coarse
    visualization resolution; method cell sets come straight from the stored
    path nodes.
    """
    entries = list(memory.entries)
    if not entries:
        raise ValueError("memory is empty")
    for entry in entries:
        if observable not in entry.observables:
            raise KeyError(f"observable {observable!r} missing from a memory entry")

    problem_sets = []
    inverse_cache: dict[int, dict] = {}
    for entry in entries:
        fp = entry.problem_fp
        if fp.tree_tag != problem_embedding.tree_version:
            raise FingerprintError("entry problem fingerprint belongs to another tree version")
        table = inverse_cache.get(fp.resolution)
        if table is None:
            table = invert_cells(problem_embedding, fp.resolution)
            inverse_cache[fp.resolution] = table
        try:
            nodes = [table[c] for c in fp.cells]
        except KeyError as exc:
            raise FingerprintError(f"stale problem fingerprint cell {exc.args[0]}") from exc
        problem_sets.append(frozenset(bin_cell(problem_embedding, n, resolution) for n in nodes))

    method_sets = []
    for entry in entries:
        kept = [n for n in entry.method_path_nodes if action_embedding.entered_by.get(n) == "s"]
        if not kept:
            raise FingerprintError("entry method path has no s-entered nodes")
        method_sets.append(frozenset(bin_cell(action_embedding, n, resolution) for n in kept))

    xs, degenerate_p = first_principal_coordinates(_indicator_matrix(problem_sets))
    ys, degenerate_m = first_principal_coordinates(_indicator_matrix(method_sets))
    rows = tuple(
        (float(x), float(y), float(entry.observables[observable]))
        for x, y, entry in zip(xs, ys, entries)
    )
    return LandscapeTable(
        rows=rows,
        observable=observable,
        degenerate_problem_axis=degenerate_p,
        degenerate_method_axis=degenerate_m,
    )

