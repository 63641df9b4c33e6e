"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each public function named in ``TRACED`` and puts
the wrapper wherever a graft module holds that function object, so calls
made inside the package (``graft.loop.sample_method``,
``graft.memory.jaccard``, ``graft.policy.chain_kernel``...) are seen too.
Each call becomes a span (name, parent span, operation index, start, end)
kept in memory and written out by ``save``.  Self time is a span's duration
minus the time of its child spans.  Garbage-collection pauses are counted
through ``gc.callbacks``.

Untraced runs never construct a Tracer, so they replace nothing.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

TRACED = {
    "graph": ("validate_graph",),
    "reduction": ("reduce_to_tree", "extract_chains"),
    "build": ("build_substrate", "check_acyclic", "assign_levels"),
    "embedding": ("layout", "min_injective_k", "fingerprint", "jaccard"),
    "memory": ("rank_neighbors", "compile_prior", "record"),
    "policy": ("sample_method", "chain_kernel", "method_probability", "enumerate_support"),
    "loop": ("make_synthetic_env", "run_trial", "advisor_edit"),
    "io": ("load_substrate", "load_memory", "save_memory", "append_memory", "load_rows", "load_fingerprint"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)
ADVISOR = NAMES.index("loop.advisor_edit")
# Spans kept in memory, about 40 MB.  Past this, calls are still counted and
# timed but their spans are dropped; warm-start makes about 3.6 million
# jaccard calls in one 40 s run.
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.advisor_hits = 0
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0
        self.op = -1  # index of the operation the spans belong to; -1 is set-up
        self.dropped = 0
        self.enabled = False
        self._stack: list[list] = []  # [span index, time covered by children]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.span_start)
            if span < MAX_SPANS:
                tracer.span_name.append(idx)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_end.append(0.0)
            else:
                span = -1
                tracer.dropped += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            if span >= 0:
                tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if span >= 0:
                    tracer.span_end[span] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if idx == ADVISOR and result is not None:
                tracer.advisor_hits += 1
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = perf_counter()
            if info["generation"] == 2:
                self.gc_gen2 += 1
        else:
            self.gc_pause_s += perf_counter() - self._gc_start

    def install(self) -> None:
        importlib.import_module("graft.cli")  # load every module that may hold a reference
        for idx, name in enumerate(NAMES):
            module_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"graft.{module_name}"), fn_name)
            wrapper = self._wrap(idx, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "graft" or mod_name.startswith("graft.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        gc.callbacks.append(self._on_gc)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own checks out of the per-layer figures."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_ms"] = self.self_s[idx] * 1e3
        calls = self.calls[ADVISOR]
        out["loop.advisor_edit.hit_ratio"] = self.advisor_hits / calls if calls else 0.0
        out["runtime.gc_gen2.count"] = self.gc_gen2
        out["runtime.gc.pause_ms"] = self.gc_pause_s * 1e3
        return out

    def save(self, path: Path) -> None:
        """Write the spans as columns (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.int64(self.dropped),
        )


class NoTracer:
    """Stands in for a Tracer in untraced runs; touches nothing."""

    op = -1

    @contextlib.contextmanager
    def paused(self):
        yield
