"""Span tracing from outside the library, for the traced run only.

:class:`SpanRecorder` wraps each layer's public methods *at class level*
(and ``fresh_index``'s dataset generator at module level) for the
duration of one traced repetition, inside the benchmark process only.
Each wrapped call is a span — name, start, end, parent span, op id and
phase — kept in memory until the run ends; :meth:`SpanRecorder.restore`
puts every original back.  A span's self time is its duration minus the
time its child spans cover, so per-layer self times add up to the
traced wall time.
"""

from __future__ import annotations

import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List, Tuple

import numpy as np

import repro.bench.config as bench_config
from repro.core import (AlexIndex, BTreeIndex, DeltaVarintCodec, FoRCodec,
                        LippIndex, PgmIndex, RawCodec)
from repro.durability import WriteAheadLog
from repro.models import FenceZonemap, LinearModel, SegmentArray
from repro.serving import ServingEngine
from repro.sharding import Router, Shard, ShardedIndex
from repro.storage import (BlockDevice, BufferPool, ClockBufferPool,
                           FifoBufferPool, Pager)

PHASES = ("setup", "run", "check")
RUNNER = "workloads.runner"
INDEX_CLASSES = {"btree": BTreeIndex, "pgm": PgmIndex, "alex": AlexIndex,
                 "lipp": LippIndex}
INDEX_METHODS = ("lookup", "insert", "durable_insert", "scan", "bulk_load")
#: ops per cell whose spans are kept whole (all ops count in the totals)
SAMPLE_OPS = 64
#: layers whose spans keep every duration, not only totals
DURATION_LAYERS = {f"core.{cell}" for cell in INDEX_CLASSES} | {"datasets"}

#: layer -> [(class, methods)].  The core layer is per cell
#: ("core.<index name>"); its entries come from INDEX_CLASSES.
LAYER_TARGETS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "models": [
        (LinearModel, ("predict", "predict_clamped", "predict_many",
                       "predict_clamped_many")),
        (SegmentArray, ("resolve", "predict", "predict_slots")),
        (FenceZonemap, ("route", "route_many")),
    ],
    "core.codecs": [
        (codec, ("decode", "decode_arrays", "decode_keys", "encode",
                 "encode_keys"))
        for codec in (RawCodec, DeltaVarintCodec, FoRCodec)
    ],
    "storage.pager": [
        (Pager, ("read_block", "write_block", "write_blocks", "read_span",
                 "prefetch", "read_bytes", "write_bytes", "cached_keys",
                 "cached_meta", "cached_decode", "flush")),
    ],
    "storage.buffer_pool": [
        (pool, ("get", "put", "get_many", "put_many", "invalidate",
                "invalidate_file", "mark_dirty", "mark_clean"))
        for pool in (BufferPool, FifoBufferPool, ClockBufferPool)
    ],
    "storage.device": [
        (BlockDevice, ("read_block", "read_blocks", "write_block",
                       "write_blocks")),
    ],
    "durability.wal": [(WriteAheadLog, ("append", "flush"))],
    "serving.engine": [(ServingEngine, ("run",))],
    "sharding.router": [
        (ShardedIndex, ("lookup", "lookup_many", "insert", "durable_insert",
                        "scan", "scan_range", "bulk_load")),
        (Router, ("lookup", "lookup_many", "scan", "scan_range")),
        (Shard, ("lookup", "lookup_many", "scan", "scan_range", "apply",
                 "append_log", "bulk_load")),
    ],
}


def layer_of(name: str) -> str:
    """``"storage.pager|Pager.read_bytes"`` -> ``"storage.pager"``."""
    return name.split("|", 1)[0]


def method_of(name: str) -> str:
    """``"storage.pager|Pager.read_bytes"`` -> ``"read_bytes"``."""
    return name.rsplit(".", 1)[-1]


class SpanRecorder:
    """Records nested spans from class-level method wrappers.

    Every span updates per-(phase, name) totals as it closes: calls,
    calls into the layer from outside it, duration and self time.  Spans
    of the core layer and of dataset generation also keep their
    durations (for p50s and set-up times).  Full span records — name,
    start, end, parent, op id, phase — are kept for the first
    ``SAMPLE_OPS`` ops of each cell and the top two levels of set-up,
    which bounds memory and the spans file on insert-heavy cells whose
    ops each make hundreds of pager calls.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._layer_ids: List[int] = []
        self._layers: List[str] = []
        self.totals: List[List[List[int]]] = [[] for _ in PHASES]
        self.durations: Dict[Tuple[int, int], List[int]] = {}
        self.spans = {k: array("q") for k in ("start_ns", "end_ns")}
        self.spans.update({k: array("i") for k in ("name", "parent", "op")})
        self.spans["phase"] = array("b")
        self.op_id = -1
        self._phase = 0
        self._recording = True
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- instrumentation -----------------------------------------------------

    def instrument(self, cells) -> None:
        """Wrap every layer's methods, and each cell's index class."""
        for cell in cells:
            cls = INDEX_CLASSES[cell]
            for method in INDEX_METHODS:
                self._wrap(cls, method, f"core.{cell}|{cls.__name__}.{method}")
        for layer, targets in LAYER_TARGETS.items():
            for cls, methods in targets:
                for method in methods:
                    if method in cls.__dict__:
                        self._wrap(cls, method,
                                   f"{layer}|{cls.__name__}.{method}")
        self._wrap(bench_config, "make_dataset", "datasets|make_dataset")

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__.get(attr)
        if original is not None and not inspect.isfunction(original):
            return  # staticmethod / classmethod / property: not an op path
        fn = getattr(owner, attr)
        if not callable(fn):
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, fn))

    def _register(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        nid = len(self.names)
        self.names.append(name)
        layer = layer_of(name)
        if layer not in self._layers:
            self._layers.append(layer)
        self._layer_ids.append(self._layers.index(layer))
        for totals in self.totals:
            totals.append([0, 0, 0, 0])  # calls, entries, dur ns, self ns
        return nid

    def traced(self, name: str, fn):
        """``fn`` wrapped so each call records one span named ``name``."""
        nid = self._register(name)
        layer = self._layer_ids[nid]
        layer_ids = self._layer_ids
        keep_durations = layer_of(name) in DURATION_LAYERS
        stack = self._stack
        spans = self.spans

        def span(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            phase = self._phase
            if phase == 1:
                sampled = 0 <= self.op_id < SAMPLE_OPS
            else:
                sampled = parent is None or parent[2] >= 0 and len(stack) < 2
            idx = -1
            if sampled:
                idx = len(spans["name"])
                spans["name"].append(nid)
                spans["parent"].append(parent[2] if parent else -1)
                spans["op"].append(self.op_id)
                spans["phase"].append(phase)
                spans["end_ns"].append(0)
            frame = [nid, 0, idx]           # name, child ns, span index
            stack.append(frame)
            start = perf_counter_ns()
            if sampled:
                spans["start_ns"].append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if sampled:
                    spans["end_ns"][idx] = end
                totals = self.totals[phase][nid]
                totals[0] += 1
                totals[2] += dur
                totals[3] += dur - frame[1]
                if parent is None or layer_ids[parent[0]] != layer:
                    totals[1] += 1
                if parent is not None:
                    parent[1] += dur
                if keep_durations and (parent is None or parent[0] != nid):
                    self.durations.setdefault((phase, nid), []).append(dur)

        return span

    @contextmanager
    def in_phase(self, phase: str):
        """Tag spans opened inside the block with ``phase``; the post-run
        checks are not part of any metric and record nothing."""
        saved = self._phase, self._recording
        self._phase = PHASES.index(phase)
        self._recording = phase != "check"
        self.op_id = -1
        try:
            yield
        finally:
            self._phase, self._recording = saved
            self.op_id = -1

    # -- analysis ------------------------------------------------------------

    def total(self, phase: str, layer: str, methods=None,
              field: str = "self_ns") -> int:
        """Sum one column of the totals over a layer's (named) methods."""
        col = ("calls", "entries", "dur_ns", "self_ns").index(field)
        totals = self.totals[PHASES.index(phase)]
        return sum(totals[nid][col] for nid, name in enumerate(self.names)
                   if layer_of(name) == layer
                   and (methods is None or method_of(name) in methods))

    def durations_of(self, phase: str, layer: str, method: str) -> List[int]:
        """Durations of a layer's ``method`` spans (recursion excluded)."""
        p = PHASES.index(phase)
        return [d for nid, name in enumerate(self.names)
                if layer_of(name) == layer and method_of(name) == method
                for d in self.durations.get((p, nid), ())]

    def self_by_layer(self, phase: str = "run") -> Dict[str, int]:
        out: Dict[str, int] = {}
        for nid, name in enumerate(self.names):
            ns = self.totals[PHASES.index(phase)][nid][3]
            out[layer_of(name)] = out.get(layer_of(name), 0) + ns
        return out

    def save(self, path) -> None:
        """Write the sampled spans and the name table to ``path`` (.npz)."""
        np.savez_compressed(
            path, names=np.asarray(self.names), phases=np.asarray(PHASES),
            sample_ops=SAMPLE_OPS,
            **{k: np.frombuffer(v, dtype=v.typecode)
               for k, v in self.spans.items()})
