"""End-to-end and per-layer metrics from measured repetitions.

End-to-end metrics pool a repetition's cells: real-clock numbers from
the probe's per-op timings and the ``run_workload`` wall time, charged
numbers from the device counters measured around each run.  Per-layer
metrics come from a traced repetition's spans plus the library's public
counters (``RunResult`` fields, pool and shard counters).
"""

from __future__ import annotations

import math
import resource
from typing import Dict, List

import numpy as np

from spans import INDEX_CLASSES, RUNNER, SpanRecorder

#: name -> (unit, better); the order is the printed order.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "p50_us": ("us", "lower"),
    "p99_us": ("us", "lower"),
    "sim_ops_per_s": ("1/s", "higher"),
    "sim_p50_us": ("us", "lower"),
    "sim_p99_us": ("us", "lower"),
    "blocks_read_per_op": ("count", "lower"),
    "blocks_written_per_op": ("count", "lower"),
    "space_amp": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
}
#: The end-to-end metrics the last output line carries (BENCHMARK.json's
#: ``end_to_end``): each must be non-zero and vary from seed to seed.
#: Printed but left out: ``error_rate`` (the line's ``failed /
#: attempted``), ``blocks_written_per_op`` (0 on the read-only workload),
#: ``sim_p50_us`` (0 when most ops hit the pool) and ``sim_p99_us`` (a
#: whole number of device accesses, the same for every seed on
#: ``zipf_for_pool``).
HEADLINE = ("ops_per_s", "p50_us", "p99_us", "sim_ops_per_s",
            "blocks_read_per_op", "space_amp", "setup_s", "peak_rss_mb")

CORE_METRICS = {
    "lookup_us_p50": "us", "insert_us_p50": "us", "scan_us_p50": "us",
    "self_us_per_op": "us/op", "bulk_load_s": "s",
    "blocks_per_op": "count/op", "space_amp": "ratio",
}
DEVICE_PHASES = ("search", "insert", "smo", "maintenance", "scan", "log",
                 "latch")
PER_LAYER = {
    **{f"core.{cell}.{m}": unit for cell in INDEX_CLASSES
       for m, unit in CORE_METRICS.items()},
    "models.predict_calls_per_op": "count/op",
    "models.predict_us_per_op": "us/op",
    "core.codecs.decode_calls_per_op": "count/op",
    "core.codecs.decode_us_per_op": "us/op",
    "core.codecs.encode_us_per_op": "us/op",
    "storage.pager.calls_per_op": "count/op",
    "storage.pager.read_bytes_calls_per_op": "count/op",
    "storage.pager.self_us_per_op": "us/op",
    "storage.buffer_pool.hit_rate": "ratio",
    "storage.buffer_pool.evictions_per_op": "count/op",
    "storage.buffer_pool.self_us_per_op": "us/op",
    "storage.device.reads_per_op": "count/op",
    "storage.device.writes_per_op": "count/op",
    "storage.device.positionings_per_op": "count/op",
    **{f"storage.device.sim_us_per_op.{p}": "us/op" for p in DEVICE_PHASES},
    "storage.device.self_us_per_op": "us/op",
    "durability.wal.appends_per_write": "count/write",
    "durability.wal.flushes_per_write": "count/write",
    "durability.wal.log_blocks_per_write": "count/write",
    "durability.wal.self_us_per_op": "us/op",
    "serving.engine.self_us_per_op": "us/op",
    "serving.engine.commit_group_mean": "count",
    "serving.engine.commit_wait_us_per_write": "us/write",
    "serving.engine.latch_waits_per_op": "count/op",
    "serving.engine.latch_wait_us_per_op": "us/op",
    "sharding.router.self_us_per_op": "us/op",
    "sharding.router.replica_writes_per_write": "count/write",
    "sharding.router.max_over_mean_shard_ops": "ratio",
    "workloads.runner.self_us_per_op": "us/op",
    "datasets.generate_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}
SELF_TIME_LAYERS = ("models", "core.codecs", "storage.pager",
                    "storage.buffer_pool", "storage.device", "durability.wal",
                    "serving.engine", "sharding.router", RUNNER)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def charged(cells) -> Dict[str, float]:
    """One repetition's charged-clock and space metrics, pooled over its
    cells (identical in every repetition, which the run checks)."""
    ops = sum(len(c.kinds) for c in cells)
    sim_us = np.concatenate([c.sim_us for c in cells])
    amps = [c.result.allocated_bytes / (16 * c.live_keys) for c in cells]
    return {
        "sim_ops_per_s": ops / (sum(c.sim_elapsed_us for c in cells) / 1e6),
        "sim_p50_us": float(np.percentile(sim_us, 50)),
        "sim_p99_us": float(np.percentile(sim_us, 99)),
        "blocks_read_per_op": sum(c.reads for c in cells) / ops,
        "blocks_written_per_op": sum(c.writes for c in cells) / ops,
        "space_amp": math.exp(sum(math.log(a) for a in amps) / len(amps)),
    }


def real_clock(reps) -> Dict[str, float]:
    """Real-clock metrics over repetitions of the same op streams.

    A shared host's speed dips for seconds at a time, so a median over
    repetitions still moves from run to run.  Each op is identical work
    in every repetition, so each op is charged its fastest repetition —
    per op for ``p50_us`` / ``p99_us``, per op interval
    (the call plus the runner's work up to the next call) for
    ``ops_per_s`` — and each cell its fastest set-up for ``setup_s``.
    """
    ops = 0
    wall_ns = 0
    setup_ns = 0
    real = []
    for runs in zip(*reps):            # one cell across repetitions
        best = np.min(np.stack([c.real_ns for c in runs]), axis=0)
        intervals = np.stack([c.interval_ns for c in runs])
        rest = min(c.run_ns - int(i.sum()) for c, i in zip(runs, intervals))
        wall_ns += int(intervals.min(axis=0).sum()) + rest
        setup_ns += min(c.setup_ns for c in runs)
        ops += best.size
        real.append(best)
    real_us = np.concatenate(real) / 1e3
    return {
        "ops_per_s": ops / (wall_ns / 1e9),
        "p50_us": float(np.percentile(real_us, 50)),
        "p99_us": float(np.percentile(real_us, 99)),
        "setup_s": setup_ns / 1e9,
    }


def median_wall(reps) -> float:
    """The median over repetitions of the summed ``run_workload`` wall."""
    return float(np.median([sum(c.run_ns for c in cells) for cells in reps]))


def probe_caller(cells) -> str:
    """The layer whose span the probe's bookkeeping runs in: the serving
    engine calls the index on the multi-client path, the runner else."""
    return "serving.engine" if cells[0].result.clients > 1 else RUNNER


def per_layer(cells, recorder: SpanRecorder) -> Dict[str, float]:
    """One traced repetition's per-layer metrics (0 where a layer or
    cell does no work in this workload)."""
    out = {name: 0.0 for name in PER_LAYER}
    rec = recorder
    ops = sum(len(c.kinds) for c in cells)
    writes = sum(c.writes_attempted for c in cells)
    results = [c.result for c in cells]
    probe_ns = sum(c.probe_ns for c in cells)

    def per_op(ns: float, n: int = ops) -> float:
        return _ratio(ns / 1e3, n)

    for c in cells:
        lay = f"core.{c.name}"
        for m in ("lookup", "insert", "scan"):
            durs = rec.durations_of("run", lay, m)
            out[f"{lay}.{m}_us_p50"] = (float(np.median(durs)) / 1e3
                                       if durs else 0.0)
        out[f"{lay}.self_us_per_op"] = per_op(rec.total("run", lay),
                                              len(c.kinds))
        out[f"{lay}.bulk_load_s"] = rec.total(
            "setup", lay, ("bulk_load",), "dur_ns") / 1e9
        out[f"{lay}.blocks_per_op"] = (c.reads + c.writes) / len(c.kinds)
        out[f"{lay}.space_amp"] = (c.result.allocated_bytes
                                   / (16 * c.live_keys))

    decode = ("decode", "decode_arrays", "decode_keys")
    out["models.predict_calls_per_op"] = _ratio(
        rec.total("run", "models", field="entries"), ops)
    out["models.predict_us_per_op"] = per_op(rec.total("run", "models"))
    out["core.codecs.decode_calls_per_op"] = _ratio(
        rec.total("run", "core.codecs", decode, "entries"), ops)
    out["core.codecs.decode_us_per_op"] = per_op(
        rec.total("run", "core.codecs", decode))
    out["core.codecs.encode_us_per_op"] = per_op(
        rec.total("run", "core.codecs", ("encode", "encode_keys")))
    out["storage.pager.calls_per_op"] = _ratio(
        rec.total("run", "storage.pager", field="entries"), ops)
    out["storage.pager.read_bytes_calls_per_op"] = _ratio(
        rec.total("run", "storage.pager", ("read_bytes",), "calls"), ops)
    for lay in SELF_TIME_LAYERS:
        out[f"{lay}.self_us_per_op"] = per_op(rec.total("run", lay))
    caller = probe_caller(cells)
    out[f"{caller}.self_us_per_op"] = per_op(
        rec.total("run", caller) - probe_ns)

    hits = sum(c.pool["hits"] for c in cells)
    misses = sum(c.pool["misses"] for c in cells)
    out["storage.buffer_pool.hit_rate"] = _ratio(hits, hits + misses)
    out["storage.buffer_pool.evictions_per_op"] = _ratio(
        sum(c.pool["evictions"] for c in cells), ops)

    out["storage.device.reads_per_op"] = _ratio(sum(c.reads for c in cells),
                                                ops)
    out["storage.device.writes_per_op"] = _ratio(
        sum(c.writes for c in cells), ops)
    out["storage.device.positionings_per_op"] = _ratio(
        sum(r.read_positionings + r.write_positionings for r in results), ops)
    for p in DEVICE_PHASES:
        out[f"storage.device.sim_us_per_op.{p}"] = _ratio(
            sum(r.time_by_phase_us.get(p, 0.0) for r in results), ops)

    out["durability.wal.appends_per_write"] = _ratio(
        sum(r.log_records for r in results), writes)
    out["durability.wal.flushes_per_write"] = _ratio(
        sum(r.log_flushes for r in results), writes)
    out["durability.wal.log_blocks_per_write"] = _ratio(
        sum(r.log_blocks_written for r in results), writes)

    committed = sum(r.committed_writes for r in results)
    out["serving.engine.commit_group_mean"] = _ratio(
        committed, sum(r.commit_groups for r in results))
    out["serving.engine.commit_wait_us_per_write"] = _ratio(
        sum(r.commit_wait_us for r in results), committed)
    out["serving.engine.latch_waits_per_op"] = _ratio(
        sum(r.latch_waits for r in results), ops)
    out["serving.engine.latch_wait_us_per_op"] = _ratio(
        sum(r.latch_wait_us for r in results), ops)

    shipped = sum(s["shipped_records"] for r in results
                  for s in r.per_shard.values())
    out["sharding.router.replica_writes_per_write"] = _ratio(shipped, writes)
    skews = []
    for r in results:
        loads = [sum(s["ops"].values()) for s in r.per_shard.values()]
        if loads and sum(loads):
            skews.append(max(loads) / (sum(loads) / len(loads)))
    out["sharding.router.max_over_mean_shard_ops"] = (
        float(np.mean(skews)) if skews else 0.0)

    out["datasets.generate_s"] = rec.total("setup", "datasets",
                                           field="dur_ns") / 1e9
    attributed = sum(rec.self_by_layer("run").values()) - probe_ns
    out["trace.unattributed_share"] = 1.0 - _ratio(
        attributed, sum(c.run_ns for c in cells))
    return out


def self_time_table(cells, recorder: SpanRecorder) -> List[tuple]:
    """(layer, self ms, share of run wall, µs per op) for the run phase,
    the probe's bookkeeping taken out of its caller's row."""
    by_layer = recorder.self_by_layer("run")
    caller = probe_caller(cells)
    by_layer[caller] = by_layer.get(caller, 0) - sum(c.probe_ns for c in cells)
    wall = sum(c.run_ns for c in cells)
    ops = sum(len(c.kinds) for c in cells)
    rest = wall - sum(by_layer.values())
    rows = sorted(by_layer.items(), key=lambda kv: -kv[1])
    rows.append(("(unattributed)", rest))
    return [(lay, ns / 1e6, ns / wall, ns / 1e3 / ops) for lay, ns in rows]
