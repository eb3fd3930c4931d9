"""One repetition of a workload: build every cell, run it, check it.

A repetition builds each cell from the seed (timed as set-up), runs its
op stream through the public ``repro.workloads.run_workload`` with an
:class:`~probe.OpProbe` on the index, and then runs the post-run oracle.
It also checks the charged numbers it measured from outside against the
library's ``RunResult``, bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import List, Optional

import numpy as np

from repro.workloads import run_workload

from probe import (OpProbe, check_acknowledged, check_contents,
                   paper_payload)
from spans import RUNNER
from suite import SCAN_LENGTH, Workload, build_cell


@dataclass
class CellRun:
    """Everything one cell contributed to one repetition."""

    name: str
    attempted: int
    setup_ns: int
    run_ns: int = 0            # run_workload's wall, probe excluded
    probe_ns: int = 0          # the probe's own bookkeeping
    result: object = None      # the library's RunResult
    kinds: List[str] = field(default_factory=list)
    real_ns: Optional[np.ndarray] = None      # each op call's duration
    interval_ns: Optional[np.ndarray] = None  # op start to next op start
    sim_us: Optional[np.ndarray] = None
    sim_elapsed_us: float = 0.0
    reads: int = 0
    writes: int = 0
    live_keys: int = 0
    writes_attempted: int = 0
    pool: dict = field(default_factory=dict)
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    def charged_signature(self) -> str:
        """A digest of every charged number of the cell's run; equal
        digests mean the charged clock repeated exactly."""
        r = self.result
        if r is None:
            return "no result"
        parts = [r.num_ops, r.sim_elapsed_us, r.blocks_read_per_op,
                 r.blocks_written_per_op, r.read_positionings,
                 r.write_positionings, sorted(r.time_by_phase_us.items()),
                 sorted(r.reads_by_phase.items()),
                 sorted(r.writes_by_phase.items()), r.allocated_bytes,
                 r.live_bytes, r.log_records, r.log_flushes,
                 r.commit_groups, r.commit_wait_us, r.latch_waits,
                 r.latch_wait_us, sorted(self.pool.items()),
                 self.sim_us.tobytes().hex()]
        return hashlib.sha256(repr(parts).encode()).hexdigest()


def _pools(index):
    """Every buffer pool behind ``index`` (one per sharded member)."""
    if hasattr(index, "shards"):
        return [m.pager.buffer_pool for s in index.shards for m in s.members()
                if m.pager.buffer_pool is not None]
    pool = index.pager.buffer_pool
    return [pool] if pool is not None else []


def _pool_counters(index) -> dict:
    pools = _pools(index)
    return {"hits": sum(p.hits for p in pools),
            "misses": sum(p.misses for p in pools),
            "evictions": sum(p.clean_evictions + p.dirty_evictions
                             for p in pools)}


def _phase(recorder, phase: str):
    return recorder.in_phase(phase) if recorder is not None else nullcontext()


def run_cell(workload: Workload, index_name: str, seed: int,
             recorder=None, expected=paper_payload,
             post_run_check: bool = True) -> CellRun:
    """Build, run and check one cell.

    The cyclic garbage collector is off while the cell is set up and run
    (as ``timeit`` does), so its pauses, which land on different ops in
    different repetitions, do not blur the timings.

    ``post_run_check`` runs the post-run oracle (a full ``scan_range``,
    and on the sharded tier a lookup of every write).  A run makes it on
    a cell's first repetition only: later ones replay the same ops, and
    the run checks that they charge exactly the same device work.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_cell(workload, index_name, seed, recorder, expected,
                         post_run_check)
    finally:
        gc.enable()


def _run_cell(workload, index_name, seed, recorder, expected,
              post_run_check) -> CellRun:
    start = perf_counter_ns()
    with _phase(recorder, "setup"):
        setup = build_cell(workload, index_name, seed)
    cell = CellRun(index_name, attempted=len(setup.ops),
                   setup_ns=perf_counter_ns() - start)
    index = setup.index
    bulk_keys = [k for k, _ in setup.bulk_items]
    scans = any(kind == "scan" for kind, _ in setup.ops)
    probe = OpProbe(index, bulk_keys, scan_length=SCAN_LENGTH if scans else 0,
                    charged=not workload.sharded, recorder=recorder,
                    expected=expected)
    run = (run_workload if recorder is None
           else recorder.traced(f"{RUNNER}|run_workload", run_workload))
    topology = ({"clients": workload.clients, "shards": workload.shards,
                 "replicas": workload.replicas} if workload.sharded else {})
    before = setup.device.stats.snapshot()
    pool_before = _pool_counters(index)
    start = perf_counter_ns()
    try:
        with _phase(recorder, "run"):
            cell.result = run(index, setup.ops, workload.name,
                              scan_length=SCAN_LENGTH, keep_latencies=True,
                              **topology)
    except Exception:  # a crashed cell fails all its ops; the run goes on
        cell.errors.append(traceback.format_exc())
        cell.failed = cell.attempted
        return cell
    finally:
        cell.run_ns = perf_counter_ns() - start
        probe.remove()
    after = setup.device.stats.snapshot()
    pool_after = _pool_counters(index)
    cell.pool = {k: pool_after[k] - pool_before[k] for k in pool_after}
    cell.kinds = probe.kinds
    cell.real_ns = np.asarray(probe.real_ns, dtype=np.int64)
    # Each op's share of the run wall: its call plus the runner's work up
    # to the next call (the last op: its call alone; the runner's work
    # before the first and after the last op is the remainder).  The
    # probe's own bookkeeping is taken out of both.
    starts = np.asarray(probe.start_ns, dtype=np.int64)
    pre = np.asarray(probe.pre_ns, dtype=np.int64)
    post = np.asarray(probe.post_ns, dtype=np.int64)
    cell.interval_ns = np.append(np.diff(starts) - post[:-1] - pre[1:],
                                 cell.real_ns[-1:])
    cell.probe_ns = int(pre.sum() + post.sum())
    cell.run_ns -= cell.probe_ns
    cell.sim_elapsed_us = after.elapsed_us - before.elapsed_us
    cell.reads = after.reads - before.reads
    cell.writes = after.writes - before.writes
    cell.writes_attempted = sum(1 for kind, _ in setup.ops if kind == "insert")
    result = cell.result
    cell.sim_us = (np.asarray(probe.sim_us, dtype=np.float64)
                   if probe.sim_us is not None else result.latencies_us)
    cell.live_keys = len(bulk_keys) + len(probe.inserted)

    missing = unacked = 0
    if workload.sharded:
        unacked = len(probe.inserted) - result.committed_writes
    if post_run_check:
        with _phase(recorder, "check"):
            missing = check_contents(index, bulk_keys + probe.inserted,
                                     expected)
            if workload.sharded:
                unacked += check_acknowledged(index, probe.inserted,
                                              expected)
    cell.errors.extend(probe.failures[:5])
    if missing:
        cell.errors.append(f"post-run oracle: {missing} keys wrong or missing")
    if unacked:
        cell.errors.append(f"{unacked} acknowledged writes not readable")
    not_run = max(result.shed_ops, cell.attempted - probe.ops)
    cell.failed = len(probe.failures) + not_run + missing + unacked
    cell.mismatches = _charged_mismatches(cell, workload.sharded)
    return cell


def _charged_mismatches(cell: CellRun, sharded: bool) -> List[str]:
    """Where the charged numbers measured from outside differ from the
    library's RunResult for the same cell (must be none)."""
    r = cell.result
    n = len(cell.kinds)
    mine = {
        "num_ops": n,
        "blocks_read_per_op": cell.reads / n,
        "blocks_written_per_op": cell.writes / n,
        "throughput_ops_per_s": n / (cell.sim_elapsed_us / 1e6),
        "p50_latency_us": float(np.percentile(cell.sim_us, 50)),
        "p99_latency_us": float(np.percentile(cell.sim_us, 99)),
    }
    out = [f"{cell.name}.{k}: measured {v!r}, RunResult {getattr(r, k)!r}"
           for k, v in mine.items() if v != getattr(r, k)]
    if not sharded and not np.array_equal(cell.sim_us, r.latencies_us):
        out.append(f"{cell.name}: per-op charged latencies differ")
    return out
