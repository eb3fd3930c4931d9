"""The headline benchmark's four workloads and how each cell is built.

A *cell* is one index class run under its workload's settings.  Every
workload is single-threaded in one process, runs lookups at batch 1
over write-through pagers, and draws its whole op stream from the seed
through ``repro.workloads.build_workload`` (via ``fresh_index`` /
``fresh_sharded_index``), so the indexes only ever see generated ops.

Why each workload exists, its sizes and its flush policy are recorded on
the :class:`Workload` entries below; ``perfbench/README.md`` gives the
same table in prose.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import repro.bench.config as bench_config
from repro.bench.config import Scale, fresh_index, fresh_sharded_index
from repro.storage import HDD, SSD
from repro.workloads import WORKLOADS, WorkloadSpec

SCAN_LENGTH = 100

#: Every run loads the same draw of its dataset, the one the library's
#: default ``Scale`` (and so every experiment in this repository) uses;
#: ``--seed`` generates the op stream: the bulk/insert split, the insert
#: order and the lookup and scan keys.  The paper's datasets are fixed
#: real ones, and on ``fb`` the draw, not the op stream, sets ALEX's
#: insert tail: over ten seeds its p97 moved 906-1438 us when the seed
#: drew the data too, and 1560-1812 us on this one draw.
DATASET_SEED = Scale.seed

#: The cells of the two raw-codec workloads on ``fb``.  PgmIndex with the
#: raw codec is a cell of no workload because it returns wrong results:
#: after inserts its ``scan_range`` leaves present keys out (on this
#: benchmark's ``fb`` draw for most op seeds, on its ``osm`` draw for
#: some), and on other ``fb`` draws its lookups lose bulk keys.
#: ``test_perfbench.test_pgm_raw_defect`` reproduces both; once it
#: passes, pgm joins these cells again (and ``serving_sharded``'s, where
#: lipp stands in for it).  With the FoR codec (``zipf_for_pool``) it
#: ran clean.
FB_RAW_CELLS = ("btree", "alex", "lipp")

#: Workload 3's mix: per round of 20 ops, 1 insert, 18 lookups, 1 scan.
ZIPF_POOL_SPEC = WorkloadSpec("zipf_for_pool", "I" + "L" * 18 + "S",
                              bulk_all=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flush_policy: str
    spec_name: str          # a repro.workloads.WORKLOADS key
    dataset: str
    cells: Tuple[str, ...]
    scale: Dict[str, int]   # Scale fields (the seed is added per run)
    profile: str = "hdd"
    codec: Optional[str] = None
    buffer_blocks: int = 0  # per member on the sharded tier
    wal_group_commit: Optional[int] = None
    lookup_distribution: str = "uniform"
    sharded: bool = False
    clients: int = 1
    shards: int = 1
    replicas: int = 1

    def sizes(self) -> dict:
        """The sizes the provenance block records for this workload."""
        return {"dataset": self.dataset, "dataset_seed": DATASET_SEED,
                "cells": list(self.cells),
                **self.scale, "profile": self.profile,
                "codec": self.codec or "raw",
                "buffer_blocks": self.buffer_blocks,
                "wal_group_commit": self.wal_group_commit,
                "clients": self.clients, "shards": self.shards,
                "replicas": self.replicas,
                "lookup_distribution": self.lookup_distribution,
                "scan_length": SCAN_LENGTH, "flush_policy": self.flush_policy}


WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="lookup_uniform",
        why=("The paper's lookup-only mix on fb, the hardest dataset for "
             "PLA: index descent, model prediction and device reads do the "
             "work; codec, pool, WAL, serving and sharding do none, so it "
             "is the no-change control for write-path and codec work."),
        flush_policy="write-through pager, no WAL (read-only)",
        spec_name="lookup_only", dataset="fb",
        cells=FB_RAW_CELLS,
        scale={"n_read": 50_000, "n_lookup_ops": 4_000}),
    Workload(
        name="write_heavy_wal",
        why=("The paper's write-heavy mix (18 inserts, 2 lookups): inserts, "
             "SMOs and the WAL do the work, and lookups hit a freshly "
             "mutated index, so a read-path gain that costs writes shows."),
        flush_policy="write-through pager, WAL group commit 8",
        spec_name="write_heavy", dataset="fb",
        cells=FB_RAW_CELLS,
        scale={"n_write_bulk": 30_000, "n_write_ops": 2_000},
        wal_group_commit=8),
    Workload(
        name="zipf_for_pool",
        why=("Zipfian lookups plus 1 insert and 1 scan per 20 ops over FoR "
             "leaves behind an LRU pool about a fifth of the leaf file: the "
             "only workload where codec decode and pool hits carry the "
             "work."),
        flush_policy="write-through pager over an LRU pool, no WAL",
        spec_name=ZIPF_POOL_SPEC.name, dataset="fb",
        cells=("btree", "pgm"),
        scale={"n_write_bulk": 100_000, "n_write_ops": 3_000},
        codec="for", buffer_blocks=40, lookup_distribution="zipfian"),
    Workload(
        name="serving_sharded",
        why=("The balanced mix under zipfian traffic from 2 virtual "
             "clients against 2 shards x 2 replicas on osm (highest "
             "conflict degree), SSD, data in cache: the only workload "
             "that runs the serving engine and the sharding router."),
        flush_policy="write-through pagers, engine group commit 8",
        spec_name="balanced", dataset="osm",
        cells=("btree", "lipp"),
        scale={"n_write_bulk": 30_000, "n_write_ops": 4_000},
        profile="ssd", buffer_blocks=4096, wal_group_commit=8,
        lookup_distribution="zipfian", sharded=True, clients=2, shards=2,
        replicas=2),
)}


@contextmanager
def registered_spec(workload: Workload):
    """Make a benchmark-defined mix visible to ``fresh_index`` by name.

    ``fresh_index`` looks workloads up in ``repro.workloads.WORKLOADS``;
    workload 3's mix is not one of the paper's six, so it is registered
    for the duration of the build and removed again.
    """
    if workload.spec_name != ZIPF_POOL_SPEC.name:
        yield
        return
    WORKLOADS[ZIPF_POOL_SPEC.name] = ZIPF_POOL_SPEC
    try:
        yield
    finally:
        del WORKLOADS[ZIPF_POOL_SPEC.name]


@contextmanager
def pinned_dataset():
    """Make ``fresh_index`` draw every dataset with :data:`DATASET_SEED`
    while the op stream still follows the run seed."""
    generate = bench_config.make_dataset
    bench_config.make_dataset = (
        lambda name, n, seed=None: generate(name, n, seed=DATASET_SEED))
    try:
        yield
    finally:
        bench_config.make_dataset = generate


def build_cell(workload: Workload, index_name: str, seed: int):
    """Load one cell: the dataset's fixed draw, the op stream from
    ``seed``.

    Returns the library's ``IndexSetup``: the loaded index (WAL attached
    where the workload logs), its bulk items and its op stream.
    """
    with pinned_dataset():
        return _build_cell(workload, index_name, seed)


def _build_cell(workload: Workload, index_name: str, seed: int):
    scale = Scale(seed=seed, **workload.scale)
    profile = SSD if workload.profile == "ssd" else HDD
    if workload.sharded:
        return fresh_sharded_index(
            index_name, workload.shards, workload.dataset,
            workload.spec_name, scale, profile=profile,
            buffer_blocks=workload.buffer_blocks,
            replicas=workload.replicas, durability=True,
            wal_group_commit=workload.wal_group_commit,
            lookup_distribution=workload.lookup_distribution)
    params = {"codec": workload.codec} if workload.codec else None
    with registered_spec(workload):
        return fresh_index(
            index_name, workload.dataset, workload.spec_name, scale,
            profile=profile, buffer_blocks=workload.buffer_blocks,
            index_params=params, wal_group_commit=workload.wal_group_commit,
            lookup_distribution=workload.lookup_distribution)
