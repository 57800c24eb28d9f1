"""Per-layer metrics of the traced run, named by the program's modules.

``install`` wraps the public calls each layer is timed by.  ``analyse``
reduces the spans of one traced pass to the flat ``per_layer`` metrics of
``BENCHMARK.json`` and to one reconciled layer table per operation type.

Every per-layer metric is printed for every workload; a layer the
workload never crosses reads 0 (no time, no work).  Time metrics are
medians over the operations of one type: the plain reads that
``read_p50_ms`` is taken over (plain SSD reads in core-anti, all
plain reads in fleet-rw), or the writes.  Counts are totals over
every read of one pass and repeat exactly for a seed.
"""

from __future__ import annotations

import os

from common import median, metric
from inputs import OPERATORS
from spans import SpanLog, layer_table, ladder_table

from repro.core.nnc import NNCSearch
from repro.index.rtree import RTree
from repro.serve import durable as durable_mod
from repro.serve import shm as shm_mod
from repro.serve import wal as wal_mod
from repro.serve.server import ServeApp
from repro.serve.shard import ShardedSearch
from repro.serve.shm import SegmentStore
from repro.serve.updates import DatasetManager
from repro.serve.wal import WriteAheadLog

#: Counter fields read from every result, in count-tuple order.
COUNT_FIELDS = (
    "dominance_checks", "instance_comparisons", "maxflow_calls",
    "kernel_elements", "scalar_fallbacks", "nodes_visited", "mbr_tests",
    "objects_visited",
)
COUNT_TUPLE = COUNT_FIELDS + ("candidates", "refine_checks", "survivors")

#: name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    **{f"core.{op.lower()}_ms": "ms" for op in OPERATORS},
    "core.query_ms": "ms",
    "core.dominance_checks": "count",
    "core.instance_comparisons": "count",
    "core.maxflow_calls": "count",
    "core.kernel_elements": "count",
    "core.scalar_fallbacks": "count",
    "core.candidates": "count",
    "core.check_yield": "ratio",
    "index.insert_ms": "ms",
    "index.nodes_visited": "count",
    "index.mbr_tests": "count",
    "index.objects_visited": "count",
    "index.prune_ratio": "ratio",
    "shard.query_ms": "ms",
    "shard.worker_ms": "ms",
    "shard.gather_ms": "ms",
    "shard.refine_checks": "count",
    "shard.survivors": "count",
    "shard.survivor_yield": "ratio",
    "shm.publish_ms": "ms",
    "shm.segment_mb": "MB",
    "shm.reattach_ms": "ms",
    "shm.reattach_share": "ratio",
    "updates.write_ms": "ms",
    "wal.append_ms": "ms",
    "wal.fsyncs": "count",
    "wal.bytes_per_write": "ratio",
    "durable.checkpoints": "count",
    "durable.checkpoint_ms": "ms",
    "server.dispatch_ms": "ms",
    **{f"{rung}.{kind}_ms": "ms"
       for rung in ("http", "router")
       for kind in ("read", "raw", "insert", "delete")},
    "trace.ops_per_s": "ops/s",
    "trace.untraced_ops_per_s": "ops/s",
}

#: Layer rows of the in-process tables, outermost first.
LAYERS = ("server", "updates", "wal", "durable", "shard", "shm", "core",
          "index")


def read_counts(res) -> tuple:
    """Exact per-read work counts of an NNCResult or ShardedResult."""
    snap = res.counters.snapshot()
    survivors = sum(row["survivors"] for row in getattr(res, "per_shard", []))
    return (
        *(snap[f] for f in COUNT_FIELDS),
        len(res),
        getattr(res, "refine_checks", 0),
        survivors,
    )


# ------------------------------ wrapping ------------------------------- #

def _counts(log, idx, args, result) -> None:
    log.spans[idx]["counts"] = read_counts(result)


def _shard_done(log, idx, args, result) -> None:
    _counts(log, idx, args, result)
    if result.backend == "pool":
        worker = max((row["elapsed"] for row in result.per_shard), default=0)
        log.child(idx, "core", worker)


def _packed(log, idx, args, result) -> None:
    log.spans[idx]["bytes"] = len(result)


def _appended(log, idx, args, result) -> None:
    record = args[1]
    frame = wal_mod.encode_frame({"seq": result, **record})
    log.spans[idx]["bytes"] = len(frame)


def install_counts(log: SpanLog) -> None:
    """Record per-read counts only: the untraced side of a traced run."""
    log.wrap(ShardedSearch, "run", "shard", after=_counts)


def install(log: SpanLog) -> None:
    """Wrap the public calls every layer is timed by (restore() undoes)."""
    log.wrap(NNCSearch, "run", "core", after=_counts)
    log.wrap(NNCSearch, "add_object", "core")
    log.wrap(NNCSearch, "mask_object", "core")
    log.wrap(RTree, "insert", "index")
    log.wrap(RTree, "delete", "index")
    log.wrap(ShardedSearch, "run", "shard", after=_shard_done)
    log.wrap(ShardedSearch, "insert", "shard")
    log.wrap(ShardedSearch, "mask", "shard")
    log.wrap(SegmentStore, "publish", "shm")
    log.wrap(shm_mod, "pack_shard", "shm", after=_packed)
    log.wrap(DatasetManager, "insert", "updates")
    log.wrap(DatasetManager, "delete", "updates")
    log.wrap(WriteAheadLog, "append", "wal", after=_appended)
    log.wrap(WriteAheadLog, "sync", "wal")
    log.wrap(durable_mod, "write_snapshot", "durable")
    log.wrap(ServeApp, "dispatch", "server")
    for name in ("handle_query", "handle_insert", "handle_delete"):
        log.wrap(ServeApp, name, "server")
    log.tally(os, "fsync", "fsyncs")


# ------------------------------ analysis ------------------------------- #

def analyse(log: SpanLog, counts: list[tuple], n_objects: int,
            read_kind: str, rungs: dict | None = None,
            user_bytes: int = 0) -> tuple[dict, dict]:
    """Per-layer metrics and layer tables from one traced pass.

    ``read_kind`` names the plain-read op type the read-path medians are
    taken over; ``rungs`` (fleet-rw only) maps op type to the median
    client latency ``{"router": ms, "node": ms}`` of the same pass replayed
    through the router and straight to the node.
    """
    out = {name: metric(0.0, unit) for name, unit in PER_LAYER.items()}
    roots: dict[str, list[int]] = {}
    for i in log.ops():
        roots.setdefault(log.spans[i]["kind"], []).append(i)
    selfs = {i: log.self_times(i) for ids in roots.values() for i in ids}

    def med(ids, layer) -> float:
        return median(selfs[i].get(layer, 0.0) * 1000.0 for i in ids)

    reads = roots[read_kind]
    raws = roots.get("raw", [])
    writes = roots.get("insert", []) + roots.get("delete", [])
    totals = dict(zip(COUNT_TUPLE, map(sum, zip(*counts))))

    for op in OPERATORS:
        ids = [i for ids in roots.values() for i in ids
               if log.spans[i].get("operator") == op
               and log.spans[i]["kind"] not in ("raw", "insert", "delete")]
        out[f"core.{op.lower()}_ms"] = metric(med(ids, "core"), "ms")
    out["core.query_ms"] = metric(med(reads, "core"), "ms")
    for f in ("dominance_checks", "instance_comparisons", "maxflow_calls",
              "kernel_elements", "scalar_fallbacks", "candidates"):
        out[f"core.{f}"] = metric(totals[f], "count")
    out["core.check_yield"] = metric(
        totals["candidates"] / max(1, totals["dominance_checks"]), "ratio")
    if roots.get("insert"):
        out["index.insert_ms"] = metric(med(roots["insert"], "index"), "ms")
    for f in ("nodes_visited", "mbr_tests", "objects_visited"):
        out[f"index.{f}"] = metric(totals[f], "count")
    # Share of indexed objects each read's descent never reached:
    # pruned / (pruned + visited).  The program counts visited objects,
    # not pruned index entries, so pruned = indexed - visited.
    out["index.prune_ratio"] = metric(
        1.0 - totals["objects_visited"] / (len(counts) * n_objects), "ratio")

    sharded = any("shard" in selfs[i] for i in reads)
    reattach = 0.0
    if sharded:
        gather = med(reads, "shard")
        worker = med(reads, "core")
        out["shard.gather_ms"] = metric(gather, "ms")
        out["shard.worker_ms"] = metric(worker, "ms")
        out["shard.query_ms"] = metric(median(
            (selfs[i].get("shard", 0.0) + selfs[i].get("core", 0.0)) * 1e3
            for i in reads), "ms")
        out["shard.refine_checks"] = metric(totals["refine_checks"], "count")
        out["shard.survivors"] = metric(totals["survivors"], "count")
        out["shard.survivor_yield"] = metric(
            totals["candidates"] / max(1, totals["survivors"]), "ratio")
        if raws:
            reattach = med(raws, "shard") - gather
            out["shm.reattach_ms"] = metric(reattach, "ms")
    if writes and any("shm" in selfs[i] for i in writes):
        out["shm.publish_ms"] = metric(med(writes, "shm"), "ms")
        packed = [s["bytes"] for s in log.spans
                  if s["name"] == "shm" and "bytes" in s and s["rid"]]
        out["shm.segment_mb"] = metric(median(packed) / 1e6, "MB")
    if writes and any("updates" in selfs[i] for i in writes):
        out["updates.write_ms"] = metric(med(writes, "updates"), "ms")
        out["wal.append_ms"] = metric(med(writes, "wal"), "ms")
        wal = [s for s in log.spans if s["name"] == "wal" and s["rid"]]
        out["wal.fsyncs"] = metric(sum(s.get("fsyncs", 0) for s in wal),
                                   "count")
        out["wal.bytes_per_write"] = metric(
            sum(s.get("bytes", 0) for s in wal) / max(1, user_bytes), "ratio")
        snaps = [s for s in log.spans if s["name"] == "durable"]
        out["durable.checkpoints"] = metric(len(snaps), "count")
        if snaps:
            out["durable.checkpoint_ms"] = metric(
                median((s["end"] - s["start"]) * 1e3 for s in snaps), "ms")
    if any("server" in selfs[i] for i in reads):
        out["server.dispatch_ms"] = metric(med(reads, "server"), "ms")

    layers = [layer for layer in LAYERS
              if any(layer in selfs[i] for i in selfs)]
    tables = {kind: layer_table(log, ids, layers, selfs)
              for kind, ids in roots.items()}
    if "raw" in tables and sharded:
        # The read-after-write gap is the re-attach of the republished
        # segment: move it from the shard row to its own shm row.
        rows = tables["raw"]["rows"]
        rows["shard"] -= reattach
        rows["shm"] = rows.get("shm", 0.0) + reattach
        gap = tables["raw"]["e2e_ms"] - tables[read_kind]["e2e_ms"]
        if gap > 0:
            out["shm.reattach_share"] = metric(reattach / gap, "ratio")
    if rungs:
        for kind, rung in rungs.items():
            tables[kind] = ladder_table(rung, tables[kind])
            out[f"router.{kind}_ms"] = metric(tables[kind]["rows"]["router"],
                                              "ms")
            out[f"http.{kind}_ms"] = metric(tables[kind]["rows"]["http"],
                                            "ms")
    return out, tables
