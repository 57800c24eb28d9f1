"""core-anti: the north-star query on the in-process monolith.

The program is ``NNCSearch`` (kernels on, k=1).  One pass of the fixed
sequence (see ``inputs.anti_inputs``) sweeps the reads under SSD, SSSD,
PSD and FSD, then runs an insert/delete/read round.  Writes go through
``NNCSearch.add_object``/``mask_object``; every write is undone before
the next read, so every read has the pinned canonical answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from collections import defaultdict

from common import (ROOT, HostClock, emit, end_to_end, host_facts,
                    host_speed, metric, peak_rss_mb, provenance)
from inputs import OPERATORS, anti_inputs
from spans import OP, SpanLog, format_table, trace_path

import perlayer
from repro.core.nnc import NNCSearch
from repro.objects.uncertain import UncertainObject
from repro.serve.shard import ShardedSearch

#: Scalar-reference answers of the canonical reads (see make_pins.py).
PINS = ROOT / "perfbench" / "pins.json"
#: Set-ups per run; setup_s is their median.  An index build takes tens
#: of milliseconds and varies by a third between builds (every sixth or
#: so pays a full garbage collection), so many are needed for a median
#: that holds still.
SETUPS = 60


class Target:
    """The program under test: the monolith, plus the writes in flight."""

    def __init__(self, objects) -> None:
        self.search = NNCSearch(objects)
        self._live: dict[int, UncertainObject] = {}

    def read(self, query, operator: str):
        return self.search.run(query, operator, k=1)

    def insert(self, idx: int, obj: UncertainObject) -> None:
        # A fresh instance per insert: deletes tombstone by identity.
        copy = UncertainObject(obj.points, obj.probs, oid=obj.oid)
        self.search.add_object(copy)
        self._live[idx] = copy

    def delete(self, idx: int) -> None:
        copy = self._live.pop(idx)
        if not self.search.mask_object(copy):
            raise RuntimeError(f"delete of {copy.oid!r} found nothing")


def op_type(op) -> str:
    if op.kind != "read":
        return op.kind
    return "raw" if op.after_write else op.operator.lower()


def run_pass(target: Target, inp, log: SpanLog | None = None, tag: str = "",
             clock: HostClock | None = None):
    """One pass of the fixed sequence.

    Returns ``(samples, raw, answers, counts, failures, seconds, busy)``:
    latency samples (ms) per op type, the same as wall-clock times, the
    oid set of every read (None for writes), per-read count tuples, the
    number of failed ops, the pass's wall time and the summed op time in
    seconds.  With a ``clock`` the reference snippet is timed before every
    read, before the first write after a read and after the last op, and
    ``samples`` and ``busy`` are rescaled to the reference host speed.
    """
    timed: list[tuple[str, int, float]] = []
    answers: list = []
    counts: list = []
    failures = 0
    start = time.perf_counter()
    for i, op in enumerate(inp.ops):
        kind = op_type(op)
        if clock is not None and (
                i == 0 or "read" in (op.kind, inp.ops[i - 1].kind)):
            clock.mark(i)
        if log is not None:
            log.rid = f"{tag}{i}"
            idx = log.open(OP, kind=kind, operator=op.operator)
        try:
            t0 = time.perf_counter()
            if op.kind == "read":
                res = target.read(inp.queries[op.query], op.operator)
            elif op.kind == "insert":
                target.insert(op.obj, inp.writes[op.obj])
            else:
                target.delete(op.obj)
            ms = (time.perf_counter() - t0) * 1000.0
        except Exception:  # noqa: BLE001 -- a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failures += 1
            answers.append(None)
            continue
        finally:
            if log is not None:
                log.close(idx)
        timed.append((kind, i, ms))
        if op.kind == "read":
            answers.append(sorted(str(o) for o in res.oids()))
            counts.append(perlayer.read_counts(res))
        else:
            answers.append(None)
    seconds = time.perf_counter() - start
    raw: dict[str, list[float]] = defaultdict(list)
    for kind, _, ms in timed:
        raw[kind].append(ms)
    if clock is not None:
        clock.mark(len(inp.ops))
        timed = [(kind, i, clock.scale(i, ms)) for kind, i, ms in timed]
    samples: dict[str, list[float]] = defaultdict(list)
    for kind, _, ms in timed:
        samples[kind].append(ms)
    busy = sum(ms for _, _, ms in timed) / 1000.0
    return samples, raw, answers, counts, failures, seconds, busy


def inputs_digest(inp) -> str:
    """Fingerprint of the canonical objects and queries the pins answer."""
    digest = hashlib.sha256()
    for obj in (*inp.objects, *inp.queries):
        digest.update(str(obj.oid).encode())
        digest.update(obj.points.tobytes())
        digest.update(obj.probs.tobytes())
    return digest.hexdigest()


def load_pins(inp) -> dict | None:
    """Pinned oid sets per ``"query:operator"``, if they match the inputs."""
    if not PINS.exists():
        return None
    pins = json.loads(PINS.read_text())
    return pins["answers"] if pins["digest"] == inputs_digest(inp) else None


def read_answers(inp, run) -> dict:
    """Oid set of every canonical ``"query:operator"`` read.

    ``run(query, operator)`` answers one read.
    """
    return {
        f"{q}:{op}": sorted(str(o) for o in run(query, op).oids())
        for q, query in enumerate(inp.queries)
        for op in OPERATORS
    }


def pool_answers(inp) -> dict:
    """The canonical reads answered by ``ShardedSearch`` on the pool."""
    search = ShardedSearch(inp.objects, shards=2, backend="pool", workers=2)
    try:
        return read_answers(inp, lambda q, op: search.run(q, op, k=1))
    finally:
        search.close()


def check_answers(inp, runs: list[list]) -> tuple[int, str]:
    """Count reads whose oid set differs from the reference.

    Every read sees the canonical dataset (writes are undone before the
    next read), so the pins answer all of them.  Without valid pins the
    2-shard pool answers the canonical reads and the monolith must agree.
    """
    pins = load_pins(inp)
    source = "pinned scalar reference"
    if pins is None:
        pins, source = pool_answers(inp), "pool agreement"
    expected = [
        pins[f"{op.query}:{op.operator}"] if op.kind == "read" else None
        for op in inp.ops
    ]
    mismatches = sum(
        got is not None and got != want
        for answers in runs
        for got, want in zip(answers, expected)
    )
    return mismatches, source


def run(seed: int, seconds: float, traced: bool) -> int:
    inp = anti_inputs(seed)
    print(json.dumps({"provenance": provenance(
        "core-anti", seed,
        program="NNCSearch (kernels on)",
        shape="anti-correlated n=2000 m=10 d=2 k=1",
        fsync="n/a (no durable tier)",
    )}), flush=True)
    if traced:
        return run_traced(seed, inp)

    # Every time below is rescaled to the reference host speed by the
    # reference snippet timed on either side of it (see HostClock).
    clock = HostClock()
    setups = []
    for i in range(SETUPS):
        clock.mark(i)
        t0 = time.perf_counter()
        target = Target(inp.objects)
        setups.append(time.perf_counter() - t0)
    clock.mark(SETUPS)
    raw_setups = setups
    setups = [clock.scale(i, s) for i, s in enumerate(setups)]
    references = [clock.median_ms()]

    samples: dict[str, list[float]] = defaultdict(list)
    raw_samples: dict[str, list[float]] = defaultdict(list)
    runs = []
    failed = 0
    elapsed = took = busy = 0.0
    # Whole passes of the fixed sequence while another one fits.
    while not runs or elapsed + took <= seconds:
        clock = HostClock()
        got, raw, answers, _, failures, took, pass_busy = run_pass(
            target, inp, clock=clock)
        references.append(clock.median_ms())
        for kind, values in got.items():
            samples[kind].extend(values)
            raw_samples[kind].extend(raw[kind])
        runs.append(answers)
        failed += failures
        elapsed += took
        busy += pass_busy
        # Drop the pass's tombstones, restoring the loaded index.
        target.search.compact()
    rss = peak_rss_mb([os.getpid()])

    mismatches, source = check_answers(inp, runs)
    failed += mismatches
    attempted = len(inp.ops) * len(runs)

    metrics = end_to_end(
        setups, attempted, busy,
        {op: samples[op.lower()] for op in OPERATORS},
        # Reads after writes are SSD reads, so the plain reads they
        # compare with, and the tail is taken over, are the plain SSD
        # reads.  A run makes at least one pass.
        samples["ssd"], samples["raw"], samples["insert"], samples["delete"],
        rss, plain_mode="plain SSD reads",
        plain_per_run=sum(1 for op in inp.ops if op_type(op) == "ssd"),
        passes=len(runs), answers_checked_against=source,
        mismatches=mismatches,
        host_speed=host_speed(references, elapsed, raw_setups, raw_samples),
    )
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


# ------------------------------- traced -------------------------------- #

def run_traced(seed: int, inp) -> int:
    """One traced pass, then an untraced pass on fresh state.

    The untraced pass must repeat every per-read count exactly, and its
    throughput set against the traced pass's is the tracing overhead.
    """
    log = SpanLog()
    perlayer.install(log)
    try:
        target = Target(inp.objects)
        log.spans.clear()
        _, _, answers, counts, failed, took, _ = run_pass(
            target, inp, log, "a")
    finally:
        log.restore()
    _, _, answers_b, counts_b, failed_b, took_b, _ = run_pass(
        Target(inp.objects), inp)
    mismatches, source = check_answers(inp, [answers, answers_b])
    failed += failed_b + mismatches
    repeat_ok = counts == counts_b
    if not repeat_ok:
        print("per-read counts differ between two passes", file=sys.stderr)
        failed += 1
    metrics, tables = perlayer.analyse(log, counts, len(inp.objects), "ssd")
    metrics["trace.ops_per_s"] = metric(len(inp.ops) / took, "ops/s")
    metrics["trace.untraced_ops_per_s"] = metric(len(inp.ops) / took_b,
                                                 "ops/s")
    print("layer tables: median self time per layer + residual = e2e median")
    for kind, table in tables.items():
        print(format_table(kind, table))
    path = trace_path("core-anti", seed)
    log.write(path)
    print(json.dumps({"spans": str(path.relative_to(ROOT)),
                      "counts_repeat": repeat_ok,
                      "answers_checked_against": source,
                      "mismatches": mismatches,
                      "host": host_facts()}), flush=True)
    emit(failed == 0, 2 * len(inp.ops), failed, metrics)
    return 0 if failed == 0 else 1
