"""fleet-rw: HTTP through ``repro router`` to one durable pool node.

The node is ``repro serve`` with the durable tier (``--data-dir``,
``--fsync always``), the pool backend (2 hash shards, 2 workers) and the
generated dataset; the router fronts it with one replica, hedging off
(one replica has nothing to hedge to) and the background health sweep off
(it would scrape the node mid-measurement).  One client sends one request
at a time (closed loop), and rescales each latency to the reference host
speed (``common.HostClock``).

Answers are checked after the measured passes against an in-process
monolith ``NNCSearch`` that replays the same mutations: every response
must carry the epoch the client expects and the monolith's oid set at
that epoch.

The traced run replays one pass on fresh state three ways -- through the
router, straight to the node, and in process through ``ServeApp`` over
the same durable pool manager -- and prices the router hop and HTTP as
differences of per-op-type medians down that ladder.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from common import (ROOT, HostClock, emit, end_to_end, host_speed, median,
                    metric, peak_rss_mb)
from common import host_facts, process_tree, provenance
from inputs import OPERATORS, fleet_inputs
from spans import OP, SpanLog, format_table, trace_path

import perlayer
from repro.core.nnc import NNCSearch
from repro.objects.io import save_objects
from repro.objects.uncertain import UncertainObject

FSYNC = "always"
NODE_ARGS = [
    "--shards", "2", "--partitioner", "hash", "--node-id", "n1",
    "--backend", "pool", "--workers", "2", "--fsync", FSYNC,
    "--host", "127.0.0.1", "--port", "0",
]
ROUTER_ARGS = [
    "--shards", "2", "--replication", "1", "--hedge-ms", "0",
    "--health-interval-s", "0", "--host", "127.0.0.1", "--port", "0",
]
#: Set-ups per run (each a cold start on a fresh data dir); setup_s is
#: their median.  The first cold start of a run tends to be the slowest,
#: so a median of five rests on the warm ones.
SETUPS = 5
#: Passes every run makes, however long they take: the plain reads of
#: two passes (390) support a p95 tail with 19 reads above it.
MIN_PASSES = 2
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
_URL = re.compile(r"http://(127\.0\.0\.1:\d+)")


# ------------------------------ processes ------------------------------ #

class Server:
    """One ``python -m repro <args>`` process, stdout/stderr to files."""

    def __init__(self, args: list[str], workdir: Path, tag: str) -> None:
        self.out = workdir / f"{tag}.out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.out, "wb") as out, \
                open(workdir / f"{tag}.err", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=ROOT, env=env, stdout=out, stderr=err,
                stdin=subprocess.DEVNULL,
            )
        self.tag = tag

    def wait_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            found = _URL.search(self.out.read_text(errors="replace"))
            if found:
                return found.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"{self.tag} did not start (see {self.out})")

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for it and its children
        (pool workers, resource tracker) to be gone."""
        children = process_tree(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:
            while running(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if running(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


def call(addr: str, path: str, body: bytes) -> tuple[int, dict, float]:
    """POST one pre-encoded request; returns (status, body, ms)."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=120)
    try:
        t0 = time.perf_counter()
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        ms = (time.perf_counter() - t0) * 1000.0
    finally:
        conn.close()
    return resp.status, json.loads(raw), ms


class Fleet:
    """A cold-started node, optionally behind a router."""

    def __init__(self, workdir: Path, dataset: Path, tag: str,
                 router: bool = True) -> None:
        self.servers: list[Server] = []
        data_dir = workdir / f"data-{tag}"
        try:
            node = Server(
                ["serve", "--dataset", str(dataset), "--data-dir",
                 str(data_dir), *NODE_ARGS], workdir, f"node-{tag}")
            self.servers.append(node)
            self.addr = node.wait_url()
            if router:
                rtr = Server(["router", "--node", f"n1=http://{self.addr}",
                              *ROUTER_ARGS], workdir, f"router-{tag}")
                self.servers.append(rtr)
                self.addr = rtr.wait_url()
        except BaseException:
            self.stop()
            raise

    def pids(self) -> list[int]:
        return [pid for s in self.servers for pid in s.pids()]

    def stop(self) -> None:
        for server in reversed(self.servers):
            server.stop()


# ------------------------------ sequence ------------------------------- #

class Sequence:
    """Request bodies of the warm-up and of each pass.

    Items are ``(kind, pass, what)``: a read's ``what`` is its ``Op``, a
    write's is an index into ``inp.writes``.  Write oids name the pass
    that inserted the object, so repeated passes never reuse an oid.
    """

    def __init__(self, inp) -> None:
        self.inp = inp
        self.queries = [
            json.dumps({
                "points": q.points.tolist(), "probs": q.probs.tolist(),
                "operator": op, "k": 1, "cache": False,
            }).encode()
            for q in inp.queries for op in OPERATORS
        ]

    @staticmethod
    def oid(pass_no: int, obj: int) -> str:
        return f"p{pass_no}o{obj}"

    def warmup(self) -> list[tuple]:
        """Inserts the objects pass 0's first round deletes."""
        first = [op.obj for op in self.inp.ops if op.prev_pass]
        return [("insert", -1, obj) for obj in first]

    def ops(self, pass_no: int) -> list[tuple]:
        out = []
        for op in self.inp.ops:
            if op.kind == "read":
                out.append(("read", pass_no, op))
            else:
                owner = pass_no - 1 if op.prev_pass else pass_no
                out.append((op.kind, owner, op.obj))
        return out

    def request(self, item) -> tuple[str, bytes, str]:
        """``(path, body, op type)`` of one sequence item."""
        kind, owner, what = item
        if kind == "read":
            body = self.queries[what.query * len(OPERATORS)
                                + OPERATORS.index(what.operator)]
            return "/query", body, "raw" if what.after_write else "read"
        oid = self.oid(owner, what)
        if kind == "insert":
            obj = self.inp.writes[what]
            body = json.dumps({"points": obj.points.tolist(),
                               "probs": obj.probs.tolist(),
                               "oid": oid}).encode()
            return "/insert", body, "insert"
        return "/delete", json.dumps({"oid": oid}).encode(), "delete"


class Client:
    """Closed-loop client recording latency, epoch and answer per op.

    ``samples`` and ``per_op`` hold latencies (ms) per op type and per
    operator of plain reads, rescaled to the reference host speed when
    ``run`` is given a clock; ``raw`` holds the wall-clock latencies per
    op type, and ``busy`` the summed (rescaled) op time in seconds.
    """

    def __init__(self, seq: Sequence, send) -> None:
        self.seq = seq
        self.send = send
        self.failed = 0
        self.log: list[tuple] = []  # (item, epoch, oids or None)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.per_op: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0

    def run(self, items: list, spans: SpanLog | None = None,
            measure: bool = True, clock: HostClock | None = None) -> float:
        """Send ``items`` in order; returns their wall time in seconds.

        With a ``clock`` the reference snippet is timed before every read,
        before the first write after a read and after the last op.
        """
        timed: list[tuple[str, str, int, float]] = []
        start = time.perf_counter()
        for n, item in enumerate(items):
            if clock is not None and (
                    n == 0 or "read" in (item[0], items[n - 1][0])):
                clock.mark(n)
            path, body, kind = self.seq.request(item)
            idx = None
            if spans is not None:
                spans.rid = f"{n}"
                op = item[2] if item[0] == "read" else None
                idx = spans.open(OP, kind=kind, bytes=len(body),
                                 operator=op.operator if op else "")
            try:
                status, resp, ms = self.send(path, body)
            except Exception:  # noqa: BLE001 -- counted as a failed op
                traceback.print_exc(file=sys.stderr)
                status, resp, ms = 0, {}, 0.0
            finally:
                if spans is not None:
                    spans.close(idx)
            if status != 200:
                print(f"{path} -> {status} {resp}", file=sys.stderr)
                self.failed += 1
                self.log.append((item, None, None))
                continue
            oids = (sorted(str(c["oid"]) for c in resp["candidates"])
                    if item[0] == "read" else None)
            self.log.append((item, resp.get("epoch"), oids))
            if measure:
                timed.append((kind, item[2].operator if kind == "read"
                              else "", n, ms))
        took = time.perf_counter() - start
        if clock is not None:
            clock.mark(len(items))
        for kind, operator, n, ms in timed:
            self.raw[kind].append(ms)
            if clock is not None:
                ms = clock.scale(n, ms)
            self.samples[kind].append(ms)
            if operator:
                self.per_op[operator].append(ms)
            self.busy += ms / 1000.0
        return took


def check_answers(inp, seq: Sequence, log: list[tuple]) -> int:
    """Replay ``log`` on a monolith; count wrong epochs and answers."""
    mono = NNCSearch(inp.objects)
    live: dict[str, UncertainObject] = {}
    epoch = 0
    wrong = 0
    for item, got_epoch, oids in log:
        kind, owner, what = item
        if got_epoch is None:
            continue  # already counted as failed
        if kind == "read":
            want = mono.run(inp.queries[what.query], what.operator, k=1)
            if got_epoch != epoch or oids != sorted(
                    str(o) for o in want.oids()):
                wrong += 1
            continue
        oid = seq.oid(owner, what)
        epoch += 1
        if kind == "insert":
            obj = inp.writes[what]
            live[oid] = UncertainObject(obj.points, obj.probs, oid=oid)
            mono.add_object(live[oid])
        else:
            mono.mask_object(live.pop(oid))
        if got_epoch != epoch:
            wrong += 1
    return wrong


# -------------------------------- runs --------------------------------- #

def run(seed: int, seconds: float, traced: bool) -> int:
    inp = fleet_inputs(seed)
    seq = Sequence(inp)
    print(json.dumps({"provenance": provenance(
        "fleet-rw", seed,
        program="repro router (R=1, hedging off) -> repro serve "
                "(durable, pool, 2 hash shards, 2 workers)",
        shape="independent n=20000 m=10 d=2 extent 40*scale k=1",
        fsync=FSYNC,
    )}), flush=True)
    workdir = ROOT / ".perfbench-work" / f"fleet-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        dataset = workdir / "objects.npz"
        save_objects(dataset, inp.objects)
        if traced:
            return run_traced(seed, inp, seq, workdir, dataset)
        return run_measured(seed, inp, seq, workdir, dataset, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_measured(seed, inp, seq, workdir, dataset, seconds) -> int:
    # Latencies are rescaled to the reference host speed (see HostClock);
    # set-up times are not.  A cold start's work runs in processes spawned
    # for it, and rescaled set-up medians spread wider than raw ones
    # (0.19-0.21 against 0.09-0.17 over ten runs).
    setups = []
    references = []
    fleet = None
    try:
        for s in range(SETUPS):
            t0 = time.perf_counter()
            fleet = Fleet(workdir, dataset, f"s{s}")
            # First request accepted: the node's pool is lazy, so this
            # read spawns its workers and publishes the shard segments.
            status, _, _ = call(fleet.addr, "/query", seq.queries[0])
            setups.append(time.perf_counter() - t0)
            if status != 200:
                raise RuntimeError(f"first request answered {status}")
            if s + 1 < SETUPS:
                fleet.stop()
        addr = fleet.addr
        client = Client(seq, lambda path, body: call(addr, path, body))
        client.run(seq.warmup(), measure=False)
        elapsed = took = 0.0
        passes = 0
        # Whole passes of the fixed sequence while another one fits.
        while passes < MIN_PASSES or elapsed + took <= seconds:
            clock = HostClock()
            took = client.run(seq.ops(passes), clock=clock)
            references.append(clock.median_ms())
            elapsed += took
            passes += 1
        rss = peak_rss_mb([os.getpid(), *fleet.pids()])
    finally:
        if fleet is not None:
            fleet.stop()
    wrong = check_answers(inp, seq, client.log)
    failed = client.failed + wrong
    attempted = len(client.log)
    s = client.samples
    metrics = end_to_end(
        setups, passes * len(inp.ops), client.busy,
        {op: client.per_op[op] for op in OPERATORS},
        s["read"], s["raw"], s["insert"], s["delete"], rss,
        plain_mode="plain reads",
        plain_per_run=MIN_PASSES * sum(
            1 for op in inp.ops if op.kind == "read" and not op.after_write),
        passes=passes, mismatches=wrong, fsync=FSYNC,
        answers_checked_against="monolith replay at each epoch",
        host_speed=host_speed(references, elapsed, setups, client.raw),
    )
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def _remote_rung(seq, workdir, dataset, tag, router) -> Client:
    fleet = Fleet(workdir, dataset, tag, router=router)
    try:
        addr = fleet.addr
        client = Client(seq, lambda path, body: call(addr, path, body))
        client.run(seq.warmup(), measure=False)
        client.run(seq.ops(0))
    finally:
        fleet.stop()
    return client


def _inprocess_rung(inp, seq, workdir, tag, spans: SpanLog):
    from repro.obs import MetricsRegistry
    from repro.serve.cache import ResultCache
    from repro.serve.durable import DurableDatasetManager
    from repro.serve.server import ServeApp

    registry = MetricsRegistry()
    manager = DurableDatasetManager(
        inp.objects, data_dir=workdir / f"data-{tag}", fsync=FSYNC,
        shards=2, partitioner="hash", backend="pool", workers=2,
        metrics=registry,
    )
    try:
        app = ServeApp(manager, cache=ResultCache(256, metrics=registry),
                       registry=registry)

        def send(path, body):
            t0 = time.perf_counter()
            status, resp = app.dispatch("POST", path, json.loads(body), {})
            json.dumps(resp)
            return status, resp, (time.perf_counter() - t0) * 1000.0

        client = Client(seq, send)
        client.run(seq.warmup(), measure=False)
        took = client.run(seq.ops(0), spans=spans)
    finally:
        manager.close()
    return client, took


def _pass_counts(spans: SpanLog) -> list[tuple]:
    return [s["counts"] for s in spans.spans
            if s["name"] == "shard" and "counts" in s]


def run_traced(seed, inp, seq, workdir, dataset) -> int:
    routed = _remote_rung(seq, workdir, dataset, "router", router=True)
    direct = _remote_rung(seq, workdir, dataset, "node", router=False)
    spans = SpanLog()
    again = SpanLog()
    perlayer.install(spans)
    try:
        inproc, took = _inprocess_rung(inp, seq, workdir, "a", spans)
    finally:
        spans.restore()
    perlayer.install_counts(again)
    try:
        inproc_b, took_b = _inprocess_rung(inp, seq, workdir, "b", again)
    finally:
        again.restore()
    clients = (routed, direct, inproc, inproc_b)
    failed = sum(c.failed for c in clients)
    failed += sum(check_answers(inp, seq, c.log) for c in clients)
    counts = _pass_counts(spans)
    repeat_ok = counts == _pass_counts(again) and inproc.log == inproc_b.log
    if not repeat_ok:
        print("per-read counts or answers differ between two passes",
              file=sys.stderr)
        failed += 1
    rungs = {
        kind: {"router": median(routed.samples[kind]),
               "node": median(direct.samples[kind])}
        for kind in ("read", "raw", "insert", "delete")
    }
    user_bytes = sum(s["bytes"] for s in spans.spans
                     if s["name"] == OP and s["kind"] in ("insert", "delete"))
    metrics, tables = perlayer.analyse(
        spans, counts, len(inp.objects), "read", rungs=rungs,
        user_bytes=user_bytes)
    metrics["trace.ops_per_s"] = metric(len(inp.ops) / took, "ops/s")
    metrics["trace.untraced_ops_per_s"] = metric(len(inp.ops) / took_b,
                                                 "ops/s")
    print("layer tables: rungs (router, http) + median self time per layer "
          "+ residual = routed e2e median")
    for kind, table in tables.items():
        print(format_table(kind, table))
    path = trace_path("fleet-rw", seed)
    spans.write(path)
    print(json.dumps({"spans": str(path.relative_to(ROOT)),
                      "counts_repeat": repeat_ok, "fsync": FSYNC,
                      "host": host_facts()}),
          flush=True)
    emit(failed == 0, sum(len(c.log) for c in clients), failed, metrics)
    return 0 if failed == 0 else 1
