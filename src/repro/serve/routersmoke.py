"""Kill-a-replica smoke for the router tier (``repro.serve.router``).

Run as ``python -m repro.serve.routersmoke`` (CI job).  The scenario:

1. generates a dataset and starts three real ``repro serve`` node
   processes (``--partitioner hash --shards S --node-id nK``) plus a
   ``repro router`` subprocess fronting them with replication 2, an
   audit log, and end-to-end trace sampling,
2. drives mixed read/write traffic through the router over HTTP,
3. SIGKILLs one node mid-stream and keeps the traffic flowing — every
   read must keep answering 200 (hedging + breaker failover; writes may
   go partial, which is reported but legal with a surviving replica),
4. drains the router and the surviving nodes via SIGTERM,
5. runs ``repro replay --partitioner hash`` over the *router's* audit
   log — exit 0 proves the distributed answers were bit-identical to a
   single-process rebuild of the same mutation history,
6. checks the merged trace directory is non-empty (fleet-wide traces
   survived the kill).

Exit code 0 = the contract held; 1 = details on stderr, artifacts kept.
"""

from __future__ import annotations

import argparse
import functools
import http.client
import json
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.objects.io import save_objects
from repro.objects.uncertain import UncertainObject
from repro.serve.harness import ReproProcess, request

OPERATORS = ("SSD", "SSSD", "PSD", "FSD", "F+SD")


class SmokeFailure(AssertionError):
    """The router smoke violated its availability/exactness contract."""


_request = functools.partial(request, timeout=15.0)
_Proc = functools.partial(ReproProcess, failure=SmokeFailure)


class _Traffic:
    """Mixed router traffic on a thread, with a read-failure ledger."""

    def __init__(self, port: int, rng: random.Random) -> None:
        self.port = port
        self.rng = rng
        self.stop = threading.Event()
        self.reads = 0
        self.read_failures: list[str] = []
        self.writes = 0
        self.partial_writes = 0
        self.write_failures = 0
        self.inserted: list[str] = []
        self._lock = threading.Lock()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self.stop.is_set():
            roll = self.rng.random()
            try:
                if roll < 0.6:
                    self._read()
                elif roll < 0.85:
                    self._insert()
                else:
                    self._delete()
            except (ConnectionError, OSError, http.client.HTTPException,
                    json.JSONDecodeError) as exc:
                # The router itself must stay reachable throughout: any
                # transport failure talking to it is a read failure even
                # if the request was a write (the ledger is what fails
                # the smoke, and a vanished router fails it loudly).
                self.read_failures.append(f"router transport: {exc!r}")
            time.sleep(0.002)

    def _read(self) -> None:
        pts = [[self.rng.uniform(0, 10_000) for _ in range(2)]
               for _ in range(3)]
        status, body = _request(self.port, "POST", "/query", {
            "points": pts,
            "operator": self.rng.choice(OPERATORS),
            "k": self.rng.randint(1, 3),
            "cache": False,
        })
        self.reads += 1
        if status != 200:
            self.read_failures.append(f"query -> {status}: {body}")

    def _insert(self) -> None:
        pts = [[self.rng.uniform(0, 10_000) for _ in range(2)]
               for _ in range(3)]
        status, body = _request(self.port, "POST", "/insert",
                                {"points": pts})
        self.writes += 1
        if status == 200:
            with self._lock:
                self.inserted.append(body["oid"])
            if body.get("partial"):
                self.partial_writes += 1
        elif status == 503:
            self.write_failures += 1
        else:
            self.read_failures.append(f"insert -> {status}: {body}")

    def _delete(self) -> None:
        with self._lock:
            oid = self.inserted.pop() if self.inserted else None
        if oid is None:
            return
        status, body = _request(self.port, "POST", "/delete", {"oid": oid})
        self.writes += 1
        if status == 200:
            if body.get("partial"):
                self.partial_writes += 1
        elif status == 503:
            self.write_failures += 1
        elif status != 404:
            self.read_failures.append(f"delete -> {status}: {body}")


def run_smoke(workdir: Path, *, seed: int, shards: int, n_objects: int,
              kill_after_s: float, run_after_kill_s: float) -> dict:
    """One fleet lifecycle; returns a summary dict, raises SmokeFailure."""
    workdir.mkdir(parents=True, exist_ok=True)
    dataset = workdir / "dataset.npz"
    audit = workdir / "router-audit.jsonl"
    trace_dir = workdir / "traces"
    nprng = np.random.default_rng(seed)
    objects = [
        UncertainObject(nprng.uniform(0, 10_000, size=(4, 2)), None, oid=i)
        for i in range(n_objects)
    ]
    save_objects(dataset, objects)

    node_ids = ("n1", "n2", "n3")
    nodes: dict[str, ReproProcess] = {}
    router: ReproProcess | None = None
    rng = random.Random(seed)
    try:
        for nid in node_ids:
            nodes[nid] = _Proc([
                "serve", "--dataset", str(dataset), "--port", "0",
                "--shards", str(shards), "--partitioner", "hash",
                "--backend", "serial", "--node-id", nid,
                "--compact-threshold", "1.0",
            ])
        ports = {nid: proc.wait_port() for nid, proc in nodes.items()}

        router_args = ["router", "--shards", str(shards),
                       "--replication", "2", "--port", "0",
                       "--hedge-ms", "50", "--health-interval-s", "0.5",
                       "--node-timeout-s", "5",
                       "--sample", "0.25", "--trace-dir", str(trace_dir),
                       "--audit-log", str(audit)]
        for nid, port in ports.items():
            router_args += ["--node", f"{nid}=http://127.0.0.1:{port}"]
        router = _Proc(router_args)
        router_port = router.wait_port()

        status, body = _request(router_port, "GET", "/healthz")
        if status != 200 or body.get("role") != "router":
            raise SmokeFailure(f"router /healthz -> {status}: {body}")

        traffic = _Traffic(router_port, rng)
        traffic.thread.start()
        time.sleep(kill_after_s)

        victim = rng.choice(node_ids)
        nodes[victim].kill()
        time.sleep(run_after_kill_s)

        traffic.stop.set()
        traffic.thread.join(timeout=60.0)
        if traffic.thread.is_alive():
            raise SmokeFailure("traffic thread failed to stop")
        if traffic.read_failures:
            sample = "\n  ".join(traffic.read_failures[:10])
            raise SmokeFailure(
                f"{len(traffic.read_failures)} failed request(s) with a "
                f"surviving replica for every shard:\n  {sample}"
            )
        if traffic.reads < 20:
            raise SmokeFailure(
                f"only {traffic.reads} reads completed — smoke too short "
                "to mean anything"
            )

        status, health = _request(router_port, "GET", "/healthz")
        if status != 200:
            raise SmokeFailure(f"post-kill /healthz -> {status}")
        dead_breaker = health["nodes"][victim]["breaker"]

        rc = router.terminate()
        if rc != 0:
            raise SmokeFailure(f"router drain exited rc={rc}")
        for nid, proc in nodes.items():
            if nid == victim:
                continue
            rc = proc.terminate()
            if rc != 0:
                raise SmokeFailure(f"node {nid} drain exited rc={rc}")
    finally:
        if router is not None:
            router.kill()
        for proc in nodes.values():
            proc.kill()

    # ---- the router's black box must replay bit-for-bit --------------- #
    replay = subprocess.run(
        [sys.executable, "-m", "repro", "replay", str(audit),
         "--dataset", str(dataset), "--shards", str(shards),
         "--partitioner", "hash"],
        capture_output=True, text=True, timeout=600.0,
    )
    if replay.returncode != 0:
        raise SmokeFailure(
            f"repro replay exited {replay.returncode}:\n"
            f"{replay.stdout}\n{replay.stderr}"
        )
    traces = sorted(trace_dir.glob("trace-*.json")) if trace_dir.is_dir() \
        else []
    if not traces:
        raise SmokeFailure("no merged traces were written")
    return {
        "reads": traffic.reads,
        "writes": traffic.writes,
        "partial_writes": traffic.partial_writes,
        "retryable_write_failures": traffic.write_failures,
        "victim": victim,
        "victim_breaker": dead_breaker,
        "traces": len(traces),
        "replay": replay.stdout.strip().splitlines()[-1]
        if replay.stdout.strip() else "",
    }


def main(argv=None) -> int:
    """Run the kill-a-replica smoke; exit 0 iff the contract held."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--n", type=int, default=80, dest="n_objects")
    parser.add_argument("--kill-after-s", type=float, default=3.0,
                        help="traffic warm-up before the SIGKILL")
    parser.add_argument("--run-after-kill-s", type=float, default=6.0,
                        help="traffic kept flowing against the degraded "
                        "fleet (longer than the breaker cooldown)")
    parser.add_argument("--workdir", metavar="DIR",
                        help="artifacts land here (kept on failure); "
                        "default: a temp dir, removed on success")
    args = parser.parse_args(argv)

    base = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="routersmoke-")
    )
    try:
        summary = run_smoke(
            base, seed=args.seed, shards=args.shards,
            n_objects=args.n_objects, kill_after_s=args.kill_after_s,
            run_after_kill_s=args.run_after_kill_s,
        )
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        print(f"     artifacts kept in {base}", file=sys.stderr)
        return 1
    print(
        f"routersmoke: ok  reads={summary['reads']} "
        f"writes={summary['writes']} "
        f"(partial={summary['partial_writes']}, "
        f"retryable-failed={summary['retryable_write_failures']}) "
        f"victim={summary['victim']} "
        f"breaker={summary['victim_breaker']} "
        f"traces={summary['traces']}"
    )
    if summary["replay"]:
        print(f"routersmoke: {summary['replay']}")
    if not args.workdir:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
