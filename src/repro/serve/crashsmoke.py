"""Kill-injection smoke for the durable tier (``repro.serve.durable``).

Run as ``python -m repro.serve.crashsmoke`` (CI job).  Each round:

1. starts a real ``repro serve`` subprocess with ``--data-dir`` (WAL +
   snapshots, ``--fsync always``) and ``--audit-log``,
2. fires a burst of inserts/deletes/queries at it over HTTP,
3. SIGKILLs it at a randomized point — every third round arms
   ``REPRO_WAL_KILL_AT_APPEND`` so the process dies **mid-WAL-frame**
   (torn tail), the rest kill after a random delay (any instant:
   mid-snapshot, mid-burst, idle),
4. computes the ground-truth durable epoch straight from the files
   (:func:`repro.serve.durable.durable_epoch`),
5. restarts the server and asserts the recovered ``/status`` epoch equals
   the ground truth **exactly**, and that an injected tear was flagged on
   the recovery report (never silently dropped),
6. serves more traffic, drains via SIGTERM (checkpoint on close), and
7. runs ``repro replay`` over the audit log — exit 0, proving the
   two-log reconciliation kept the black box replayable across the crash.

Exit code 0 = every round held; 1 = a round failed (details on stderr,
the round's workdir is left in place for inspection).
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
from repro.serve.durable import durable_epoch
from repro.serve.harness import ReproProcess, request

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")


class RoundFailure(AssertionError):
    """One crash round violated the durability contract."""


_request = functools.partial(request, timeout=10.0)


def _serve(args: list[str], env: dict | None = None) -> ReproProcess:
    """A ``repro serve`` subprocess; startup failures raise RoundFailure."""
    return ReproProcess(["serve", *args], env=env, failure=RoundFailure)


def _burst(
    port: int, rng: random.Random, stop: threading.Event,
    inserted: list, lock: threading.Lock,
) -> None:
    """Mixed traffic until stopped; connection errors expected at the kill."""
    dims = 2
    while not stop.is_set():
        try:
            roll = rng.random()
            if roll < 0.5:
                pts = [[rng.uniform(-5, 5) for _ in range(dims)]
                       for _ in range(3)]
                status, body = _request(
                    port, "POST", "/insert", {"points": pts}
                )
                if status == 200:
                    with lock:
                        inserted.append(body["oid"])
            elif roll < 0.7:
                with lock:
                    oid = inserted.pop() if inserted else None
                if oid is not None:
                    _request(port, "POST", "/delete", {"oid": oid})
            else:
                pts = [[rng.uniform(-5, 5) for _ in range(dims)]
                       for _ in range(2)]
                _request(port, "POST", "/query", {
                    "points": pts, "operator": rng.choice(OPERATORS),
                    "k": rng.randint(1, 3),
                })
        except (ConnectionError, OSError, http.client.HTTPException,
                json.JSONDecodeError):
            if stop.is_set():
                return
            time.sleep(0.01)


def run_round(
    workdir: Path, rnd: int, rng: random.Random, *, torn: bool
) -> dict:
    """One kill → recover → verify → replay cycle; returns a summary."""
    workdir.mkdir(parents=True, exist_ok=True)
    data_dir = workdir / "data"
    dataset = workdir / "dataset.npz"
    audit = workdir / "audit.jsonl"
    nprng = np.random.default_rng(1000 + rnd)
    objects = [
        UncertainObject(nprng.normal(size=(4, 2)), None, oid=i)
        for i in range(30)
    ]
    save_objects(dataset, objects)

    serve_args = [
        "--dataset", str(dataset), "--port", "0", "--shards", "2",
        "--backend", "serial", "--data-dir", str(data_dir),
        "--fsync", "always",
        "--snapshot-every", str(rng.randint(3, 10)),
        "--audit-log", str(audit),
        "--compact-threshold", "0.5",
    ]
    env = {}
    kill_at = 0
    if torn:
        kill_at = rng.randint(2, 8)
        env["REPRO_WAL_KILL_AT_APPEND"] = str(kill_at)

    server = _serve(serve_args, env=env)
    inserted: list = []
    lock = threading.Lock()
    stop = threading.Event()
    try:
        port = server.wait_port()
        burst = threading.Thread(
            target=_burst, args=(port, rng, stop, inserted, lock),
            daemon=True,
        )
        burst.start()
        if torn:
            # The k-th WAL append half-writes its frame and SIGKILLs the
            # process itself; wait for that, with a hard fallback.
            deadline = time.monotonic() + 30.0
            while server.proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            self_killed = server.proc.poll() is not None
        else:
            time.sleep(rng.uniform(0.05, 0.7))
            self_killed = False
    finally:
        stop.set()
        server.kill()

    expected_epoch, tail = durable_epoch(data_dir)
    if torn and self_killed and tail is None:
        raise RoundFailure(
            f"round {rnd}: kill-at-append {kill_at} fired but the WAL "
            "shows no torn tail"
        )

    # ---- warm restart: the recovered epoch must be exact -------------- #
    server = _serve(serve_args)  # no kill env this time
    try:
        port = server.wait_port()
        deadline = time.monotonic() + 30.0
        status_body = None
        while time.monotonic() < deadline:
            try:
                code, body = _request(port, "GET", "/status")
                if code == 200 and body.get("status") in ("ok", "compacting"):
                    status_body = body
                    break
            except (ConnectionError, OSError, http.client.HTTPException):
                pass
            time.sleep(0.05)
        if status_body is None:
            raise RoundFailure(f"round {rnd}: restarted server never ready")
        got = status_body["epoch"]
        if got != expected_epoch:
            raise RoundFailure(
                f"round {rnd}: recovered epoch {got} != durable epoch "
                f"{expected_epoch} (torn={torn})"
            )
        recovery = status_body.get("recovery") or {}
        if tail is not None and recovery.get("wal_torn") is None:
            raise RoundFailure(
                f"round {rnd}: torn WAL tail at offset {tail.offset} was "
                "not flagged on the recovery report"
            )
        # A little post-restart life, then a clean drain (checkpoints).
        code, _ = _request(port, "POST", "/insert",
                           {"points": [[0.1, 0.2], [0.3, 0.4]]})
        if code != 200:
            raise RoundFailure(f"round {rnd}: post-restart insert -> {code}")
        rc = server.terminate()
        if rc != 0:
            raise RoundFailure(f"round {rnd}: drain exited rc={rc}")
    finally:
        server.kill()

    # ---- the black box must still replay ------------------------------ #
    replay = subprocess.run(
        [sys.executable, "-m", "repro", "replay", str(audit),
         "--dataset", str(dataset), "--shards", "2"],
        capture_output=True, text=True, timeout=300.0,
    )
    if replay.returncode != 0:
        raise RoundFailure(
            f"round {rnd}: repro replay exited {replay.returncode}:\n"
            f"{replay.stdout}\n{replay.stderr}"
        )
    return {
        "round": rnd,
        "torn_injected": torn,
        "torn_observed": tail is not None,
        "recovered_epoch": expected_epoch,
        "audit_reconciled": recovery.get("audit_reconciled", 0),
        "recovery_source": recovery.get("source"),
    }


def main(argv=None) -> int:
    """Run the kill-injection rounds; exit 0 iff every round recovered."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", metavar="DIR",
                        help="round artifacts land here (kept on failure); "
                        "default: a temp dir, removed on success")
    args = parser.parse_args(argv)

    base = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="crashsmoke-")
    )
    rng = random.Random(args.seed)
    failures = 0
    for rnd in range(args.rounds):
        torn = rnd % 3 == 2
        rdir = base / f"round-{rnd:03d}"
        try:
            summary = run_round(rdir, rnd, rng, torn=torn)
        except RoundFailure as exc:
            failures += 1
            print(f"FAIL {exc}", file=sys.stderr)
            print(f"     artifacts kept in {rdir}", file=sys.stderr)
            continue
        print(
            f"round {rnd:2d}: ok  epoch={summary['recovered_epoch']:<4d} "
            f"source={summary['recovery_source']:<8s} "
            f"torn={'flagged' if summary['torn_observed'] else 'no':<7s} "
            f"reconciled={summary['audit_reconciled']}"
        )
        shutil.rmtree(rdir, ignore_errors=True)
    if failures:
        print(f"crashsmoke: {failures}/{args.rounds} round(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"crashsmoke: all {args.rounds} round(s) recovered exactly")
    if not args.workdir:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
