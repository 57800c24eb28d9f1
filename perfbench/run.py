"""Repository benchmark: one NNC workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload core-anti --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``core-anti`` -- in-process ``NNCSearch`` on the north-star shape;
* ``fleet-rw``  -- HTTP through ``repro router`` to a durable pool node.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced pass that yields the per-layer metrics and layer tables.  The last
line of standard output is the result object; the exit code is 0 only
when every operation succeeded with a correct answer.

The workload runs in a child process under a supervisor that reaps every
process the run leaves behind, so nothing the benchmark started outlives
the command.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("core-anti", "fleet-rw")
#: prctl option that re-parents orphaned descendants to the caller.
PR_SET_CHILD_SUBREAPER = 36
#: How long orphans (pool workers, multiprocessing's resource tracker,
#: which unlinks leaked segments once its parent is gone) may take to end
#: on their own before they are killed.
REAP_GRACE_S = 30.0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.child:
        return supervise(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A stop request unwinds through the workloads' finally blocks, which
    # stop the pool workers and servers they started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "fleet-rw":
        import fleet

        return fleet.run(args.seed, args.seconds, bool(args.trace))
    import engine

    return engine.run(args.seed, args.seconds, bool(args.trace))


def supervise(argv: list[str]) -> int:
    """Run the workload in a child; return its exit code once every
    process it started has ended.

    As a child subreaper this process inherits the run's orphans instead
    of init, waits for each, and kills those still running after
    ``REAP_GRACE_S``.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--child"])
    done = False

    def forward(signum, _frame) -> None:
        if not done:
            os.kill(child.pid, signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    # Reap orphans as they end (a stopped server's resource tracker)
    # until the workload itself exits.
    while True:
        pid, status = os.waitpid(-1, 0)
        if pid == child.pid:
            done = True
            break
    reap()
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


def reap() -> None:
    """Wait for every remaining child; kill them after the grace period."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def children() -> list[int]:
    """Direct children of this process (from /proc)."""
    out: list[int] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return out


if __name__ == "__main__":
    sys.exit(main())
