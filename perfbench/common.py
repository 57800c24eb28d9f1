"""Statistics, process memory, provenance and the result line.

Statistic rules (kept in one place so every workload obeys them):

* latencies are reported as medians -- never means or low quantiles --
  of times rescaled to a reference host speed (``HostClock``);
* a median never mixes cost modes: each operator, plain reads and
  reads-after-write are separate samples;
* a tail is taken over one cost mode only, at the highest percentile of
  ``TAIL_LADDER`` that leaves at least ``TAIL_MIN_BEYOND`` samples above
  it.  The percentile is chosen from the fewest samples of that mode a
  run can take, so it is the same on every run of a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(samples_per_pass: int) -> float:
    """Highest ladder percentile with >= TAIL_MIN_BEYOND samples beyond."""
    for pct in TAIL_LADDER:
        if samples_per_pass * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct
    raise ValueError(
        f"a pass of {samples_per_pass} reads cannot support a tail"
    )


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(list(values), dtype=float), pct))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0


def children(pid: int) -> list[int]:
    """Direct children of a live process (from /proc)."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree = [pid]
    for child in children(pid):
        tree.extend(process_tree(child))
    return tree


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM over processes (each read while still alive)."""
    return sum(vm_hwm_mb(pid) for pid in sorted(set(pids)))


#: Nominal time of the host-speed reference snippet, in ms: a host on
#: which ``reference_ms`` reads this value is the reference host.
REF_MS = 2.5
_REF_RNG = np.random.default_rng(0)
#: The snippet's data: many small arrays, each the shape of one object's
#: instances, as the core's per-object work walks them.
_REF_ARRAYS = [_REF_RNG.random((10, 2)) for _ in range(4000)]
_REF_POINT = _REF_RNG.random(2)


def reference_ms() -> float:
    """Time of a fixed snippet of benchmark code, in ms (median of three).

    The snippet computes a nearest distance for every eighth of 4000 small
    arrays: Python object traversal plus small numpy calls over a few MB,
    the mix the core runs, so it slows with the host as the core does
    (over eight fresh processes whose SSD reads' medians spread 47%, the
    reads rescaled by it spread 6%; a snippet over one 64 KB array left
    23%).  It is the benchmark's own code, so no program change moves it;
    only the host's speed does.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for arr in _REF_ARRAYS[::8]:
            np.sqrt(((arr - _REF_POINT) ** 2).sum(-1)).min()
        times.append((time.perf_counter() - t0) * 1000.0)
    return median(times)


class HostClock:
    """Rescales program times to the reference host's speed.

    On shared hardware the CPU's speed drifts by tens of percent within
    seconds and between minutes, and a single-process CPU-bound workload
    follows it in full.  ``mark(pos)`` times the reference snippet just
    before sequence position ``pos``; ``scale(pos, ms)`` rescales a time
    taken at ``pos`` by the marks on either side of it::

        scaled = ms * REF_MS / mean(reference before, reference after)

    so a slower host, which slows the snippet and the program alike,
    leaves the scaled time where it was, while a slower program does not.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []

    def mark(self, pos: int) -> None:
        self.marks.append((pos, reference_ms()))

    def scale(self, pos: int, ms: float) -> float:
        before = max((m for m in self.marks if m[0] <= pos),
                     key=lambda m: m[0])[1]
        after = min((m for m in self.marks if m[0] > pos),
                    key=lambda m: m[0])[1]
        return ms * REF_MS * 2.0 / (before + after)

    def median_ms(self) -> float:
        """Median time of the reference snippet over the marks."""
        return median(ms for _, ms in self.marks)


def host_speed(references, wall_s: float, raw_setups, raw: dict) -> dict:
    """Summary-line record of the rescaling: the reference the times were
    scaled to, the snippet's median time over the run and the wall-clock
    medians the rescaled metrics came from."""
    return {
        "scaled_to_reference_ms": REF_MS,
        "reference_median_ms": median(references),
        "wall_s": wall_s,
        "raw_setup_s": median(raw_setups),
        "raw_p50_ms": {kind: median(v) for kind, v in sorted(raw.items())},
    }


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


_TICKS_AT_START = _cpu_ticks()


def host_facts() -> dict:
    """How fast the host ran: a fixed CPU loop and the stolen CPU share.

    Neither is a metric; they tell a slow host apart from a slow program
    when two sets of runs of the same code disagree.
    """
    loops = []
    for _ in range(5):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        loops.append((time.perf_counter() - t0) * 1000.0)
    steal, total = _cpu_ticks()
    return {
        "cpu_loop_ms": round(median(loops), 3),
        "steal_share": round((steal - _TICKS_AT_START[0])
                             / max(1, total - _TICKS_AT_START[1]), 4),
    }


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program sources, so a run outside git is traceable."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, **extra) -> dict:
    """Facts that make a result comparable: code, box, inputs, policy."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha or "unknown",
        "git_dirty": (bool(status) if status is not None else None),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **extra,
    }


def end_to_end(setups, ops_done: int, elapsed: float, per_op: dict,
               plain, raw, inserts, deletes, rss: float, *,
               plain_mode: str, plain_per_run: int, **facts) -> dict:
    """The end-to-end metrics of one run; prints its summary line.

    ``per_op`` maps operator to plain-read latencies; ``plain`` are the
    plain reads (``plain_mode`` names them) that the read-after-write
    samples ``raw`` compare with.  ``query_tail_ms`` is taken over
    ``plain`` alone, one cost mode, at the percentile that
    ``plain_per_run`` -- the fewest plain reads any run takes -- supports,
    so every run of a workload reports the same percentile.  ``facts``
    (passes, answer checks) join the summary line.
    """
    pct = tail_percentile(plain_per_run)
    print(json.dumps({
        "samples": {"plain": {op: len(v) for op, v in per_op.items()},
                    "raw": len(raw), "insert": len(inserts),
                    "delete": len(deletes)},
        "query_tail": {"over": plain_mode, "percentile": pct,
                       "samples": len(plain),
                       "beyond": int(len(plain) * (1 - pct / 100.0))},
        "setup_s_each": setups,
        "host": host_facts(),
        **facts,
    }), flush=True)
    return {
        "setup_s": metric(median(setups), "s"),
        "ops_per_s": metric(ops_done / elapsed, "ops/s"),
        **{f"{op.lower()}_p50_ms": metric(median(v), "ms")
           for op, v in per_op.items()},
        "query_tail_ms": metric(percentile(plain, pct), "ms"),
        "read_p50_ms": metric(median(plain), "ms"),
        "read_after_write_p50_ms": metric(median(raw), "ms"),
        "insert_p50_ms": metric(median(inserts), "ms"),
        "delete_p50_ms": metric(median(deletes), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
