"""In-memory spans around the program's public calls, and layer tables.

Only the traced run (``--trace 1``) uses this module.  It replaces a few
public methods with wrappers that record a span -- name, start, end,
parent, and the request id of the operation in flight -- and restores
them afterwards.  Spans stay in memory and are written out once, at the
end of the run.

A span's *self time* is its duration minus the durations of its direct
children (children never overlap: every wrapped call is synchronous in
the benchmark's thread).  Pool workers run in other processes, so their
search time enters as a synthetic ``core`` child of the ``shard`` span,
sized by the worker's own reported elapsed time.

``layer_table`` turns the spans of one operation type into rows of
median self time per layer plus an explicit ``residual`` row, so the rows
sum to the median end-to-end time exactly, by construction.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from common import median

#: Root span name of one benchmark operation.
OP = "op"


class SpanLog:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Request id stamped on every span opened while set.
        self.rid: str | None = None

    # ------------------------------ spans ------------------------------ #

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "rid": self.rid,
                **attrs,
            }
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def child(self, parent: int, name: str, seconds: float, **attrs) -> None:
        """A closed child of ``parent`` measured elsewhere (a pool worker)."""
        start = self.spans[parent]["start"]
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": start + seconds,
                "parent": parent,
                "rid": self.spans[parent]["rid"],
                **attrs,
            }
        )

    def current(self) -> dict | None:
        return self.spans[self._stack[-1]] if self._stack else None

    # ----------------------------- wrapping ---------------------------- #

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(log, idx, args, result)`` runs once the span is closed,
        to attach counts or synthetic children to span ``idx``.
        """
        original = vars(owner)[attr]
        log = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = log.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                log.close(idx)
            if after is not None:
                after(log, idx, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def tally(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` on the innermost open span."""
        original = vars(owner)[attr]
        log = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            span = log.current()
            if span is not None:
                span[key] = span.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str) + "\n")

    # ---------------------------- analysis ----------------------------- #

    def ops(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["name"] == OP]

    def self_times(self, root: int) -> dict[str, float]:
        """Per-layer self time (seconds) summed over one op's span tree."""
        kids: dict[int, list[int]] = {}
        for i in range(root + 1, len(self.spans)):
            parent = self.spans[i]["parent"]
            if parent is not None and parent >= root:
                kids.setdefault(parent, []).append(i)
        out: dict[str, float] = {}
        todo = list(kids.get(root, []))
        while todo:
            i = todo.pop()
            s = self.spans[i]
            covered = sum(
                self.spans[c]["end"] - self.spans[c]["start"]
                for c in kids.get(i, [])
            )
            out[s["name"]] = (
                out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
            )
            todo.extend(kids.get(i, []))
        return out


def layer_table(log: SpanLog, roots: list[int], layers, selfs) -> dict:
    """Median self time per layer for ops ``roots``, plus a residual.

    ``selfs`` maps each root to its ``self_times``.  Returns ``{"e2e_ms",
    "rows": {layer: ms, ..., "residual": ms}, "n"}`` where the rows sum to
    ``e2e_ms`` exactly.  With few ops of unequal cost the medians of the
    parts need not add up to the median of the whole; the residual shows
    by how much.
    """
    e2e = median(
        (log.spans[i]["end"] - log.spans[i]["start"]) * 1000.0 for i in roots
    )
    rows = {
        layer: median(selfs[i].get(layer, 0.0) * 1000.0 for i in roots)
        for layer in layers
    }
    rows["residual"] = e2e - sum(rows.values())
    return {"e2e_ms": e2e, "rows": rows, "n": len(roots)}


def ladder_table(rungs: dict[str, float], inner: dict) -> dict:
    """Prepend client-side rungs (router hop, HTTP) to an in-process table.

    ``rungs`` maps ``router`` / ``http`` to the median latency of the same
    operation type one rung up; each row is the difference to the rung
    below, so the rows still sum to the top rung's median exactly.
    """
    rows = {
        "router": rungs["router"] - rungs["node"],
        "http": rungs["node"] - inner["e2e_ms"],
        **inner["rows"],
    }
    return {"e2e_ms": rungs["router"], "rows": rows, "n": inner["n"]}


def format_table(title: str, table: dict) -> str:
    lines = [
        f"  {title}: e2e median {table['e2e_ms']:.3f} ms (n={table['n']})"
    ]
    for layer, ms in table["rows"].items():
        lines.append(f"    {layer:<10} {ms:10.3f} ms")
    total = sum(table["rows"].values())
    lines.append(f"    {'sum':<10} {total:10.3f} ms")
    return "\n".join(lines)


def trace_path(workload: str, seed: int) -> Path:
    """Where the traced run writes its spans (inside the checkout)."""
    from common import ROOT

    name = f"spans-{workload}-{seed}-{os.getpid()}.jsonl"
    return ROOT / ".perfbench-out" / name
