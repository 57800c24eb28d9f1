"""Rebuild ``pins.json``: the answers of the canonical north-star reads.

Every (query, operator) read of the canonical inputs is answered by the
scalar reference path (``QueryContext(kernels=False)``) on a monolith;
the pins are written only if the kernel monolith and the 2-shard pool
return the same oid sets.  Run from the repository root after changing
the canonical inputs (takes under a minute)::

    python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from engine import PINS, inputs_digest, pool_answers, read_answers  # noqa
from inputs import anti_inputs  # noqa: E402

from repro.core.context import QueryContext  # noqa: E402
from repro.core.nnc import NNCSearch  # noqa: E402


def main() -> int:
    inp = anti_inputs(0)
    mono = NNCSearch(inp.objects)
    scalar = read_answers(inp, lambda q, op: mono.run(
        q, op, k=1, ctx=QueryContext(q, kernels=False)))
    for name, got in (
        ("kernel monolith",
         read_answers(inp, lambda q, op: mono.run(q, op, k=1))),
        ("pool", pool_answers(inp)),
    ):
        if got != scalar:
            print(f"{name} disagrees with the scalar reference; pins not "
                  "written", file=sys.stderr)
            return 1
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in scalar.items())
    PINS.write_text(
        f'{{"digest": "{inputs_digest(inp)}",\n'
        '"source": "scalar reference (kernels=False), cross-checked against '
        'the kernel monolith and the 2-shard pool",\n'
        f'"answers": {{\n{rows}\n}}}}\n'
    )
    print(f"wrote {PINS} ({len(scalar)} reads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
