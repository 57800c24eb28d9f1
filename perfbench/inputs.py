"""Seeded inputs for every workload.

Everything the program sees is made here from ``--seed``: the same seed
always gives the same objects, queries and operation sequence.

Two shapes:

* ``anti_inputs`` -- the north-star shape of ``benchmarks/bench_serve.py``
  (anti-correlated centers, n=2000, m=10, d=2, instance extent
  400*scale).  The objects, the query and the write objects are the
  canonical north-star inputs, drawn from ``NORTH_STAR_SEED``; ``--seed``
  draws the order of the reads.  Query cost at this shape swings
  several-fold with a query's position on the band, its instance cloud
  and the local data (per-operator work over 8 queries moved 18-47%
  between seeds with everything else fixed), and R-tree insert cost with
  where an object lands, so seeded inputs would make the medians measure
  the draw, not the program.  The query sits at a fixed position on the
  band with the mean extent (200*scale).
* ``fleet_inputs`` -- independent centers, n=20000, m=10, instance extent
  one tenth of the bench shape (40*scale), so a core query costs a few
  milliseconds and the serving layers dominate.  All of it is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets import synthetic
from repro.objects.uncertain import UncertainObject

OPERATORS = ("SSD", "SSSD", "PSD", "FSD")

#: Generation seed of the canonical north-star objects and queries.
NORTH_STAR_SEED = 0
#: core-anti query centers, as positions along the
#: anti-correlated band (0 = one end, 0.5 = the middle).  One query: on
#: shared hardware CPU speed can drift by tens of percent within a minute,
#: and only many samples of one read per operator give a median that
#: holds still;
#: with several queries of unequal cost each median rests on the few
#: samples of whichever query ranks in the middle.  At 0.2 the FSD answer
#: has 404 candidates, the |NNC| of about 400 the hot-spot profile found.
ANTI_POSITIONS = (0.2,)
#: Sweeps per pass; each reads every (query, operator) pair plus
#: ``ANTI_EXTRA_SSD`` more SSD reads, in ``ANTI_ROUNDS_PER_SWEEP`` runs,
#: each followed by a write round of ``ANTI_WRITES_PER_ROUND`` inserts,
#: as many deletes and an SSD read.  The extra SSD reads give one cost
#: mode enough samples in a pass (40) for a tail with at least ten reads
#: above it; the costlier operators keep one read per sweep.  Host speed
#: on shared hardware can switch within a second, and a write round
#: lasts about a millisecond, so the write medians rest on the number of
#: rounds: two a sweep sample it at 20 moments of a pass, not 10.
#: R-tree inserts take one of two costs (about 1 ms, or about 10 ms when
#: the insert splits a full leaf of the bulk-loaded tree).  Between 40
#: and 70 inserts a pass about half split, which puts the insert median
#: on the edge between the modes; at 100 about 62% do not, and the
#: median sits inside the plain-insert mode.
ANTI_SWEEPS = 10
ANTI_EXTRA_SSD = 3
ANTI_ROUNDS_PER_SWEEP = 2
ANTI_WRITES_PER_ROUND = 5

#: fleet-rw: rounds per pass; each round is a burst of writes (inserts
#: and deletes alternating) followed by a run of reads.
FLEET_ROUNDS = 15
FLEET_WRITES_PER_ROUND = 6
FLEET_READS_PER_ROUND = 14
FLEET_QUERIES = 32


def _scale(n: int, d: int) -> float:
    return (n / 100_000) ** (-1.0 / d)


def _cloud(center, count: int, edge: float, rng) -> np.ndarray:
    """The synthetic module's instance recipe with a fixed box edge."""
    lo = np.maximum(center - edge / 2.0, 0.0)
    hi = np.minimum(center + edge / 2.0, synthetic.DOMAIN)
    pts = rng.normal(center, edge / 4.0, (count, len(center)))
    return np.clip(pts, lo, hi)


@dataclass
class Op:
    """One operation of a fixed sequence.

    ``kind`` is ``read``, ``insert`` or ``delete``.  A read names a query
    index and an operator; a write names an object index into the
    workload's ``writes`` list.
    """

    kind: str
    query: int = -1
    operator: str = ""
    obj: int = -1
    #: First read after a write (read-after-write), else a plain read.
    after_write: bool = False
    #: A fleet delete of an object the previous pass inserted.
    prev_pass: bool = False


@dataclass
class Inputs:
    objects: list[UncertainObject]
    queries: list[UncertainObject]
    writes: list[UncertainObject]
    #: One pass of the fixed operation sequence.
    ops: list[Op] = field(default_factory=list)


def north_star() -> tuple[list, list, list]:
    """The canonical north-star objects, queries and write objects."""
    n, m, d = 2000, 10, 2
    rng = np.random.default_rng(NORTH_STAR_SEED)
    scale = _scale(n, d)
    centers = synthetic.anticorrelated_centers(n, d, rng)
    objects = synthetic.make_objects(centers, m, 400.0 * scale, rng)
    queries = []
    for i, t in enumerate(ANTI_POSITIONS):
        center = np.array([t, 1.0 - t]) * synthetic.DOMAIN
        pts = _cloud(center, max(2, m // 2), 200.0 * scale, rng)
        queries.append(UncertainObject(pts, oid=f"Q{i}"))
    writes = synthetic.make_objects(
        synthetic.anticorrelated_centers(
            ANTI_SWEEPS * ANTI_ROUNDS_PER_SWEEP * ANTI_WRITES_PER_ROUND,
            d, rng),
        m, 400.0 * scale, rng,
    )
    for i, obj in enumerate(writes):
        obj.oid = f"W{i}"
    return objects, queries, writes


def anti_inputs(seed: int) -> Inputs:
    """North-star objects, queries and writes in a seeded order.

    A pass is ``ANTI_SWEEPS`` sweeps.  A sweep reads every (query,
    operator) pair, and each query ``ANTI_EXTRA_SSD`` more times under
    SSD, in a seeded order, so every read is sampled at many moments of
    the run.  The reads come in ``ANTI_ROUNDS_PER_SWEEP`` runs, each
    followed by a write round: insert ``ANTI_WRITES_PER_ROUND`` objects,
    delete them, SSD read.  Every write is undone before the next read,
    so every read sees the loaded dataset and every pass repeats exactly;
    the read after the deletes differs from a plain SSD read only by
    following writes.
    """
    objects, queries, writes = north_star()
    rng = np.random.default_rng(seed)
    reads = [(q, op) for q in range(len(queries))
             for op in (*OPERATORS, *("SSD",) * ANTI_EXTRA_SSD)]
    ops: list[Op] = []
    rounds = 0
    for sweep in range(ANTI_SWEEPS):
        order = rng.permutation(len(reads))
        for part in np.array_split(order, ANTI_ROUNDS_PER_SWEEP):
            ops += [Op("read", query=reads[i][0], operator=reads[i][1])
                    for i in part]
            batch = range(rounds * ANTI_WRITES_PER_ROUND,
                          (rounds + 1) * ANTI_WRITES_PER_ROUND)
            ops += [Op("insert", obj=i) for i in batch]
            ops += [Op("delete", obj=i) for i in batch]
            ops.append(Op("read", query=rounds % len(queries),
                          operator="SSD", after_write=True))
            rounds += 1
    return Inputs(objects, queries, writes, ops)


def fleet_inputs(seed: int) -> Inputs:
    """Served-stack dataset, query set, write objects and one pass.

    Each round writes ``FLEET_WRITES_PER_ROUND`` times -- inserts of new
    objects alternating with deletes of the objects the previous round
    inserted -- then reads ``FLEET_READS_PER_ROUND`` times with operators
    rotating.  Write bursts keep most reads well away from the last write,
    so the plain-read median measures plain reads; the first read of each
    round is the read-after-write sample.  The pass's ``obj`` indexes
    repeat every pass; ``fleet.Sequence`` makes the oids unique per pass.
    """
    n, m, d = 20000, 10, 2
    rng = np.random.default_rng(seed)
    scale = _scale(n, d)
    centers = synthetic.independent_centers(n, d, rng)
    objects = synthetic.make_objects(centers, m, 40.0 * scale, rng)
    queries = [
        synthetic.make_query(
            centers[rng.integers(n)], max(2, m // 2), 20.0 * scale, rng,
            oid=f"Q{i}",
        )
        for i in range(FLEET_QUERIES)
    ]
    per_round = FLEET_WRITES_PER_ROUND // 2
    writes = synthetic.make_objects(
        synthetic.independent_centers(FLEET_ROUNDS * per_round, d, rng),
        m, 40.0 * scale, rng,
    )
    ops: list[Op] = []
    reads = 0
    for r in range(FLEET_ROUNDS):
        # Round r deletes what round r-1 inserted; round 0 deletes the
        # previous pass's last round (the warm-up inserts it before pass 0).
        prev = (r - 1) % FLEET_ROUNDS
        for j in range(per_round):
            ops.append(Op("insert", obj=r * per_round + j))
            ops.append(
                Op("delete", obj=prev * per_round + j, prev_pass=r == 0)
            )
        order = rng.permutation(FLEET_QUERIES)
        for j in range(FLEET_READS_PER_ROUND):
            ops.append(
                Op(
                    "read",
                    query=int(order[j % FLEET_QUERIES]),
                    operator=OPERATORS[reads % len(OPERATORS)],
                    after_write=j == 0,
                )
            )
            reads += 1
    return Inputs(objects, queries, writes, ops)
