"""The batched F-SD dominator count and the append-only accepted-set index.

``NNCSearch._dominator_count`` decides F-SD for a visited object against
every accepted candidate in one stacked extremes comparison, walking only
the hits.  These tests pin the corners of that batch: the identical-object
exclusion inside it (duplicates and single-instance objects), the index
rebuild after a tie eviction, and the resilient path (one budget charge and
one ``hull-extremes`` fault site per object).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import nnc
from repro.core.bruteforce import (
    brute_f_dominates,
    brute_p_dominates,
    brute_s_dominates,
    brute_ss_dominates,
)
from repro.core.context import QueryContext
from repro.core.nnc import NNCSearch, _AcceptedIndex
from repro.obs.tracer import Tracer
from repro.objects.uncertain import UncertainObject
from repro.resilience import Budget, FaultPlan, FaultSpec
from tests.conftest import random_object, random_scene
from tests.test_counters_parity import OPERATORS, PARITY_FIELDS

BRUTES = {
    "SSD": brute_s_dominates,
    "SSSD": brute_ss_dominates,
    "PSD": brute_p_dominates,
    "FSD": brute_f_dominates,
}


def _brute_oids(objects, query, kind, k):
    """Objects dominated by fewer than ``k`` others, by definition (oids as
    strings: the scenes mix integer and string ids)."""
    dominates = BRUTES[kind]
    return sorted(
        str(v.oid)
        for v in objects
        if sum(1 for u in objects if u is not v and dominates(u, v, query)) < k
    )


def _run(objects, query, kind, k, **ctx_kwargs):
    ctx = QueryContext(query, **ctx_kwargs)
    result = NNCSearch(objects).run(query, kind, ctx=ctx, k=k)
    return sorted(str(oid) for oid in result.oids()), ctx, result


def _copy(obj, oid):
    return UncertainObject(obj.points.copy(), obj.probs.copy(), oid=oid)


def _duplicate_scene(seed):
    """Random objects plus exact duplicates and single-instance objects.

    Single-instance objects are what make the extremes test pass between
    *identical* objects (``delta_max == delta_min`` at every vertex), so
    duplicates of them reach the ``U_Q != V_Q`` exclusion inside the batch.
    """
    rng = np.random.default_rng(seed)
    objects, query = random_scene(rng, n_objects=30, m=4, m_q=4, spread=1.5)
    nearest = min(
        objects, key=lambda o: QueryContext(query).min_distance(o)
    )
    singles = [random_object(rng, m=1, oid=f"s{i}") for i in range(8)]
    # A single-instance object as the nearest one, plus its identical twin.
    center = query.points.mean(axis=0)
    closest = UncertainObject([center + 0.05], oid="near")
    objects += singles + [
        closest,
        _copy(closest, "near-twin"),
        _copy(nearest, "nearest-twin"),
        _copy(objects[3], "dup-3"),
        _copy(singles[0], "s0-twin"),
        _copy(singles[1], "s1-twin"),
        _copy(singles[1], "s1-triplet"),
    ]
    return objects, query


class TestIdenticalAndDuplicateObjects:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_matches_scalar_and_brute_force(self, k, seed, monkeypatch):
        objects, query = _duplicate_scene(seed)
        excluded = []
        real = nnc.fsd_distinct

        def spy(u, v, ctx):
            out = real(u, v, ctx)
            if not out:
                excluded.append((u.oid, v.oid))
            return out

        monkeypatch.setattr(nnc, "fsd_distinct", spy)
        kernel, _, _ = _run(objects, query, "FSD", k)
        scalar, _, _ = _run(objects, query, "FSD", k, kernels=False)
        assert kernel == scalar == _brute_oids(objects, query, "FSD", k)
        # The batch reached the identical-object exclusion ...
        assert excluded
        # ... and identical twins never knock each other out.
        for a, b in (("near", "near-twin"), ("s1-twin", "s1-triplet")):
            assert (a in kernel) == (b in kernel)
        assert "near" in kernel and "near-twin" in kernel

    def test_traced_batch_spans(self):
        objects, query = _duplicate_scene(0)
        tracer = Tracer()
        _, _, result = _run(objects, query, "FSD", 1, tracer=tracer)
        # One batch span per checked object.  (Tie corrections between
        # equal-distance objects still call the scalar operator, whose
        # per-pair span carries no ``pairs`` label and nests under search.)
        spans = [
            s for s in tracer.spans()
            if s.name == "hull-extremes" and "pairs" in s.labels
        ]
        checks = [s for s in tracer.spans() if s.name == "dominance-check"]
        assert spans and len(spans) <= len(checks)
        for span in spans:
            assert span.parent == "dominance-check"
            assert span.labels["op"] == "FSD"
            assert span.labels["pairs"] >= 1
        assert len(result) > 0


def _tie_scene(seed):
    """Objects whose exact ``min(U_Q)`` ties, where the later one dominates.

    ``wide`` holds the shared point ``p`` (its nearest instance to every
    query instance) plus far instances spanning a box that reaches closer
    to the query, so it is refined and accepted first; ``point`` is ``p``
    alone, pops second with the identical exact key, and evicts ``wide``
    (twice over for ``k=2``, through its twin).
    """
    rng = np.random.default_rng(seed)
    query = UncertainObject([[0.0, 0.0], [1.0, 0.0], [0.5, 0.6]], oid="Q")
    p = np.array([5.0, 5.0])
    objects = [
        UncertainObject([p, [2.0, 30.0], [30.0, 2.0]], oid="wide"),
        UncertainObject([p], oid="point"),
        UncertainObject([p], oid="point-twin"),
    ]
    objects += [
        UncertainObject(rng.uniform(8.0, 25.0, size=(3, 2)), oid=i)
        for i in range(25)
    ]
    return objects, query


class TestTieEvictionsRebuildTheIndex:
    @pytest.mark.parametrize("kind", OPERATORS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_kernel_equals_scalar_after_eviction(self, kind, k, monkeypatch):
        objects, query = _tie_scene(k)
        rebuilds = []
        real = _AcceptedIndex.invalidate

        def counting(self):
            rebuilds.append(len(self.accepted))
            real(self)

        monkeypatch.setattr(_AcceptedIndex, "invalidate", counting)
        kernel, kctx, _ = _run(objects, query, kind, k)
        evictions = len(rebuilds)
        scalar, sctx, _ = _run(objects, query, kind, k, kernels=False)
        assert kernel == scalar
        if kind != "F+SD":
            # F+-SD's strict box test cannot hold between tied objects.
            assert evictions >= 1, f"{kind} k={k}: no tie eviction"
            assert "wide" not in kernel
            assert kernel == _brute_oids(objects, query, kind, k)
        ksnap, ssnap = kctx.counters.snapshot(), sctx.counters.snapshot()
        for name in PARITY_FIELDS:
            assert ksnap[name] == ssnap[name], (kind, k, name)


class TestAcceptedIndex:
    def test_append_grow_and_rebuild_match_fresh_stacks(self):
        rng = np.random.default_rng(5)
        objects, query = random_scene(rng, n_objects=30, m=3)
        ctx = QueryContext(query)
        accepted: list[list] = []
        index = _AcceptedIndex(accepted, ctx, query.mbr)

        def check():
            objs = [rec[0] for rec in accepted]
            los, his = index.boxes()
            np.testing.assert_array_equal(los, np.stack([o.mbr.lo for o in objs]))
            np.testing.assert_array_equal(his, np.stack([o.mbr.hi for o in objs]))
            np.testing.assert_array_equal(
                index.corner_sq(),
                nnc.K.mbr_corner_terms(los, his, query.mbr.lo, query.mbr.hi),
            )
            np.testing.assert_array_equal(
                index.statistics(), np.array([ctx.statistics(o) for o in objs])
            )
            np.testing.assert_array_equal(
                index.hull_maxima(),
                np.stack([ctx.hull_extremes(o)[0] for o in objs]),
            )

        for obj in objects[:3]:  # one row at a time
            accepted.append([obj, 0.0, 0])
            check()
        accepted.extend([obj, 0.0, 0] for obj in objects[3:20])  # past capacity
        check()
        accepted.remove(accepted[4])
        accepted.remove(accepted[0])
        index.invalidate()
        check()
        accepted.append([objects[25], 0.0, 0])
        check()


class TestResilientBatch:
    @pytest.mark.parametrize("mode", ["budget", "fault", "both"])
    def test_flagged_superset_and_budget_parity(self, mode):
        rng = np.random.default_rng(11)
        objects, query = random_scene(rng, n_objects=60, m=4, m_q=4, spread=1.5)
        exact, ectx, _ = _run(objects, query, "FSD", 1)
        total = ectx.counters.dominance_checks
        assert total > 10
        budget = faults = None
        if mode in ("budget", "both"):
            budget = Budget(max_dominance_checks=total // 2)
        if mode in ("fault", "both"):
            faults = FaultPlan((FaultSpec("hull-extremes", after=2, count=3),))
        got, ctx, result = _run(
            objects, query, "FSD", 1, budget=budget, faults=faults
        )
        assert set(exact) <= set(got)
        assert result.degradation is not None
        if budget is not None:
            assert result.degradation.reason == "dominance_checks"
            # One batch charge per object, equal to the checks it counted.
            assert budget.spent()["dominance_checks"] == ctx.counters.dominance_checks
            assert budget.spent()["dominance_checks"] > total // 2
        if faults is not None:
            assert faults.fired_count() >= 1
            assert ("hull-extremes", "injected") in result.degradation.events
        if mode == "fault":
            assert result.degradation.phase == "completed"
            assert ctx.counters.extra["unresolved_checks"] == faults.fired_count()

    def test_dominance_check_fault_keeps_definite_dominators_only(self):
        rng = np.random.default_rng(3)
        objects, query = random_scene(rng, n_objects=40, m=4, m_q=3)
        exact, _, _ = _run(objects, query, "FSD", 1)
        faults = FaultPlan((FaultSpec("dominance-check", count=None),))
        got, ctx, result = _run(objects, query, "FSD", 1, faults=faults)
        # Every extremes decision is lost, so objects only F-SD (not box)
        # dominated survive: a strict superset.
        assert set(exact) < set(got)
        assert result.degradation is not None
        assert ctx.counters.extra["unresolved_checks"] >= 1
