"""Per-point state recycled within a process (:mod:`repro.memory.pool`).

A cache's state arrays and a prefetcher's flat tables come from a pool: a
new component reuses an array that nothing else refers to any more and
refills it.  Recycling must be invisible: a reused array equals a fresh
one, an array still referenced anywhere (or resized) is never handed out,
and every result equals the one a process without recycling computes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import weakref
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro.cpu.core import CoreRunner
from repro.common.config import cascade_lake_single_core
from repro.experiments.common import quick_experiment_config
from repro.experiments.spec import get_experiment
from repro.memory import pool
from repro.sim.batch import fused_core_stepper
from repro.sim.engine import (
    CampaignPoint,
    build_workload_trace,
    execute_point,
    multi_core_point,
)
from repro.sim.result_cache import result_to_dict
from repro.sim.results import check_invariants
from repro.sim.scenarios import build_hierarchy, build_scenario

SRC = Path(__file__).resolve().parent.parent / "src"

LEVELS = ("l1d", "l2c", "llc")
#: Each recycled cache array, with its typecode and the value it starts at.
CACHE_ARRAYS = {
    "_tags": ("q", -1), "_stamps": ("q", 0), "_ready": ("q", 0),
    "_flags": ("B", 0), "_source": ("b", -1), "_set_fill": ("q", 0),
}
#: SPP's flat tables (the ``ppf`` scheme runs SPP at the L2).
SPP_TABLES = ("_pattern_counts", "_pattern_deltas", "_pattern_lengths",
              "_pattern_totals", "_pattern_best_delta", "_pattern_best_count")


@pytest.fixture
def empty_pool(monkeypatch):
    """A pool holding nothing yet, so the test sees only its own arrays."""
    monkeypatch.setattr(pool, "_STATE_POOL", {})
    return pool._STATE_POOL


def _dirty(hierarchy) -> None:
    """Fill every cache level, so its arrays no longer hold start values."""
    for level in LEVELS:
        cache = getattr(hierarchy, level)
        for block in range(0, 4 * cache.num_sets, 3):
            cache.fill(block, cycle=block, prefetched=block % 2 == 1,
                       prefetch_source_level=2, dirty=True, pending=True)


def _cache_arrays(hierarchy) -> dict[tuple[str, str], array]:
    return {
        (level, name): getattr(getattr(hierarchy, level), name)
        for level in LEVELS for name in CACHE_ARRAYS
    }


def _assert_fresh(hierarchy) -> None:
    """Every cache array has its geometry's length, typecode and start
    value, as a newly allocated one would."""
    for (level, name), state in _cache_arrays(hierarchy).items():
        cache = getattr(hierarchy, level)
        typecode, value = CACHE_ARRAYS[name]
        length = cache.num_sets * (1 if name == "_set_fill" else cache.associativity)
        assert type(state) is array and state.typecode == typecode, (level, name)
        assert state == array(typecode, [value]) * length, (level, name)


def _stepper(hierarchy):
    """The compiled kernel's stepper: it refuses state of the wrong layout."""
    system = cascade_lake_single_core()
    trace = build_workload_trace("cc.road", 600, "tiny")
    return fused_core_stepper(
        CoreRunner(system.core, hierarchy.demand_access), trace, hierarchy
    )


class TestPool:
    def test_the_scan_sees_the_pinned_count(self):
        """Inside the pool's scan, an array only the pool refers to has
        exactly ``FREE_REFCOUNT`` references.  An interpreter that counts
        differently fails here (and below) instead of aliasing live state."""
        candidates = [array("q", [0])]
        for state in candidates:
            assert sys.getrefcount(state) == pool.FREE_REFCOUNT == 3

    def test_pool_is_bounded_per_shape(self, empty_pool):
        live = [pool.state_array("q", 5) for _ in range(pool.STATE_POOL_LIMIT + 4)]
        assert len(empty_pool[("q", 5)]) == pool.STATE_POOL_LIMIT
        assert len({id(state) for state in live}) == len(live)

    @pytest.mark.parametrize("typecode,value", [
        ("q", 0), ("q", -1), ("b", -1), ("B", 0), ("i", -1), ("d", 0),
    ])
    def test_a_refill_equals_a_fresh_array(self, empty_pool, typecode, value):
        state = pool.state_array(typecode, 7, value)
        state[3] = 5
        dropped = id(state)
        del state
        again = pool.state_array(typecode, 7, value)
        assert id(again) == dropped
        assert again == array(typecode, [value]) * 7

    def test_start_values_other_than_0_and_minus_1_are_refused(self):
        with pytest.raises(ValueError, match="0 or -1"):
            pool.state_array("q", 4, 7)


class TestCacheRecycling:
    def test_next_hierarchy_reuses_the_dropped_arrays_as_fresh(self, empty_pool):
        hierarchy = build_hierarchy(build_scenario("tlp"))
        _dirty(hierarchy)
        dropped = {id(state) for state in _cache_arrays(hierarchy).values()}
        del hierarchy
        again = build_hierarchy(build_scenario("tlp"))
        assert {id(state) for state in _cache_arrays(again).values()} == dropped
        _assert_fresh(again)

    def test_flat_tables_are_reused_zeroed(self, empty_pool):
        hierarchy = build_hierarchy(build_scenario("ppf"))
        spp = hierarchy.l2_prefetcher
        for name in SPP_TABLES:
            np.frombuffer(getattr(spp, name), dtype=np.uint8)[:] = 0x5A
        dropped = {id(getattr(spp, name).obj) for name in SPP_TABLES}
        del hierarchy, spp
        spp = build_hierarchy(build_scenario("ppf")).l2_prefetcher
        assert {id(getattr(spp, name).obj) for name in SPP_TABLES} == dropped
        for name in SPP_TABLES:
            assert not any(getattr(spp, name)), name

    def test_live_arrays_are_never_handed_out(self, empty_pool):
        first = build_hierarchy(build_scenario("tlp"))
        second = build_hierarchy(build_scenario("tlp"))
        first_ids = {id(state) for state in _cache_arrays(first).values()}
        assert first_ids.isdisjoint(id(s) for s in _cache_arrays(second).values())

    def test_an_array_kept_past_its_cache_is_not_reused(self, empty_pool):
        hierarchy = build_hierarchy(build_scenario("tlp"))
        _dirty(hierarchy)
        kept = hierarchy.llc._tags
        viewed = memoryview(hierarchy.l2c._stamps)
        mapped = np.frombuffer(hierarchy.l1d._flags, dtype=np.uint8)
        before = (kept.tolist(), viewed.tolist(), mapped.tolist())
        del hierarchy
        again = build_hierarchy(build_scenario("tlp"))
        held = {id(kept), id(viewed.obj), id(mapped.base.obj)}
        assert held.isdisjoint(id(s) for s in _cache_arrays(again).values())
        _dirty(again)
        assert (kept.tolist(), viewed.tolist(), mapped.tolist()) == before

    @pytest.mark.parametrize("level,name,replacement", [
        ("l1d", "_tags", lambda a: array("l", a)),
        ("l2c", "_flags", lambda a: array("b", a)),
        ("llc", "_source", lambda a: array("B", [0]) * len(a)),
        ("l1d", "_stamps", list),
    ])
    def test_a_replaced_array_is_never_handed_out(
        self, empty_pool, level, name, replacement
    ):
        """Mirrors ``TestCacheLayout``'s typecode mutations: the swapped-in
        object is not the pool's, so no later cache gets it."""
        hierarchy = build_hierarchy(build_scenario("tlp"))
        cache = getattr(hierarchy, level)
        swapped = replacement(getattr(cache, name))
        setattr(cache, name, swapped)
        del hierarchy, cache
        again = build_hierarchy(build_scenario("tlp"))
        assert all(state is not swapped for state in _cache_arrays(again).values())
        _assert_fresh(again)
        _stepper(again)

    @pytest.mark.parametrize("level,name", [
        ("l1d", "_tags"), ("l2c", "_ready"), ("llc", "_flags"), ("l1d", "_set_fill"),
    ])
    def test_a_resized_array_is_never_handed_out(self, empty_pool, level, name):
        """Mirrors ``TestCacheLayout``'s length mutations: the pooled array
        itself grew, so it no longer has its shape and leaves the pool.
        Only the pool refers to it once the hierarchy is gone."""
        hierarchy = build_hierarchy(build_scenario("tlp"))
        getattr(getattr(hierarchy, level), name).append(0)
        grown = weakref.ref(getattr(getattr(hierarchy, level), name))
        del hierarchy
        assert grown() is not None  # still pooled
        again = build_hierarchy(build_scenario("tlp"))
        _assert_fresh(again)
        _stepper(again)
        assert all(state is not grown() for shape in empty_pool.values() for state in shape)


#: Runs the points it reads from stdin in a fresh interpreter that recycles
#: nothing (a pool limit of 0 keeps every array fresh); prints each result.
REFERENCE = """
import json, sys
from repro.memory import pool
pool.STATE_POOL_LIMIT = 0
from repro.sim.engine import CampaignPoint, execute_point
from repro.sim.result_cache import result_to_dict
points = [
    CampaignPoint(**{**fields, "workloads": tuple(fields["workloads"])})
    for fields in json.load(sys.stdin)
]
json.dump({point.key(): result_to_dict(execute_point(point)) for point in points},
          sys.stdout)
"""


class TestOrderIndependence:
    def test_recycled_results_equal_a_fresh_process(self, empty_pool):
        """A 4-core mix, then the fig10 quick single-core points, then the
        mix again, in one process: each result equals the one a fresh
        interpreter computes without recycling, field for field."""
        config = quick_experiment_config()
        singles = get_experiment("fig10").build_sweep(config).compile(config)
        mix = multi_core_point(
            "fig10.mix", config.workloads(), "tlp", "ipcp",
            memory_accesses=config.multicore_memory_accesses,
            warmup_fraction=config.warmup_fraction,
        )
        traces = {}
        ran = [(point, execute_point(point, traces=traces))
               for point in (mix, *singles, mix)]
        llc_slots = len(build_hierarchy(build_scenario("baseline")).llc._tags)
        # Twenty single-core points and the probe, yet one LLC's three 8-byte
        # arrays in all: each reused the arrays of the one before it.
        assert len(empty_pool[("q", llc_slots)]) == 3

        process = subprocess.run(
            [sys.executable, "-c", REFERENCE],
            input=json.dumps([point.to_dict() for point in (mix, *singles)]),
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=300,
        )
        assert process.returncode == 0, process.stderr
        reference = json.loads(process.stdout)
        assert len(reference) == len(singles) + 1
        for point, result in ran:
            assert result_to_dict(result) == reference[point.key()], point.label
            assert check_invariants(result) == [], point.label
