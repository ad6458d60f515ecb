"""The compiled fused kernel: its loader, its fallback and its refcounting.

The batch-vs-scalar equivalence suite (``test_batch_core.py``) pins what
the kernel computes.  These tests pin how it is built and loaded (a cached
build is reused without the compiler; concurrent builds publish complete
files), what happens without it (the scalar reference runs and one
``sim.batch.fallback`` event says why), and the C-API contract (no model
object outlives a run, exceptions raised inside Python callouts
propagate out of the kernel unchanged, and a cache, DRAM channel or
component whose state arrays do not fit its geometry is refused).
"""

from __future__ import annotations

import dataclasses
import gc
from array import array
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.common.config import (
    CacheConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.cpu.core import CoreRunner
from repro.memory.cache import CacheStats, EvictionInfo
from repro.memory.dram import DRAMStats
from repro.memory.hierarchy import HierarchyStats, MemoryHierarchy
from repro.memory.paging import PageTable
from repro.predictors.perceptron import PerceptronStats
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher
from repro.obs import tracer
from repro.sim import native
from repro.sim.batch import batch_unsupported_reason, fused_core_stepper
from repro.sim.engine import build_workload_trace
from repro.sim.multi_core import build_mix_hierarchies, run_multicore_mix
from repro.sim.scenarios import build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core

SRC = Path(__file__).resolve().parent.parent / "src"
MIX = ("bfs.urand", "spec.mcf_like", "spec.lbm_like", "cc.road")
MODEL_TYPES = (EvictionInfo,)


def _single(core: str):
    return dataclasses.replace(cascade_lake_single_core(), sim_core=core)


def _mix(core: str):
    return dataclasses.replace(cascade_lake_multi_core(num_cores=4), sim_core=core)


@pytest.fixture(scope="module")
def traces():
    return {workload: build_workload_trace(workload, 600, "tiny") for workload in MIX}


def _fallback_events(run_dir: Path) -> list[dict]:
    return [
        record for record in tracer.load_run(run_dir)
        if record.get("name") == "sim.batch.fallback"
    ]


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------
class TestLoader:
    def test_cache_hit_does_not_run_the_compiler(self, tmp_path, monkeypatch):
        built = native.load(tmp_path)
        assert Path(built.__file__) == native.artifact_path(tmp_path)

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")

        monkeypatch.setattr(native.subprocess, "run", no_compiler)
        monkeypatch.setattr(native, "compiler", no_compiler)
        cached = native.load(tmp_path)
        assert cached.__file__ == built.__file__
        assert hasattr(cached, "Stepper")

    def test_concurrent_builds_both_load(self, tmp_path):
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.sim import native\n"
            "module = native.load(Path(sys.argv[1]))\n"
            "print(module.Stepper.__name__, Path(module.__file__).name)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        loaded = set()
        for process in processes:
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            stepper, name = out.split()
            assert stepper == "Stepper"
            loaded.add(name)
        # One artifact, the one both loaded (named by the builders' flags,
        # which need not be this process's).
        assert len(loaded) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(loaded)

    def test_build_deletes_stale_kernels(self, tmp_path, monkeypatch):
        suffix = native.artifact_path(tmp_path).name.split(".", 1)[1]
        stale = [tmp_path / f"_fused-{key}.{suffix}" for key in ("0" * 16, "f" * 16)]
        for path in stale:
            path.write_bytes(b"an earlier build")
        (tmp_path / "unrelated.so").write_bytes(b"")
        # A file still in use elsewhere may refuse deletion: the build
        # goes on and leaves it for later.
        real_unlink = Path.unlink

        def unlink(path, *args, **kwargs):
            if path == stale[1]:
                raise PermissionError("in use")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink)
        built = native.load(tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [Path(built.__file__).name, stale[1].name, "unrelated.so"]
        )

    def test_missing_compiler_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with pytest.raises(native.NativeUnavailable, match="no C compiler"):
            native.load(tmp_path)
        assert not native.artifact_path(tmp_path).exists()


# ----------------------------------------------------------------------
# Fallback without the kernel
# ----------------------------------------------------------------------
@pytest.fixture
def no_kernel(tmp_path, monkeypatch):
    """This process has no kernel: an empty build cache and no compiler."""
    monkeypatch.setattr(native, "BUILD_DIR", tmp_path / "build")
    monkeypatch.setattr(native, "_KERNEL", None)
    monkeypatch.setattr(native, "_REASON", None)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)


class TestFallback:
    def test_reason_names_the_kernel(self, no_kernel):
        reason = batch_unsupported_reason(build_hierarchy(build_scenario("tlp")))
        assert reason == "native kernel unavailable: no C compiler (gcc or cc) on PATH"

    def test_single_core_point(self, no_kernel, traces, tmp_path):
        scenario = build_scenario("tlp")
        scalar = run_single_core(traces["bfs.urand"], scenario, config=_single("scalar"))
        tracer.configure(tmp_path / "run", proc="t-native-single")
        try:
            batch = run_single_core(traces["bfs.urand"], scenario, config=_single("batch"))
            tracer.shutdown()
        finally:
            tracer.disable()
        assert dataclasses.asdict(batch) == dataclasses.asdict(scalar)
        events = _fallback_events(tmp_path / "run")
        assert len(events) == 1
        assert events[0]["attrs"]["reason"].startswith("native kernel unavailable: ")

    def test_four_core_mix(self, no_kernel, traces, tmp_path):
        mix = [traces[workload] for workload in MIX]
        scalar = run_multicore_mix(mix, build_scenario("tlp"), config=_mix("scalar"))
        tracer.configure(tmp_path / "run", proc="t-native-mix")
        try:
            batch = run_multicore_mix(mix, build_scenario("tlp"), config=_mix("batch"))
            tracer.shutdown()
        finally:
            tracer.disable()
        assert dataclasses.asdict(batch) == dataclasses.asdict(scalar)
        events = _fallback_events(tmp_path / "run")
        assert len(events) == 1
        assert events[0]["attrs"]["reason"].startswith("native kernel unavailable: ")


# ----------------------------------------------------------------------
# Reference counting and exceptions
# ----------------------------------------------------------------------
def _model_objects() -> list:
    return [obj for obj in gc.get_objects() if type(obj) in MODEL_TYPES]


def _tiny_caches(system):
    """Two-way caches of a few sets: most fills evict (EvictionInfo paths)."""
    return dataclasses.replace(
        system,
        l1d=CacheConfig("L1D", 2 * 2 * 64, 2, 4, 10),
        l2c=CacheConfig("L2C", 4 * 2 * 64, 2, 10, 16),
        llc=CacheConfig("LLC", 16 * 2 * 64, 2, 36, 64),
    )


class Boom(Exception):
    """Raised by a sabotaged Python kernel."""


def _raise_on_call(monkeypatch, calls: int) -> None:
    """Make the kernel's PPF prefetch-use callout raise on its ``calls``-th
    call."""
    real = MemoryHierarchy._resolve_l2c_prefetch_use
    seen = [0]

    def resolve(self, block):
        seen[0] += 1
        if seen[0] == calls:
            raise Boom(f"call {calls}")
        return real(self, block)

    monkeypatch.setattr(MemoryHierarchy, "_resolve_l2c_prefetch_use", resolve)


class TestRefcounts:
    def _check_single(self, trace, raise_at=None, monkeypatch=None, scheme="tlp"):
        before = _model_objects()
        system = _tiny_caches(_single("batch"))
        hierarchy = build_hierarchy(build_scenario(scheme), config=system)
        assert batch_unsupported_reason(hierarchy) is None
        alive = weakref.ref(hierarchy)
        if raise_at is None:
            run_single_core(trace, build_scenario(scheme), config=system, hierarchy=hierarchy)
        else:
            _raise_on_call(monkeypatch, raise_at)
            with pytest.raises(Boom, match=f"call {raise_at}"):
                run_single_core(
                    trace, build_scenario(scheme), config=system, hierarchy=hierarchy
                )
        del hierarchy
        gc.collect()
        assert alive() is None
        known = {id(obj) for obj in before}
        assert [obj for obj in _model_objects() if id(obj) not in known] == []

    def _check_mix(self, mix, raise_at=None, monkeypatch=None, scheme="tlp"):
        before = _model_objects()
        system = _tiny_caches(_mix("batch"))
        hierarchies = build_mix_hierarchies(build_scenario(scheme), system, len(mix))
        alive = [weakref.ref(hierarchy) for hierarchy in hierarchies]
        if raise_at is None:
            run_multicore_mix(mix, build_scenario(scheme), config=system,
                              hierarchies=hierarchies)
        else:
            _raise_on_call(monkeypatch, raise_at)
            with pytest.raises(Boom, match=f"call {raise_at}"):
                run_multicore_mix(mix, build_scenario(scheme), config=system,
                                  hierarchies=hierarchies)
        del hierarchies
        gc.collect()
        assert [ref() for ref in alive] == [None] * len(alive)
        known = {id(obj) for obj in before}
        assert [obj for obj in _model_objects() if id(obj) not in known] == []

    def test_single_core_run_leaves_nothing(self, traces):
        self._check_single(traces["bfs.urand"])

    def test_four_core_mix_leaves_nothing(self, traces):
        self._check_mix([traces[workload] for workload in MIX])

    def test_callout_exception_propagates_from_single_core(self, traces, monkeypatch):
        # Call 10 of 19 lands mid-way through the measured phase (the
        # warm-up makes none).
        self._check_single(traces["bfs.urand"], 10, monkeypatch, scheme="ppf")

    def test_callout_exception_propagates_from_mix(self, traces, monkeypatch):
        # Call 30 of 57 lands in the measured phase (the warm-up makes 11).
        self._check_mix([traces[workload] for workload in MIX], 30, monkeypatch,
                        scheme="ppf")

    def test_exhausted_stepper_stays_exhausted(self, traces):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        runner = CoreRunner(_single("batch").core, hierarchy.demand_access)
        stepper = fused_core_stepper(runner, traces["cc.road"], hierarchy)
        assert not hasattr(stepper, "__next__")
        stepper.run()
        assert runner.instructions == len(traces["cc.road"])
        cycles = runner.next_dispatch_cycle
        stepper.run()
        native.kernel().run_mix([stepper])
        assert runner.instructions == len(traces["cc.road"])
        assert runner.next_dispatch_cycle == cycles

    def test_run_mix_takes_only_steppers(self, traces):
        """A mix is all kernel or all scalar: the kernel's driver refuses a
        Python iterator beside a Stepper before advancing either."""
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        runner = CoreRunner(_single("batch").core, hierarchy.demand_access)
        stepper = fused_core_stepper(runner, traces["cc.road"], hierarchy)
        with pytest.raises(TypeError, match="run_mix needs Steppers"):
            native.kernel().run_mix([stepper, iter([0.0])])
        assert runner.instructions == 0


# ----------------------------------------------------------------------
# Cache state layout
# ----------------------------------------------------------------------
def _stepper_for(hierarchy, trace):
    runner = CoreRunner(_single("batch").core, hierarchy.demand_access)
    return fused_core_stepper(runner, trace, hierarchy)


class TestCacheLayout:
    """The kernel uses each cache's arrays in place, so it refuses arrays
    of the wrong typecode or length instead of reading past them."""

    @pytest.mark.parametrize("level,name,replacement", [
        ("l1d", "_tags", lambda a: array("l", a)),
        ("l2c", "_flags", lambda a: array("b", a)),
        ("llc", "_source", lambda a: array("B", [0]) * len(a)),
        ("l1d", "_stamps", list),
        ("llc", "_clock", lambda a: array("d", [0.0])),
    ])
    def test_wrong_typecode_is_rejected(self, traces, level, name, replacement):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        cache = getattr(hierarchy, level)
        setattr(cache, name, replacement(getattr(cache, name)))
        with pytest.raises(TypeError, match="unexpected cache state layout"):
            _stepper_for(hierarchy, traces["cc.road"])

    @pytest.mark.parametrize("level,name", [
        ("l1d", "_tags"), ("l2c", "_ready"), ("llc", "_flags"),
        ("l1d", "_set_fill"), ("l2c", "_clock"),
    ])
    def test_wrong_length_is_rejected(self, traces, level, name):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        getattr(getattr(hierarchy, level), name).append(0)
        with pytest.raises(ValueError, match="cache state does not match its geometry"):
            _stepper_for(hierarchy, traces["cc.road"])

    @pytest.mark.parametrize("level,name,value", [
        ("l1d", "num_sets", -1), ("llc", "num_sets", -64), ("l2c", "associativity", -2),
    ])
    def test_negative_geometry_is_rejected(self, traces, level, name, value):
        # A negative product would match arrays of any length.
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        setattr(getattr(hierarchy, level), name, value)
        with pytest.raises(ValueError, match="cache geometry must be positive"):
            _stepper_for(hierarchy, traces["cc.road"])


class TestDramLayout:
    """The kernel uses the DRAM channel's one-element ``_busy_until`` in
    place, so it refuses one of the wrong typecode or length."""

    @pytest.mark.parametrize("replacement", [
        array("q", [0]), array("f", [0.0]), [0.0], 0.0,
    ])
    def test_wrong_typecode_is_rejected(self, traces, replacement):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        hierarchy.dram._busy_until = replacement
        with pytest.raises(TypeError, match="unexpected DRAM state layout"):
            _stepper_for(hierarchy, traces["cc.road"])

    @pytest.mark.parametrize("items", [0, 2])
    def test_wrong_length_is_rejected(self, traces, items):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        hierarchy.dram._busy_until = array("d", [0.0] * items)
        with pytest.raises(ValueError, match="DRAM state does not match its geometry"):
            _stepper_for(hierarchy, traces["cc.road"])

    def test_mix_cores_share_one_channel(self, traces):
        """Every core of a mix uses the same array, so none keeps a copy."""
        hierarchies = build_mix_hierarchies(build_scenario("tlp"), _mix("batch"), 4)
        assert len({id(h.dram._busy_until) for h in hierarchies}) == 1
        run_multicore_mix([traces[w] for w in MIX], build_scenario("tlp"),
                          config=_mix("batch"), hierarchies=hierarchies)
        assert hierarchies[0].dram._busy_until[0] > 0.0


def _poke(table, index, value):
    table[index] = value
    return table


class TestComponentLayout:
    """The kernel uses each prefetcher's, filter's and feature history's
    arrays in place, so it refuses arrays of the wrong typecode or length,
    and FIFO or page-buffer state that its lookup indexes cannot follow."""

    @staticmethod
    def _component(hierarchy, path):
        for name in path.split("."):
            hierarchy = getattr(hierarchy, name)
        return hierarchy

    @pytest.mark.parametrize("l1d,path,name,replacement,error", [
        ("ipcp", "l1d_prefetcher._regions", "pages", lambda a: array("l", a),
         "unexpected IPCP state layout"),
        ("berti", "l1d_prefetcher", "_delta_counts", lambda a: array("q", a),
         "unexpected Berti state layout"),
        ("ipcp", "l2_prefetcher", "_signature_packed", lambda a: a[1:],
         "SPP state does not match its geometry"),
        ("ipcp", "l1d_prefetch_filter.history", "_stamps", lambda a: a + a[:1],
         "feature history state does not match its geometry"),
        ("berti", "offchip_predictor.history", "_pcs", list,
         "unexpected feature history state layout"),
        ("ipcp", "l2_prefetcher._signatures", "inserted", lambda a: array("q", [-1]),
         "SPP FIFO insertion count is negative"),
        ("ipcp", "l1d_prefetcher._regions", "pages", lambda a: array("q", [7, 7]) + a[2:],
         "IPCP table repeats a key"),
        ("berti", "offchip_predictor.history", "_pages", lambda a: a[:1] + array("q", [5]) + a[2:],
         "page buffer slots in use are not a prefix"),
        ("berti", "l1d_prefetcher", "_history_lengths", lambda a: _poke(a, 3, 17),
         "Berti state out of range"),
        ("ipcp", "l2_prefetcher", "_pattern_lengths", lambda a: _poke(a, 0, 200),
         "SPP state out of range"),
    ])
    def test_bad_state_is_refused(self, traces, l1d, path, name, replacement, error):
        hierarchy = build_hierarchy(build_scenario("tlp", l1d_prefetcher=l1d),
                                    config=_single("batch"))
        component = self._component(hierarchy, path)
        setattr(component, name, replacement(getattr(component, name)))
        with pytest.raises((TypeError, ValueError), match=error):
            _stepper_for(hierarchy, traces["cc.road"])


# ----------------------------------------------------------------------
# Counter layout
# ----------------------------------------------------------------------
#: Every class whose counters the kernel increments in place.
COUNTER_CLASSES = (
    HierarchyStats, CacheStats, DRAMStats, PerceptronStats,
    FirstLevelPerceptron, SecondLevelPerceptron, PerceptronPrefetchFilter,
    SPPPrefetcher, IPCPPrefetcher, PageTable,
)


class TestCounterLayout:
    """The kernel's counter enums mirror the Python declarations, and it
    refuses a ``counts`` array that does not fit them."""

    def test_kernel_layout_equals_python_declarations(self):
        assert native.kernel().COUNTER_LAYOUT == {
            cls.__name__: cls.FIELDS for cls in COUNTER_CLASSES
        }

    @pytest.mark.parametrize("owner,replacement,error", [
        (lambda h: h.stats, lambda a: a[:-1], ValueError),
        (lambda h: h.l2c.stats, lambda a: a + array("q", [0]), ValueError),
        (lambda h: h.page_table, lambda a: array("l", a), TypeError),
        (lambda h: h.offchip_predictor.perceptron.stats, list, TypeError),
        (lambda h: h.l1d_prefetch_filter, lambda a: array("d", a), TypeError),
    ])
    def test_misfit_counters_are_rejected(self, traces, owner, replacement, error):
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        counters = owner(hierarchy)
        counters.counts = replacement(counters.counts)
        with pytest.raises(error):
            _stepper_for(hierarchy, traces["cc.road"])

    def test_kernel_counts_in_the_models_arrays(self, traces):
        """A run increments the very arrays the model objects own."""
        hierarchy = build_hierarchy(build_scenario("tlp"), config=_single("batch"))
        arrays = [
            counters.counts for counters in (
                hierarchy.stats, hierarchy.l1d.stats, hierarchy.dram.stats,
                hierarchy.offchip_predictor, hierarchy.l1d_prefetch_filter,
                hierarchy.l1d_prefetcher, hierarchy.page_table,
            )
        ]
        _stepper_for(hierarchy, traces["cc.road"]).run()
        assert hierarchy.stats.counts is arrays[0]
        assert all(any(counts) for counts in arrays)
        hierarchy.reset_stats()
        assert hierarchy.stats.counts is arrays[0] and not any(arrays[0])
