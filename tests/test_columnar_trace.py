"""Columnar trace engine tests.

Pins the tentpole guarantees of the struct-of-arrays trace representation:

* the vectorized generators are record-for-record identical to the
  record-at-a-time reference implementations (same seed, same stream);
* simulation metrics are bit-identical whether the drivers consume a
  columnar :class:`Trace` or a plain object list of records (single-core
  and multi-core);
* ``split()``/``truncated()`` are zero-copy views;
* the result cache GC policy evicts oldest-first.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.addresses import BLOCK_SIZE
from repro.common.config import cascade_lake_multi_core, cascade_lake_single_core
from repro.common.types import AccessKind, MemoryAccess
from repro.sim.engine import build_workload_trace
from repro.sim.multi_core import run_multicore_mix
from repro.sim.scenarios import build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.synthetic import (
    REFERENCE_GENERATORS,
    SyntheticTraceConfig,
    mixed_trace,
    pointer_chase_trace,
    random_access_trace,
    streaming_trace,
    strided_trace,
)
from repro.traces.trace import Trace, trace_lists
from repro.workloads.spec_like import SPEC_LIKE_WORKLOADS, spec_like_trace


# ----------------------------------------------------------------------
# Generator equivalence: vectorized columns == record-at-a-time reference
# ----------------------------------------------------------------------
def _assert_traces_identical(columnar: Trace, reference: Trace) -> None:
    cp, cv, ck = columnar.columns()
    rp, rv, rk = reference.columns()
    assert len(cp) == len(rp)
    assert np.array_equal(cp, rp)
    assert np.array_equal(cv, rv)
    assert np.array_equal(ck, rk)
    assert columnar.metadata == reference.metadata


GENERATOR_CASES = [
    ("streaming", streaming_trace,
     dict(num_memory_accesses=2000, working_set_bytes=1 << 20,
          compute_per_access=2, store_fraction=0.3, seed=3), {}),
    ("strided", strided_trace,
     dict(num_memory_accesses=2000, working_set_bytes=(1 << 18) + 77,
          compute_per_access=1, store_fraction=0.2, seed=8),
     dict(stride_blocks=2, elements_per_column=5)),
    ("random", random_access_trace,
     dict(num_memory_accesses=2001, working_set_bytes=(3 << 20) + 64,
          compute_per_access=2, store_fraction=0.1, hot_fraction=0.8,
          hot_working_set_bytes=160 * 1024, seed=17), {}),
    ("random", random_access_trace,
     dict(num_memory_accesses=2000, working_set_bytes=4 << 20,
          compute_per_access=0, seed=9), {}),
    ("pointer_chase", pointer_chase_trace,
     dict(num_memory_accesses=2001, working_set_bytes=8 << 20,
          compute_per_access=3, store_fraction=0.05, hot_fraction=0.8,
          hot_working_set_bytes=192 * 1024, seed=17), {}),
    ("mixed", mixed_trace,
     dict(num_memory_accesses=2000, working_set_bytes=3 << 20,
          compute_per_access=4, store_fraction=0.1, seed=17),
     dict(random_fraction=0.12)),
    # The pointer-doubling raw-stream replay must track the data-dependent
    # draw positions across the whole branch-probability range, with and
    # without the trailing store draw, including non-block-aligned working
    # sets and the degenerate all-stream/all-random fractions.
    ("mixed", mixed_trace,
     dict(num_memory_accesses=2001, working_set_bytes=(1 << 20) + 96,
          compute_per_access=0, seed=5),
     dict(random_fraction=0.5)),
    ("mixed", mixed_trace,
     dict(num_memory_accesses=1999, working_set_bytes=2 << 20,
          compute_per_access=2, store_fraction=0.25, seed=29),
     dict(random_fraction=0.85)),
    ("mixed", mixed_trace,
     dict(num_memory_accesses=500, working_set_bytes=1 << 20,
          compute_per_access=1, store_fraction=0.5, seed=11),
     dict(random_fraction=0.0)),
    ("mixed", mixed_trace,
     dict(num_memory_accesses=500, working_set_bytes=1 << 20,
          compute_per_access=1, seed=11),
     dict(random_fraction=1.0)),
]


@pytest.mark.parametrize("pattern, generator, config_kwargs, kwargs", GENERATOR_CASES)
def test_vectorized_generators_match_reference(pattern, generator, config_kwargs, kwargs):
    config = SyntheticTraceConfig(**config_kwargs)
    _assert_traces_identical(
        generator(config, **kwargs),
        REFERENCE_GENERATORS[pattern](config, **kwargs),
    )


def test_every_spec_like_workload_matches_its_reference():
    pattern_kwargs = {
        "strided": lambda spec: {"stride_blocks": spec.stride_blocks},
        "mixed": lambda spec: {"random_fraction": spec.random_fraction},
    }
    for name, spec in SPEC_LIKE_WORKLOADS.items():
        config = SyntheticTraceConfig(
            num_memory_accesses=600,
            working_set_bytes=int(spec.working_set_mib * 1024 * 1024),
            compute_per_access=spec.compute_per_access,
            store_fraction=spec.store_fraction,
            hot_fraction=spec.hot_fraction,
            hot_working_set_bytes=spec.hot_working_set_kib * 1024,
            seed=17,
        )
        kwargs = pattern_kwargs.get(spec.pattern, lambda spec: {})(spec)
        reference = REFERENCE_GENERATORS[spec.pattern](config, name=spec.name, **kwargs)
        columnar = spec_like_trace(name, num_memory_accesses=600)
        cp, cv, ck = columnar.columns()
        rp, rv, rk = reference.columns()
        assert np.array_equal(cp, rp), name
        assert np.array_equal(cv, rv), name
        assert np.array_equal(ck, rk), name


def test_same_seed_same_record_stream():
    first = spec_like_trace("omnetpp_like", num_memory_accesses=500, seed=23)
    second = spec_like_trace("omnetpp_like", num_memory_accesses=500, seed=23)
    _assert_traces_identical(first, second)


# ----------------------------------------------------------------------
# Simulation equivalence: columnar trace == object-record stream
# ----------------------------------------------------------------------
class ObjectTrace:
    """The legacy trace shape: a bag of MemoryAccess objects.

    Exposes only the record-stream API (no ``as_lists``), forcing the
    drivers through the per-record fallback of :func:`trace_lists`.
    """

    def __init__(self, name, records, metadata=None):
        self.name = name
        self.records = list(records)
        self.metadata = metadata or {}

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def split(self, fraction):
        cut = int(len(self.records) * fraction)
        return (
            ObjectTrace(self.name + ".warmup", self.records[:cut], dict(self.metadata)),
            ObjectTrace(self.name, self.records[cut:], dict(self.metadata)),
        )


def test_single_core_metrics_identical_columnar_vs_object_list():
    columnar = build_workload_trace("spec.omnetpp_like", 1500, "tiny")
    legacy = ObjectTrace(columnar.name, list(columnar), dict(columnar.metadata))
    scenario = build_scenario("tlp", l1d_prefetcher="ipcp")
    result_columnar = run_single_core(columnar, scenario, warmup_fraction=0.25)
    # An ObjectTrace has no columns for the batch kernel: scalar core.
    scalar = dataclasses.replace(cascade_lake_single_core(), sim_core="scalar")
    scenario = build_scenario("tlp", l1d_prefetcher="ipcp")
    result_legacy = run_single_core(
        legacy, scenario, config=scalar, warmup_fraction=0.25
    )
    assert dataclasses.asdict(result_columnar) == dataclasses.asdict(result_legacy)


def test_multi_core_metrics_identical_columnar_vs_object_list():
    workloads = ("bfs.urand", "spec.mcf_like")
    columnar = [build_workload_trace(w, 800, "tiny") for w in workloads]
    legacy = [ObjectTrace(t.name, list(t), dict(t.metadata)) for t in columnar]
    result_columnar = run_multicore_mix(
        columnar, build_scenario("hermes", l1d_prefetcher="ipcp"),
        warmup_fraction=0.25, mix_name="mix",
    )
    # An ObjectTrace has no columns for the batch kernel: scalar core.
    scalar = dataclasses.replace(
        cascade_lake_multi_core(num_cores=len(legacy)), sim_core="scalar"
    )
    result_legacy = run_multicore_mix(
        legacy, build_scenario("hermes", l1d_prefetcher="ipcp"),
        config=scalar, warmup_fraction=0.25, mix_name="mix",
    )
    assert dataclasses.asdict(result_columnar) == dataclasses.asdict(result_legacy)


# ----------------------------------------------------------------------
# Columnar container semantics
# ----------------------------------------------------------------------
class TestColumnarContainer:
    def test_split_is_zero_copy(self):
        trace = spec_like_trace("lbm_like", num_memory_accesses=400)
        parent_pc, parent_vaddr, parent_kind = trace.columns()
        warmup, measured = trace.split(0.25)
        for part in (warmup, measured):
            pc, vaddr, kind = part.columns()
            assert np.shares_memory(pc, parent_pc)
            assert np.shares_memory(vaddr, parent_vaddr)
            assert np.shares_memory(kind, parent_kind)
        assert len(warmup) + len(measured) == len(trace)

    def test_truncated_is_zero_copy_view(self):
        trace = spec_like_trace("lbm_like", num_memory_accesses=400)
        truncated = trace.truncated(100)
        assert len(truncated) == 100
        assert np.shares_memory(truncated.columns()[0], trace.columns()[0])

    def test_append_tail_consolidates(self):
        trace = Trace("t")
        trace.append(MemoryAccess(0x1, 0x100, AccessKind.LOAD))
        trace.extend([MemoryAccess(0x2, 0x200, AccessKind.STORE),
                      MemoryAccess(0x3, 0, AccessKind.NON_MEM)])
        assert len(trace) == 3
        assert trace.num_loads == 1
        assert trace.num_stores == 1
        # Appends after a columnar read land in a fresh tail.
        trace.append(MemoryAccess(0x4, 0x300, AccessKind.LOAD))
        assert len(trace) == 4
        assert trace.num_loads == 2
        assert [r.pc for r in trace] == [0x1, 0x2, 0x3, 0x4]

    def test_records_round_trip(self):
        records = [MemoryAccess(0x10 + i, i * 64, AccessKind.LOAD) for i in range(5)]
        trace = Trace("t", records)
        assert trace.records == records
        assert trace[2] == records[2]
        assert trace[1:3].records == records[1:3]

    def test_footprint_uses_block_size_constant(self):
        trace = Trace("t", [
            MemoryAccess(0x1, 0, AccessKind.LOAD),
            MemoryAccess(0x1, BLOCK_SIZE - 1, AccessKind.LOAD),
            MemoryAccess(0x1, BLOCK_SIZE, AccessKind.LOAD),
        ])
        assert trace.footprint_bytes() == 2 * BLOCK_SIZE

    def test_trace_lists_fallback_matches_columnar(self):
        trace = spec_like_trace("wrf_like", num_memory_accesses=100)
        shim = ObjectTrace(trace.name, list(trace))
        assert list(trace_lists(shim)) == list(trace.as_lists())
