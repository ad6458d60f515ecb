"""Tests for the out-of-order core timing model."""

import dataclasses

import pytest

from repro.api import simulate_point
from repro.common.config import (
    CoreConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.common.types import AccessKind, AccessOutcome, MemLevel, MemoryAccess
from repro.cpu.core import CoreRunner
from repro.sim.multi_core import run_multicore_mix
from repro.sim.scenarios import build_scenario
from repro.workloads.spec_like import spec_like_trace


def fixed_latency_memory(latency):
    def access(pc, vaddr, cycle, is_write):
        return AccessOutcome(
            served_by=MemLevel.DRAM if latency > 50 else MemLevel.L1D,
            latency=latency,
            effective_latency=latency,
        )

    return access


def run(trace, memory, config=None):
    """Run ``trace`` to completion on a fresh runner; the aggregate timing."""
    runner = CoreRunner(config if config is not None else CoreConfig(), memory)
    runner.run_trace(trace)
    return runner.finish()


def make_trace(num_instructions, loads_every=4):
    records = []
    for index in range(num_instructions):
        if index % loads_every == 0:
            records.append(MemoryAccess(pc=0x400, vaddr=0x1000 + index * 64, kind=AccessKind.LOAD))
        else:
            records.append(MemoryAccess(pc=0x500, vaddr=0, kind=AccessKind.NON_MEM))
    return records


class TestIdealPipeline:
    def test_non_memory_ipc_approaches_width(self):
        config = CoreConfig(width=4, rob_size=224)
        trace = [MemoryAccess(pc=0x400, vaddr=0, kind=AccessKind.NON_MEM)] * 4000
        result = run(trace, fixed_latency_memory(1), config)
        assert result.ipc == pytest.approx(4.0, rel=0.05)

    def test_short_latency_loads_overlap(self):
        config = CoreConfig(width=4, rob_size=224)
        result = run(make_trace(4000), fixed_latency_memory(10), config)
        # A 10-cycle load every 4 instructions fits within the ROB window.
        assert result.ipc > 3.0

    def test_counts_loads_and_stores(self):
        trace = [
            MemoryAccess(0x1, 0x100, AccessKind.LOAD),
            MemoryAccess(0x2, 0x200, AccessKind.STORE),
            MemoryAccess(0x3, 0, AccessKind.NON_MEM),
        ]
        result = run(trace, fixed_latency_memory(5))
        assert result.loads == 1
        assert result.stores == 1
        assert result.instructions == 3


class TestMemoryBoundBehaviour:
    def test_long_latency_loads_reduce_ipc(self):
        config = CoreConfig(width=4, rob_size=224)
        fast = run(make_trace(2000), fixed_latency_memory(10), config)
        slow = run(make_trace(2000), fixed_latency_memory(400), config)
        assert slow.ipc < fast.ipc

    def test_rob_limits_memory_level_parallelism(self):
        small_rob = CoreConfig(width=4, rob_size=16)
        large_rob = CoreConfig(width=4, rob_size=224)
        trace = make_trace(2000, loads_every=2)
        slow = run(trace, fixed_latency_memory(300), small_rob)
        fast = run(trace, fixed_latency_memory(300), large_rob)
        assert fast.ipc > slow.ipc

    def test_average_load_latency_reported(self):
        result = run(make_trace(100), fixed_latency_memory(123))
        assert result.average_load_latency == pytest.approx(123.0)

    def test_stores_do_not_stall(self):
        loads = [MemoryAccess(0x1, 0x100 + i * 64, AccessKind.LOAD) for i in range(500)]
        stores = [MemoryAccess(0x1, 0x100 + i * 64, AccessKind.STORE) for i in range(500)]
        load_result = run(loads, fixed_latency_memory(300))
        store_result = run(stores, fixed_latency_memory(300))
        assert store_result.ipc > load_result.ipc


class TestCoreRunner:
    def test_incremental_stepping_matches_batch_run(self):
        # run_trace() is a fused copy of step_values(); this pins the two
        # exactly equal so a timing change applied to only one copy is caught.
        config = CoreConfig()
        trace = make_trace(500)
        batch = run(trace, fixed_latency_memory(50), config)
        runner = CoreRunner(config, fixed_latency_memory(50))
        for record in trace:
            runner.step_values(record.pc, record.vaddr, record.kind)
        incremental = runner.finish()
        assert incremental.cycles == batch.cycles
        assert incremental.instructions == batch.instructions
        assert incremental.loads == batch.loads
        assert incremental.stores == batch.stores
        assert incremental.total_load_latency == batch.total_load_latency

    def test_incremental_stepping_matches_batch_run_under_rob_pressure(self):
        # A tiny ROB with long-latency loads exercises the rob_constraint
        # branch of both implementations.
        config = CoreConfig(rob_size=8)
        trace = make_trace(400, loads_every=2)
        batch = run(trace, fixed_latency_memory(300), config)
        runner = CoreRunner(config, fixed_latency_memory(300))
        for record in trace:
            runner.step_values(record.pc, record.vaddr, record.kind)
        incremental = runner.finish()
        assert incremental.cycles == batch.cycles
        assert incremental.total_load_latency == batch.total_load_latency

    def test_next_dispatch_cycle_monotonic(self):
        runner = CoreRunner(CoreConfig(), fixed_latency_memory(20))
        previous = runner.next_dispatch_cycle
        for record in make_trace(200):
            runner.step_values(record.pc, record.vaddr, record.kind)
            assert runner.next_dispatch_cycle >= previous
            previous = runner.next_dispatch_cycle

    def test_invalid_config_rejected(self):
        """Both cores refuse a bad CoreConfig with the same ValueError: the
        runner itself, a single-core point and a 2-core mix."""
        trace = spec_like_trace("mcf_like", num_memory_accesses=200)
        for bad, message in (
            (dict(width=0), "core width must be positive"),
            (dict(rob_size=0), "rob size must be positive"),
        ):
            core = dataclasses.replace(CoreConfig(), **bad)
            with pytest.raises(ValueError, match=message):
                CoreRunner(core, fixed_latency_memory(1))
            single = dataclasses.replace(cascade_lake_single_core(), core=core)
            mix = dataclasses.replace(
                cascade_lake_multi_core(num_cores=2), core=core
            )
            for sim_core in ("scalar", "batch"):
                with pytest.raises(ValueError, match=message):
                    simulate_point(
                        "spec.mcf_like", "tlp", memory_accesses=200,
                        system=single, core=sim_core,
                    )
                with pytest.raises(ValueError, match=message):
                    run_multicore_mix(
                        [trace, trace], build_scenario("tlp"),
                        config=dataclasses.replace(mix, sim_core=sim_core),
                    )

    def test_ipc_zero_for_empty_trace(self):
        result = run([], fixed_latency_memory(1))
        assert result.instructions == 0
        assert result.ipc == 0.0
