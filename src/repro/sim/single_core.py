"""Single-core simulation driver.

Mirrors the paper's single-core methodology (Section V-C): each workload is
run for a warm-up phase (caches and predictors learn, statistics discarded)
followed by a measured phase from which IPC, DRAM transaction counts, MPKIs
and prefetch statistics are reported.

The warm-up/measured split is a zero-copy view into the trace's columns and
the core consumes the record stream column-wise (see
:meth:`repro.cpu.core.CoreRunner.run_trace`); no per-record objects are
materialized anywhere on the simulation path.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import SystemConfig, cascade_lake_single_core
from repro.cpu.core import CoreRunner
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import sample as obs_sample
from repro.sim.batch import run_phase, use_kernel
from repro.sim.results import SingleCoreResult, collect_single_core_result
from repro.sim.scenarios import Scenario, build_hierarchy
from repro.traces.trace import Trace


def run_single_core(
    trace: Trace,
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    hierarchy: Optional[MemoryHierarchy] = None,
) -> SingleCoreResult:
    """Run one workload trace under one scenario and collect the results.

    Args:
        trace: the workload trace to simulate.
        scenario: which prefetcher/predictor/filter combination to run.
        config: system configuration; defaults to the single-core Cascade
            Lake-like baseline of Table III.
        warmup_fraction: fraction of the trace used to warm caches and train
            predictors before statistics are reset.
        hierarchy: optionally, a pre-built hierarchy (used by tests that want
            to inspect or instrument specific components).

    The core is chosen once per point.  With ``config.sim_core == "batch"``
    (the default) the trace is stepped through the compiled kernel of
    :mod:`repro.sim.batch`; a hierarchy with a component the kernel does
    not model raises :class:`ValueError` naming it (run it with
    ``sim_core="scalar"``, the per-record reference path).  Without the
    compiled kernel the point runs scalar and a ``sim.batch.fallback``
    event says why.  Both cores produce bit-identical results.  Either way
    the warm-up (on its own runner), the statistics reset and the measured
    phase run through :func:`~repro.sim.batch.run_phase`; ``sim_sample``
    snapshots, when on, report the core that actually ran.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    system = config if config is not None else cascade_lake_single_core()
    memory = (
        hierarchy
        if hierarchy is not None
        else build_hierarchy(scenario, config=system)
    )

    fused = use_kernel(system.sim_core, [memory])

    # Opt-in per-N-accesses telemetry snapshots of the measured phase (None
    # when off); they go to the tracer sink, never into the result.
    sample_interval = obs_sample.sample_interval()
    emit_sample = (
        obs_sample.hook(
            trace.name, scenario.name, "batch" if fused else "scalar", memory
        )
        if sample_interval else None
    )

    warmup, measured = trace.split(warmup_fraction)
    if len(warmup):
        run_phase(CoreRunner(system.core, memory.demand_access), warmup, memory, fused)
        memory.reset_stats(include_shared=True)
    runner = CoreRunner(system.core, memory.demand_access)
    run_phase(runner, measured, memory, fused, emit_sample, sample_interval)
    result = runner.finish()
    memory.finalize()
    if emit_sample:
        # A final snapshot at the end of the measured phase closes the
        # time series at exactly the reported end-of-run metrics.
        emit_sample(
            memory.stats.demand_loads + memory.stats.demand_stores,
            result.instructions,
            result.cycles,
        )
    return collect_single_core_result(
        workload=trace.name,
        scenario=scenario.name,
        instructions=max(1, result.instructions),
        cycles=result.cycles,
        average_load_latency=result.average_load_latency,
        hierarchy=memory,
    )
