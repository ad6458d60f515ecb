"""Multi-core simulation driver.

The paper's multi-core evaluation runs 4-core mixes sharing the LLC and a
DRAM channel whose per-core bandwidth is one quarter of the single-core
configuration (3.2 GB/s per core, Table III).  The driver below builds one
:class:`~repro.memory.hierarchy.SharedMemory` back-end, one private hierarchy
and one incremental core model per trace, and merges the cores' loads and
stores on (dispatch cycle, core id) so that they contend for DRAM bandwidth
in time order.  Compute records touch only their own core's ROB, so this is
the order of stepping the earliest-dispatching core per instruction.  A
batch mix runs that merge over its cores' steppers in the compiled kernel
(``run_mix``); the Python heap below drives the scalar reference.
"""

from __future__ import annotations

from heapq import heappop, heapreplace
from typing import Optional

from repro.common.config import SystemConfig, cascade_lake_multi_core
from repro.common.types import MemLevel
from repro.cpu.core import CoreResult, CoreRunner
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.obs import sample as obs_sample
from repro.sim import native
from repro.sim.batch import fused_core_stepper, run_phase, use_kernel
from repro.sim.results import MultiCoreResult
from repro.sim.scenarios import Scenario, build_hierarchy
from repro.traces.trace import KIND_NON_MEM, Trace, trace_lists


def build_mix_hierarchies(
    scenario: Scenario, system: SystemConfig, num_cores: int
) -> list[MemoryHierarchy]:
    """One private hierarchy per core over one shared LLC/DRAM back-end."""
    shared = SharedMemory(system)
    return [
        build_hierarchy(scenario, config=system, shared=shared, core_id=core_id)
        for core_id in range(num_cores)
    ]


def run_multicore_mix(
    traces: list[Trace],
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    warmup_fraction: float = 0.2,
    mix_name: Optional[str] = None,
    hierarchies: Optional[list[MemoryHierarchy]] = None,
) -> MultiCoreResult:
    """Simulate one multi-core mix (one trace per core).

    With ``config.sim_core == "batch"`` (the default) every core runs its
    fused stepper and the kernel's ``run_mix`` interleaves them.  A core
    with a component the kernel does not model, or one shared with another
    core, raises :class:`ValueError` naming it (run such a mix with
    ``sim_core="scalar"``).  Without the compiled kernel every core runs
    scalar and one ``sim.batch.fallback`` event says why.  Each core's
    warm-up runs on its own, through :func:`~repro.sim.batch.run_phase`;
    the statistics are then reset and the measured phases interleave.
    ``hierarchies`` optionally supplies :func:`build_mix_hierarchies`, one
    per trace.  With sampling on, each core's measured phase emits
    ``sim_sample`` snapshots as a single core's does, plus one closing
    snapshot per core, each tagged with ``mix`` and ``core_id``.
    """
    if not traces:
        raise ValueError("a multi-core mix needs at least one trace")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    system = (
        config if config is not None else cascade_lake_multi_core(num_cores=len(traces))
    )
    if hierarchies is None:
        hierarchies = build_mix_hierarchies(scenario, system, len(traces))
    if len(hierarchies) != len(traces):
        raise ValueError(
            f"{len(traces)} traces need {len(traces)} hierarchies, got {len(hierarchies)}"
        )
    fused = use_kernel(system.sim_core, hierarchies)
    splits = [trace.split(warmup_fraction) for trace in traces]
    label = mix_name or "+".join(trace.name for trace in traces)

    # Warm-up: run each core's warm-up slice in turn (shared caches and
    # predictors learn; timing contention during warm-up is irrelevant).
    for hierarchy, (warm, _) in zip(hierarchies, splits):
        runner = CoreRunner(system.core, hierarchy.demand_access)
        run_phase(runner, warm, hierarchy, fused)
    for index, hierarchy in enumerate(hierarchies):
        hierarchy.reset_stats(include_shared=(index == 0))

    # Measured phase: resume the core whose pending load/store dispatches
    # first (ties to the lower core id).  Every core starts pending at -inf:
    # its first resume only runs compute records up to its first load/store.
    runners = [CoreRunner(system.core, h.demand_access) for h in hierarchies]
    # Opt-in per-N-accesses snapshots of each core (None when off); they go
    # to the tracer sink, never into the result.
    interval = obs_sample.sample_interval()
    hooks = [
        obs_sample.hook(
            trace.name, scenario.name, "batch" if fused else "scalar",
            hierarchy, mix=label, core_id=core_id,
        )
        if interval else None
        for core_id, (trace, hierarchy) in enumerate(zip(traces, hierarchies))
    ]
    measured = [phase for _, phase in splits]
    if fused:
        native.kernel().run_mix([
            fused_core_stepper(runner, trace, hierarchy, hook, interval)
            for runner, trace, hierarchy, hook in zip(
                runners, measured, hierarchies, hooks
            )
        ])
    else:
        steppers = [
            _scalar_stepper(runner, trace, hook, interval)
            for runner, trace, hook in zip(runners, measured, hooks)
        ]
        heap = [(float("-inf"), core_id) for core_id in range(len(steppers))]
        while heap:
            core_id = heap[0][1]
            cycle = next(steppers[core_id], None)
            if cycle is None:
                heappop(heap)
            else:
                heapreplace(heap, (cycle, core_id))

    results: list[CoreResult] = [runner.finish() for runner in runners]
    for hierarchy in hierarchies:
        hierarchy.finalize()
    if interval:
        # One closing snapshot per core, at its end-of-run metrics.
        for hook, hierarchy, result in zip(hooks, hierarchies, results):
            stats = hierarchy.stats
            hook(stats.demand_loads + stats.demand_stores,
                 result.instructions, result.cycles)

    dram_stats = hierarchies[0].dram.stats
    return MultiCoreResult(
        mix_name=label,
        scenario=scenario.name,
        workloads=[trace.name for trace in traces],
        ipcs=[result.ipc for result in results],
        instructions=[result.instructions for result in results],
        dram_transactions=dram_stats.total_transactions,
        dram_transactions_by_source=dram_stats.by_source(),
        per_core_dram_demand=[
            hierarchy.stats.served_by[MemLevel.DRAM] for hierarchy in hierarchies
        ],
    )


def _scalar_stepper(runner: CoreRunner, trace, sample_hook=None, sample_interval=None):
    """Scalar reference stepper: pauses before each load/store.

    With a ``sample_hook`` it calls the hook just after every
    ``sample_interval``-th load/store, where the single-core scalar path
    cuts its trace.
    """
    step = runner.step_values
    accesses = 0
    next_sample = sample_interval if sample_hook is not None else -1
    for pc, vaddr, kind in zip(*trace_lists(trace)):
        if kind == KIND_NON_MEM:
            step(pc, vaddr, kind)
            continue
        yield runner.next_dispatch_cycle
        step(pc, vaddr, kind)
        accesses += 1
        if accesses == next_sample:
            sample_hook(accesses, runner.instructions, runner.done_cycles)
            next_sample += sample_interval

