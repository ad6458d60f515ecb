"""repro.api: the stable Python surface of the library.

Downstream scripts should import from here (and only here) rather than
reaching into submodules: the four entry points below -- plus the re-exported
result/config/trace types they produce and consume -- are the supported API
and keep their signatures across refactors of the internals.  Everything
else under :mod:`repro` is implementation and may move between releases.

The entry points and their CLI twins:

===================  =====================================================
``load_trace``       ``repro trace build`` -- one workload trace
``simulate_point``   ``repro sweep --workloads W --schemes S --prefetchers
                     P`` -- one (workload, scheme, prefetcher) simulation
``run_sweep``        ``repro sweep`` -- a user-defined point grid
``run_figure``       ``repro figure`` -- one registered paper figure
===================  =====================================================

``simulate_point`` and ``load_trace`` default to the budget, warm-up and
graph scale of :class:`ExperimentConfig`, so a one-off point gives the
answer ``run_sweep`` gives for the same point.  ``run_sweep`` and
``run_figure`` are the cached path: both run their points through
:meth:`CampaignCache.run_points` and read them back through a
:class:`SweepResults` view (``results.single_core(workload, scheme)``).

Every entry point that simulates checks each point's inputs when it makes
the point: an unknown workload, scheme or L1D prefetcher, or a budget
below one, raises ``ValueError`` before any point runs.

Every entry point takes ``core=`` to select the simulator core
implementation: "batch" (the default), the compiled kernel of
:mod:`repro.sim.batch`, or "scalar", the reference path it is
bit-identical to; results (and persistent cache entries) are shared
between the two.

Importing this module loads no simulator component: the simulator names
(``MemoryHierarchy``, the prefetchers and filters, ``run_single_core``,
``build_scenario`` ...) resolve on first access, and the entry points load
the simulator on the first point they simulate.

Example::

    from repro import api

    trace = api.load_trace("bfs.urand")
    baseline = api.simulate_point("bfs.urand", "baseline")
    tlp = api.simulate_point("bfs.urand", "tlp")
    print(tlp.ipc / baseline.ipc, tlp.dram_transactions)
"""

from __future__ import annotations

import importlib
from typing import Optional

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.common.names import SCHEMES
from repro.experiments.common import CampaignCache, ExperimentConfig, campaign_for
from repro.experiments.spec import (
    MultiCoreSweep,
    SingleCoreSweep,
    SweepResults,
    SweepSpec,
)
from repro.sim.engine import (
    CampaignPoint,
    build_workload_trace,
    execute_point,
    single_core_point,
)
from repro.sim.results import MultiCoreResult, SingleCoreResult
from repro.stats.metrics import percent_change, speedup_percent
from repro.traces.store import TraceStore
from repro.traces.trace import Trace
from repro.workloads.gap import GAP_KERNELS, gap_trace
from repro.workloads.spec_like import spec_like_trace

__all__ = [
    # Entry points
    "load_trace",
    "simulate_point",
    "run_sweep",
    "run_figure",
    # Sweep description
    "SweepSpec",
    "SingleCoreSweep",
    "MultiCoreSweep",
    "SweepResults",
    # Results and configuration
    "SingleCoreResult",
    "MultiCoreResult",
    "CampaignPoint",
    "CampaignCache",
    "ExperimentConfig",
    "SCHEMES",
    "Scenario",
    "build_scenario",
    "Trace",
    "TraceStore",
    "CacheConfig",
    "CoreConfig",
    "DRAMConfig",
    "SystemConfig",
    "cascade_lake_single_core",
    "cascade_lake_multi_core",
    # Direct simulation drivers (stable, but prefer the cached entry
    # points above for anything larger than a one-off run)
    "run_single_core",
    "run_multicore_mix",
    "MemoryHierarchy",
    # Extension surface: plug custom prefetchers/filters into a hierarchy
    "PrefetchFilter",
    "FilterDecision",
    "PrefetchRequest",
    "IPCPPrefetcher",
    "SPPPrefetcher",
    "SecondLevelPerceptron",
    # Workload generators and reporting helpers
    "gap_trace",
    "spec_like_trace",
    "GAP_KERNELS",
    "percent_change",
    "speedup_percent",
]

#: Names of ``__all__`` that live in the simulator layer -> their defining
#: module, imported on first access (see :func:`__getattr__`).
_SIMULATOR_NAMES = {
    "Scenario": "repro.sim.scenarios",
    "build_scenario": "repro.sim.scenarios",
    "run_single_core": "repro.sim.single_core",
    "run_multicore_mix": "repro.sim.multi_core",
    "MemoryHierarchy": "repro.memory.hierarchy",
    "PrefetchFilter": "repro.prefetchers.base",
    "FilterDecision": "repro.prefetchers.base",
    "PrefetchRequest": "repro.prefetchers.base",
    "IPCPPrefetcher": "repro.prefetchers.ipcp",
    "SPPPrefetcher": "repro.prefetchers.spp",
    "SecondLevelPerceptron": "repro.core.slp",
}


def __getattr__(name: str):
    """Resolve a simulator name on first access and bind it here."""
    module = _SIMULATOR_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def load_trace(
    workload: str,
    memory_accesses: int = ExperimentConfig.memory_accesses,
    gap_scale: str = ExperimentConfig.gap_scale,
    trace_store: Optional[TraceStore] = None,
) -> Trace:
    """Build (or load) the trace of a named workload.

    ``workload`` is a workload name: ``<kernel>.<graph>`` for the GAP suite
    (e.g. ``bfs.urand``), ``spec.<name>`` for the SPEC-like generators
    (:data:`repro.workloads.catalog.CATALOG_WORKLOADS` lists both), or
    ``imported.<name>`` for a trace ingested with ``repro trace import``.
    With a ``trace_store`` the generator runs only on a store miss and the
    trace comes back memory-mapped.
    """
    return build_workload_trace(
        workload, memory_accesses, gap_scale, trace_store=trace_store
    )


def simulate_point(
    workload: str,
    scheme: str,
    l1d_prefetcher: str = "ipcp",
    memory_accesses: int = ExperimentConfig.memory_accesses,
    warmup_fraction: float = ExperimentConfig.warmup_fraction,
    gap_scale: str = ExperimentConfig.gap_scale,
    system: Optional[SystemConfig] = None,
    core: Optional[str] = None,
    trace_store: Optional[TraceStore] = None,
) -> SingleCoreResult:
    """Simulate one (workload, scheme, prefetcher) single-core point.

    The one-shot entry point: builds the trace, runs the simulation, and
    returns the :class:`SingleCoreResult` -- no persistent caching.  The
    budget, warm-up and graph scale default to :class:`ExperimentConfig`'s,
    so the result equals what :func:`run_sweep` returns for the same
    point.  For repeated or overlapping runs, go through :func:`run_sweep`
    / :func:`run_figure`, which share the campaign engine's result cache.

    ``scheme`` is one of :data:`SCHEMES` (``baseline``, ``hermes``,
    ``tlp``, ...); ``core`` selects the simulator core implementation
    ("batch" by default, or the bit-identical "scalar" reference).  An
    input outside the design space raises ``ValueError``.
    """
    point = single_core_point(
        workload,
        scheme,
        l1d_prefetcher,
        memory_accesses,
        warmup_fraction,
        gap_scale=gap_scale,
        system=system,
        trace_store=trace_store,
    )
    return execute_point(point, trace_store=trace_store, sim_core=core)


def run_sweep(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    cache: Optional[CampaignCache] = None,
    jobs: Optional[int] = None,
    core: Optional[str] = None,
    use_result_cache: bool = True,
    trace_store: Optional[TraceStore] = None,
) -> SweepResults:
    """Compile and execute a user-defined sweep; return the results view.

    ``spec`` describes the point grid declaratively (see
    :class:`SweepSpec` / :class:`SingleCoreSweep` / :class:`MultiCoreSweep`);
    it is compiled against ``config`` (the default experiment configuration
    when None) and pushed through the campaign engine in one fan-out of
    ``jobs`` worker processes.  The returned :class:`SweepResults` resolves
    per-point lookups (``results.single_core(workload, scheme, ...)``).

    Pass an existing ``cache`` (any :class:`CampaignCache`) to share its
    in-process memo and engine across several sweeps/figures; otherwise one
    is built here (``core`` and ``trace_store`` configure it and are
    ignored when ``cache`` is given; ``config`` must then be None or equal
    ``cache.config``).
    """
    campaign = campaign_for(
        config, cache,
        use_result_cache=use_result_cache, trace_store=trace_store, sim_core=core,
    )
    points = spec.compile(
        campaign.config, trace_store=campaign.engine.trace_store
    )
    results = campaign.run_points(points, jobs=jobs)
    return SweepResults(
        campaign.config, results, trace_store=campaign.engine.trace_store
    )


def run_figure(
    name: str,
    config: Optional[ExperimentConfig] = None,
    cache: Optional[CampaignCache] = None,
    jobs: Optional[int] = None,
    core: Optional[str] = None,
    use_result_cache: bool = True,
    trace_store: Optional[TraceStore] = None,
    **params,
):
    """Execute one registered paper figure end to end; return its result.

    ``name`` is a figure id (``fig01`` ... ``fig17``, ``table02``; ids of
    figures that share one campaign, such as ``fig11``, name the same
    experiment as ``fig10``) or a registered experiment name.  Extra keyword ``params`` are forwarded to the
    figure's sweep builder and reducer (e.g. Figure 16's bandwidth points).
    The returned object is the figure's reduced result; render it with the
    spec's ``format_table`` or consume its fields directly.
    """
    from repro.experiments.spec import get_experiment, run_experiment

    campaign = campaign_for(
        config, cache,
        use_result_cache=use_result_cache, trace_store=trace_store, sim_core=core,
    )
    return run_experiment(
        get_experiment(name), cache=campaign, jobs=jobs, **params
    )

