"""Benchmark workloads: seeded inputs, point sets and the untraced run.

Each workload is a fixed sweep over catalog workloads.  Its inputs are the
traces of those workloads, generated here with the public generators from a
benchmark seed and written into a private :class:`~repro.api.TraceStore`
under the catalog keys, so the program under test only ever sees the
generated traces.  Seed 0 reproduces the catalog traces exactly.

Every workload runs in one process, closed loop (one caller; each point
starts after the previous one ends), with ``jobs=1``, the persistent result
cache off and ``core="batch"``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro import api
from repro.experiments.spec import get_experiment
from repro.traces.store import workload_key
from repro.traces.trace import KIND_NON_MEM

#: Generator seeds the catalog uses (``gap_trace``/``spec_like_trace``
#: defaults); benchmark seed ``n`` offsets both by ``n``.
GAP_BASE_SEED = 5
SPEC_BASE_SEED = 17

#: The simulator core every workload requests.
CORE = "batch"

HETER_MIX = ("bfs.urand", "spec.mcf_like", "spec.lbm_like", "cc.road")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a configuration plus the sweep it runs.

    ``figure`` names a registered figure run through ``api.run_figure``;
    otherwise ``sweep`` is run through ``api.run_sweep``.  ``identity_point``
    labels the point whose batch and scalar results must be bit-identical.
    """

    name: str
    why: str
    config: api.ExperimentConfig
    sweep: Callable[[api.ExperimentConfig], api.SweepSpec]
    identity_point: str
    figure: Optional[str] = None

    def points(self, trace_store=None) -> list[api.CampaignPoint]:
        """The compiled point set (independent of the seed)."""
        return self.sweep(self.config).compile(self.config, trace_store=trace_store)

    def reduce(self, view: api.SweepResults):
        """What the program does with the results after simulating them."""
        if self.figure is None:
            return view
        return get_experiment(self.figure).reduce(self.config, view)


def _sc_long_sweep(config: api.ExperimentConfig) -> api.SweepSpec:
    return api.SweepSpec(
        single_core=(
            api.SingleCoreSweep(
                schemes=("baseline", "tlp", "ppf"), l1d_prefetchers=("ipcp",)
            ),
            api.SingleCoreSweep(schemes=("tlp",), l1d_prefetchers=("berti",)),
        )
    )


def _fig10_sweep(config: api.ExperimentConfig) -> api.SweepSpec:
    return get_experiment("fig10").build_sweep(config)


def _mc_mix_sweep(config: api.ExperimentConfig) -> api.SweepSpec:
    return api.SweepSpec(
        multi_core=(
            api.MultiCoreSweep(
                mixes=(
                    ("gap.homog.bfs.urand", ("bfs.urand",) * 4),
                    ("heter.dispatch", HETER_MIX),
                ),
                schemes=("baseline", "hermes", "tlp"),
                l1d_prefetchers=("ipcp",),
                per_core_bandwidths=(3.2,),
            ),
        )
    )


def build_workloads(scale: float = 1.0) -> dict[str, Workload]:
    """The benchmark workloads; ``scale`` shrinks the access budgets (tests)."""

    def budget(accesses: int) -> int:
        return max(400, int(accesses * scale))

    workloads = (
        Workload(
            name="sc-long",
            why=(
                "long single-core points on DRAM-bound traces: the fused access "
                "kernel and the prefetcher/predictor/filter kernels do the work"
            ),
            config=api.ExperimentConfig(
                gap_workloads=("bfs.urand",),
                spec_workloads=("spec.mcf_like",),
                memory_accesses=budget(12_000),
                l1d_prefetchers=("ipcp", "berti"),
            ),
            sweep=_sc_long_sweep,
            identity_point="bfs.urand/tlp/ipcp",
        ),
        Workload(
            name="sc-sweep",
            why=(
                "fig10 sweep of short hit-dominated points: per-point fixed costs "
                "(compile, trace map, hierarchy build, reduce) and the hit path"
            ),
            config=api.ExperimentConfig(
                gap_workloads=("cc.road",),
                spec_workloads=(
                    "spec.lbm_like",
                    "spec.sphinx_like",
                    "spec.omnetpp_like",
                ),
                memory_accesses=budget(4_000),
                l1d_prefetchers=("ipcp",),
            ),
            sweep=_fig10_sweep,
            identity_point="spec.sphinx_like/tlp/ipcp",
            figure="fig10",
        ),
        Workload(
            name="mc-mix",
            why=(
                "4-core mixes sharing LLC and DRAM at 3.2 GB/s per core: the "
                "multi-core interleave and the shared back-end do the work"
            ),
            config=api.ExperimentConfig(
                gap_workloads=("bfs.urand", "cc.road"),
                spec_workloads=("spec.mcf_like", "spec.lbm_like"),
                multicore_memory_accesses=budget(2_000),
                l1d_prefetchers=("ipcp",),
            ),
            sweep=_mc_mix_sweep,
            identity_point="heter.dispatch/tlp/ipcp",
        ),
    )
    return {workload.name: workload for workload in workloads}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def generate_trace(
    workload: str, memory_accesses: int, gap_scale: str, seed: int
) -> api.Trace:
    """Run the public generator of a catalog workload under a benchmark seed."""
    if workload.startswith("spec."):
        return api.spec_like_trace(
            workload[len("spec."):],
            num_memory_accesses=memory_accesses,
            seed=SPEC_BASE_SEED + seed,
        )
    kernel, _, graph = workload.partition(".")
    return api.gap_trace(
        kernel,
        graph=graph,
        scale=gap_scale,
        max_memory_accesses=memory_accesses,
        seed=GAP_BASE_SEED + seed,
    )


def trace_inputs(points) -> list[tuple[str, int, str]]:
    """Distinct ``(workload, budget, gap_scale)`` traces a point set reads."""
    inputs: dict[tuple[str, int, str], None] = {}
    for point in points:
        for name in point.workloads:
            inputs[(name, point.memory_accesses, point.gap_scale)] = None
    return list(inputs)


def trace_digest(trace: api.Trace) -> str:
    """Content digest of a trace's columns."""
    digest = hashlib.sha256()
    for column in trace.columns():
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:32]


def populate_store(workload: Workload, directory: Path, seed: int) -> dict[str, str]:
    """Generate the workload's seeded traces into a store at ``directory``.

    Returns ``{"<workload>@<budget>": trace digest}``.
    """
    store = api.TraceStore(directory)
    digests = {}
    for name, budget, gap_scale in trace_inputs(workload.points()):
        trace = generate_trace(name, budget, gap_scale, seed)
        store.put(
            workload_key(name, budget, gap_scale),
            trace,
            extra={"workload": name, "budget": budget, "gap_scale": gap_scale,
                   "bench_seed": seed},
        )
        digests[f"{name}@{budget}"] = trace_digest(trace)
    return digests


def measured_demand_accesses(
    workload: Workload, store: api.TraceStore
) -> dict[tuple[str, int], int]:
    """Demand accesses in the measured slice of every input trace."""
    counts = {}
    for name, budget, gap_scale in trace_inputs(workload.points()):
        trace = api.load_trace(name, budget, gap_scale, trace_store=store)
        _, measured = trace.split(workload.config.warmup_fraction)
        _, _, kind = measured.columns()
        counts[(name, budget)] = int(np.count_nonzero(kind != KIND_NON_MEM))
    return counts


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------
def run_untraced(workload: Workload, store_dir: Path):
    """One untraced run of ``workload`` through ``repro.api``.

    Returns the campaign that ran it, or the exception the run raised.
    """
    campaign = api.CampaignCache(
        workload.config,
        use_result_cache=False,
        trace_store=api.TraceStore(store_dir),
        sim_core=CORE,
        jobs=1,
    )
    try:
        if workload.figure is not None:
            api.run_figure(workload.figure, cache=campaign, jobs=1)
        else:
            api.run_sweep(workload.sweep(workload.config), cache=campaign, jobs=1)
    except Exception as error:  # noqa: BLE001 -- every point counts as failed
        return error
    return campaign


def collect_results(workload: Workload, campaign) -> dict:
    """``{point label: result}`` of every point the run simulated.

    Only points the engine reports as ``ok`` are collected, and they come
    from the campaign's in-process memo, so nothing is simulated here.
    """
    simulated = {
        outcome.key
        for report in campaign.engine.reports
        for outcome in report.outcomes
        if outcome.status == "ok"
    }
    points = [
        point
        for point in workload.points(trace_store=campaign.engine.trace_store)
        if point.key() in simulated
    ]
    by_key = campaign.run_points(points)
    return {point.label: by_key[point.key()] for point in points}
