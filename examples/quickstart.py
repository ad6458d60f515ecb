"""Quickstart: compare TLP against Hermes on one graph workload.

Builds a BFS trace over a synthetic power-law graph, runs it through the
baseline system (IPCP + SPP, no off-chip prediction), through Hermes, and
through TLP, and prints the paper's headline metrics: speedup over the
baseline, change in DRAM transactions, and L1D prefetcher accuracy.

The simulations go through the campaign engine's persistent result cache
(``.repro_cache/`` by default), so a second invocation of this script skips
them entirely.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import (
    CampaignCache,
    ExperimentConfig,
    SingleCoreSweep,
    SweepSpec,
    run_sweep,
)

WORKLOAD = "bfs.kron"
ACCESSES = 12_000
SCHEMES = ("baseline", "hermes", "tlp")


def main() -> None:
    # warmup_fraction pinned to the simulation driver's default so the
    # numbers match what this script printed before it used the engine.
    campaign = CampaignCache(
        ExperimentConfig(memory_accesses=ACCESSES, warmup_fraction=0.2)
    )
    print("Generating a BFS trace over a synthetic power-law (kron-like) graph...")
    # The engine's trace memo: the simulations below reuse this trace.
    trace = campaign.engine.trace(WORKLOAD, ACCESSES, campaign.config.gap_scale)
    print(f"  trace: {trace.summary()}")

    for scheme in SCHEMES:
        print(f"Simulating scheme {scheme!r}...")
    spec = SweepSpec(single_core=(
        SingleCoreSweep(workloads=(WORKLOAD,), schemes=SCHEMES,
                        l1d_prefetchers=("ipcp",)),
    ))
    view = run_sweep(spec, cache=campaign)
    results = {scheme: view.single_core(WORKLOAD, scheme) for scheme in SCHEMES}
    engine = campaign.engine
    if engine.cache_hits:
        print(f"  ({engine.cache_hits} of {len(results)} runs served from the "
              f"result cache)")

    baseline = results["baseline"]
    print()
    print(f"{'scheme':<10} {'IPC':>7} {'speedup':>9} {'DRAM tx':>9} {'DRAM chg':>9} {'pf acc':>7}")
    for scheme, result in results.items():
        speedup = 100.0 * (result.ipc / baseline.ipc - 1.0)
        dram_change = 100.0 * (
            result.dram_transactions / baseline.dram_transactions - 1.0
        )
        print(
            f"{scheme:<10} {result.ipc:>7.3f} {speedup:>8.1f}% "
            f"{result.dram_transactions:>9d} {dram_change:>8.1f}% "
            f"{100 * result.l1d_prefetch_accuracy:>6.1f}%"
        )
    print()
    print(
        "Expected shape (paper, Figures 10-12): TLP speeds the workload up while\n"
        "*reducing* DRAM transactions and raising prefetcher accuracy; Hermes\n"
        "gains performance but increases DRAM transactions."
    )


if __name__ == "__main__":
    main()
