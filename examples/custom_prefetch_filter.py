"""Extending the library: plug a custom prefetch filter into the hierarchy.

The SLP component of TLP is just one implementation of the
:class:`repro.prefetchers.base.PrefetchFilter` interface.  This example shows
how a downstream user can experiment with their own filtering policy -- here,
a simple confidence-threshold filter that drops low-confidence IPCP
candidates -- and compare it against SLP on the same workload.  The compiled
batch core models only the stock components and refuses any other, so the
example runs on the scalar reference core (``sim_core="scalar"``), which
calls the filter's Python methods directly.

Run with::

    python examples/custom_prefetch_filter.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import (
    FilterDecision,
    IPCPPrefetcher,
    MemoryHierarchy,
    PrefetchFilter,
    PrefetchRequest,
    SecondLevelPerceptron,
    SPPPrefetcher,
    build_scenario,
    cascade_lake_single_core,
    run_single_core,
    spec_like_trace,
)


class ConfidenceThresholdFilter(PrefetchFilter):
    """Drop every candidate whose prefetcher confidence is below a threshold."""

    name = "confidence-threshold"

    def __init__(self, minimum_confidence: float = 0.5) -> None:
        self.minimum_confidence = minimum_confidence

    def consult(
        self,
        request: PrefetchRequest,
        paddr: int,
        trigger_offchip_prediction: bool,
        cycle: int,
    ) -> FilterDecision:
        return FilterDecision(issue=request.confidence >= self.minimum_confidence)

    def train(self, metadata: dict, outcome: bool) -> None:
        return None


def run_with_filter(trace, prefetch_filter, label: str) -> None:
    system = replace(cascade_lake_single_core(), sim_core="scalar")
    hierarchy = MemoryHierarchy(
        system,
        l1d_prefetcher=IPCPPrefetcher(),
        l2_prefetcher=SPPPrefetcher(),
        l1d_prefetch_filter=prefetch_filter,
    )
    result = run_single_core(
        trace, build_scenario("baseline"), config=system, hierarchy=hierarchy
    )
    print(
        f"{label:<24} ipc={result.ipc:.3f} dram={result.dram_transactions:>6d} "
        f"issued={result.l1d_prefetches_issued:>5d} "
        f"filtered={result.l1d_prefetches_filtered:>5d} "
        f"accuracy={100 * result.l1d_prefetch_accuracy:5.1f}%"
    )


def main() -> None:
    trace = spec_like_trace("omnetpp_like", num_memory_accesses=10_000)
    print(f"Workload: {trace.summary()}")
    print()
    run_with_filter(trace, None, "no filter (baseline)")
    run_with_filter(trace, ConfidenceThresholdFilter(0.5), "confidence >= 0.5")
    run_with_filter(trace, SecondLevelPerceptron(), "SLP (off-chip prediction)")
    print()
    print(
        "SLP filters by *predicted off-chip service* rather than by the\n"
        "prefetcher's own confidence, which is what lets it remove the useless\n"
        "DRAM-bound prefetches that a static confidence threshold keeps."
    )


if __name__ == "__main__":
    main()
