"""Correctness gate and simulated metrics of one workload run.

Every result is checked for conservation (the counts it reports must add
up) and digested; the digests of one seed must agree across every run in a
process, traced or not.  The simulated metrics (``sim.*`` and the per-scheme
event counts) are pure functions of the results, so they repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics

from repro import api

#: Schemes whose simulated event counts the traced run reports.
COUNTED_SCHEMES = ("baseline", "hermes", "tlp", "ppf")

#: Per-scheme event counts (suffixes of ``<scheme>.<count>``).
COUNT_NAMES = (
    "dram.total",
    "dram.speculative",
    "dram.prefetch",
    "l1d_pf.issued",
    "l1d_pf.filtered",
    "l1d_pf.accuracy",
    "offchip.spec_requests",
    "llc.mpki",
)


def invariant_violations(result, demand_accesses: int | None = None) -> list[str]:
    """Conservation laws ``result`` breaks (empty when it is consistent).

    ``demand_accesses`` is the number of loads and stores in the measured
    slice of a single-core point's trace.
    """
    problems = []
    by_source = sum(result.dram_transactions_by_source.values())
    if by_source != result.dram_transactions:
        problems.append(
            f"DRAM total {result.dram_transactions} != sum by source {by_source}"
        )
    if isinstance(result, api.MultiCoreResult):
        ipcs = result.ipcs
        if len(ipcs) != len(result.workloads):
            problems.append(f"{len(ipcs)} IPCs for {len(result.workloads)} cores")
    else:
        ipcs = [result.ipc]
        served = sum(result.served_by.values())
        if demand_accesses is not None and served != demand_accesses:
            problems.append(
                f"served_by sums to {served}, expected {demand_accesses} "
                "demand accesses"
            )
        resolved = result.useful_l1d_prefetches + result.useless_l1d_prefetches
        if resolved > result.l1d_prefetches_issued:
            problems.append(
                f"useful + useless L1D prefetches {resolved} > issued "
                f"{result.l1d_prefetches_issued}"
            )
    if not all(math.isfinite(ipc) and ipc > 0 for ipc in ipcs):
        problems.append(f"non-positive or non-finite IPC in {ipcs}")
    return problems


def result_digest(result) -> str:
    """Digest of every field of a result (floats at full precision)."""
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class Gate:
    """Counts attempted and failed points and keeps the reference digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, ok: bool, message: str, points: int = 1) -> None:
        """Count ``points`` attempted points (or one check) that all passed
        or all failed."""
        self.attempted += points
        if not ok:
            self.failed += points
            self.problems.append(message)

    def check_run(self, points, results: dict, demand: dict) -> None:
        """Check one run: every point present, consistent and reproducible."""
        for point in points:
            self.attempted += 1
            result = results.get(point.label)
            if result is None:
                self.failed += 1
                self.problems.append(f"{point.label}: no result")
                continue
            expected = (
                demand.get((point.workloads[0], point.memory_accesses))
                if point.kind == "single_core"
                else None
            )
            problems = invariant_violations(result, expected)
            digest = result_digest(result)
            reference = self.digests.setdefault(point.label, digest)
            if digest != reference:
                problems.append("result differs from an earlier run of this seed")
            if problems:
                self.failed += 1
                self.problems.extend(f"{point.label}: {p}" for p in problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ----------------------------------------------------------------------
# Simulated metrics
# ----------------------------------------------------------------------
def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def sim_metrics(points, results: dict) -> dict[str, float]:
    """TLP over baseline on the IPCP pairs, as ratios (1.0 = no change).

    ``sim.tlp_ipc_ratio`` is the geomean IPC ratio for single-core points
    and the geomean weighted-speedup ratio for multi-core mixes;
    ``sim.tlp_dram_ratio`` is the mean ratio of DRAM transactions.
    """
    isolated = {
        point.workloads[0]: results[point.label].ipc
        for point in points
        if point.kind == "single_core" and point.scheme == "baseline"
    }
    ipc_ratios, dram_ratios = [], []
    for point in points:
        if point.scheme != "tlp" or point.l1d_prefetcher != "ipcp":
            continue
        tlp = results[point.label]
        baseline = results[point.label.replace("/tlp/", "/baseline/")]
        if point.kind == "multi_core":
            isolated_ipcs = [isolated[name] for name in point.workloads]
            ipc_ratios.append(
                tlp.weighted_speedup(isolated_ipcs)
                / baseline.weighted_speedup(isolated_ipcs)
            )
        else:
            ipc_ratios.append(tlp.ipc / baseline.ipc)
        if baseline.dram_transactions > 0:
            dram_ratios.append(tlp.dram_transactions / baseline.dram_transactions)
    return {
        "sim.tlp_ipc_ratio": _geomean(ipc_ratios),
        "sim.tlp_dram_ratio": statistics.fmean(dram_ratios),
    }


def scheme_counts(points, results: dict) -> dict[str, float]:
    """Simulated event counts per scheme, summed over the workload's points.

    Multi-core results carry DRAM counts only; the L1D, off-chip and LLC
    counts come from single-core points.  Schemes the workload does not run
    report zeros.
    """
    totals = {
        scheme: dict.fromkeys(
            ("dram", "spec", "pf", "issued", "filtered", "useful", "useless",
             "offchip", "llc_misses", "instructions"),
            0.0,
        )
        for scheme in COUNTED_SCHEMES
    }
    for point in points:
        if point.scheme not in totals:
            continue
        total = totals[point.scheme]
        result = results[point.label]
        sources = result.dram_transactions_by_source
        total["dram"] += result.dram_transactions
        total["spec"] += sources["speculative"]
        total["pf"] += sources["l1d_prefetch"] + sources["l2c_prefetch"]
        if point.kind == "multi_core":
            continue
        total["issued"] += result.l1d_prefetches_issued
        total["filtered"] += result.l1d_prefetches_filtered
        total["useful"] += result.useful_l1d_prefetches
        total["useless"] += result.useless_l1d_prefetches
        total["offchip"] += result.speculative_requests
        total["llc_misses"] += result.mpki_by_level["LLC"] * result.instructions / 1000
        total["instructions"] += result.instructions
    counts = {}
    for scheme, total in totals.items():
        resolved = total["useful"] + total["useless"]
        values = (
            total["dram"],
            total["spec"],
            total["pf"],
            total["issued"],
            total["filtered"],
            total["useful"] / resolved if resolved else 0.0,
            total["offchip"],
            1000 * total["llc_misses"] / total["instructions"]
            if total["instructions"]
            else 0.0,
        )
        for name, value in zip(COUNT_NAMES, values):
            counts[f"{scheme}.{name}"] = value
    return counts
