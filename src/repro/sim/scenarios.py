"""Scenario builders: which predictor / filter / prefetcher combination runs.

A :class:`Scenario` names one point of the paper's design space:

* the L1D prefetcher (IPCP or Berti, the two evaluated in the paper, or
  none), looked up in :data:`L1D_PREFETCHERS`;
* the *scheme*, i.e. the off-chip-prediction / prefetch-filtering proposal
  under test, looked up in :data:`SCHEME_COMPONENTS`.

The L2 prefetcher is SPP in every paper configuration, aggressive under
:data:`AGGRESSIVE_SPP_SCHEMES`.

The two tables are the one place a name turns into components;
:mod:`repro.common.names` holds their keys as plain tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.common.config import SystemConfig, cascade_lake_single_core
from repro.common.names import L1D_PREFETCHER_CHOICES, SCHEMES
from repro.core.flp import FirstLevelPerceptron as FLP
from repro.core.slp import SecondLevelPerceptron as SLP
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher

#: L1D prefetcher name -> class, in ``L1D_PREFETCHER_NAMES`` order ("none"
#: runs without one).
L1D_PREFETCHERS = {"ipcp": IPCPPrefetcher, "berti": BertiPrefetcher}

#: ``prefetcher_7kb`` (Figure 17): each L1D prefetcher's tables enlarged to
#: TLP's storage budget.
PREFETCHER_7KB_SIZES = {
    "ipcp": {"ip_table_entries": 4096, "cplx_table_entries": 16384},
    "berti": {"table_entries": 2048},
}


def _two_level(flp: Optional[FLP], slp: Optional[SLP]) -> dict:
    return {"offchip_predictor": flp, "l1d_prefetch_filter": slp}


#: Scheme name -> builder of what the scheme adds to the prefetchers, as
#: :class:`MemoryHierarchy` keyword arguments; in ``SCHEMES`` order.
SCHEME_COMPONENTS = {
    "baseline": lambda: {},
    "ppf": lambda: {"l2_prefetch_filter": PerceptronPrefetchFilter()},
    "hermes": lambda: {"offchip_predictor": HermesPredictor()},
    "hermes_ppf": lambda: {
        "l2_prefetch_filter": PerceptronPrefetchFilter(),
        "offchip_predictor": HermesPredictor(),
    },
    # The paper's proposal: FLP with selective delay + SLP with the
    # leveling feature.  The Figure 15 designs switch these off; FLP alone
    # behaves like Hermes with FLP's thresholds, and Delayed TSP has no
    # immediate threshold, so every positive prediction waits for the L1D.
    "tlp": lambda: _two_level(
        FLP(selective_delay=True), SLP(use_leveling_feature=True)
    ),
    "flp": lambda: _two_level(FLP(selective_delay=False), None),
    "slp": lambda: _two_level(None, SLP(use_leveling_feature=False)),
    "tsp": lambda: _two_level(
        FLP(selective_delay=False), SLP(use_leveling_feature=False)
    ),
    "delayed_tsp": lambda: _two_level(
        FLP(tau_high=math.inf, selective_delay=True), SLP(use_leveling_feature=False)
    ),
    "selective_tsp": lambda: _two_level(
        FLP(selective_delay=True), SLP(use_leveling_feature=False)
    ),
    # Figure 17: Hermes with every weight table doubled (roughly +7KB); the
    # prefetcher's own enlargement is PREFETCHER_7KB_SIZES.
    "hermes_7kb": lambda: {"offchip_predictor": HermesPredictor(table_entries=2048)},
    "prefetcher_7kb": lambda: {},
}

#: PPF filters an aggressive SPP (lower thresholds, deeper lookahead).
AGGRESSIVE_SPP_SCHEMES = ("ppf", "hermes_ppf")


@dataclass(frozen=True)
class Scenario:
    """One simulated design point."""

    scheme: str = "baseline"
    l1d_prefetcher: str = "ipcp"

    @property
    def name(self) -> str:
        """Readable scenario identifier, e.g. ``"tlp/ipcp"``."""
        return f"{self.scheme}/{self.l1d_prefetcher}"


def build_scenario(scheme: str, l1d_prefetcher: str = "ipcp") -> Scenario:
    """Build a :class:`Scenario`; the scheme and L1D prefetcher must be
    table keys (or "none"), spelled exactly."""
    if scheme not in SCHEME_COMPONENTS:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if l1d_prefetcher != "none" and l1d_prefetcher not in L1D_PREFETCHERS:
        raise ValueError(
            f"unknown L1D prefetcher {l1d_prefetcher!r}; choose from "
            f"{L1D_PREFETCHER_CHOICES}"
        )
    return Scenario(scheme=scheme, l1d_prefetcher=l1d_prefetcher)


def build_hierarchy(
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    shared: Optional[SharedMemory] = None,
    core_id: int = 0,
) -> MemoryHierarchy:
    """Instantiate the memory hierarchy for one core under a scenario."""
    scheme, prefetcher = scenario.scheme, scenario.l1d_prefetcher
    l1d_prefetcher = None
    if prefetcher != "none":
        sizes = PREFETCHER_7KB_SIZES[prefetcher] if scheme == "prefetcher_7kb" else {}
        l1d_prefetcher = L1D_PREFETCHERS[prefetcher](**sizes)
    return MemoryHierarchy(
        config=config if config is not None else cascade_lake_single_core(),
        shared=shared,
        core_id=core_id,
        l1d_prefetcher=l1d_prefetcher,
        l2_prefetcher=SPPPrefetcher(aggressive=scheme in AGGRESSIVE_SPP_SCHEMES),
        **SCHEME_COMPONENTS[scheme](),
    )
