"""Scenario builders: which predictor / filter / prefetcher combination runs.

A :class:`Scenario` names one point of the paper's design space:

* the L1D prefetcher (IPCP or Berti, the two evaluated in the paper, or
  none);
* the L2 prefetcher (SPP in every paper configuration);
* the *scheme*, i.e. the off-chip-prediction / prefetch-filtering proposal
  under test:

  - ``baseline``       -- prefetchers only, no off-chip prediction, no filter;
  - ``ppf``            -- PPF filtering an aggressive SPP at L2;
  - ``hermes``         -- Hermes off-chip prediction;
  - ``hermes_ppf``     -- both of the above;
  - ``tlp``            -- the paper's proposal (FLP + SLP);
  - ``flp`` / ``slp`` / ``tsp`` / ``delayed_tsp`` / ``selective_tsp``
                       -- the Figure 15 ablation variants;
  - ``hermes_7kb``     -- Hermes given TLP's extra storage budget (Figure 17);
  - ``prefetcher_7kb`` -- the L1D prefetcher given extra table storage
                          (Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import SystemConfig, cascade_lake_single_core
from repro.core.tlp import TwoLevelPerceptron
from repro.core.variants import ABLATION_VARIANTS, build_ablation_variant
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.l1d import make_l1d_prefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher

#: All recognised scheme names.
SCHEMES = (
    "baseline",
    "ppf",
    "hermes",
    "hermes_ppf",
    "tlp",
    "flp",
    "slp",
    "tsp",
    "delayed_tsp",
    "selective_tsp",
    "hermes_7kb",
    "prefetcher_7kb",
)

#: Figure 15 designs built by :func:`build_ablation_variant`; the full TLP
#: is built as ``tlp``.
_ABLATION_SCHEMES = tuple(name for name in ABLATION_VARIANTS if name != "tlp")


@dataclass(frozen=True)
class Scenario:
    """One simulated design point."""

    scheme: str = "baseline"
    l1d_prefetcher: str = "ipcp"
    l2_prefetcher: str = "spp"

    @property
    def name(self) -> str:
        """Readable scenario identifier, e.g. ``"tlp/ipcp"``."""
        return f"{self.scheme}/{self.l1d_prefetcher}"


def build_scenario(
    scheme: str, l1d_prefetcher: str = "ipcp", l2_prefetcher: str = "spp"
) -> Scenario:
    """Validate the scheme name and build a :class:`Scenario`."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return Scenario(
        scheme=scheme, l1d_prefetcher=l1d_prefetcher, l2_prefetcher=l2_prefetcher
    )


def _build_l1d_prefetcher(scenario: Scenario):
    if scenario.scheme == "prefetcher_7kb":
        # Figure 17: give the baseline prefetcher TLP's storage budget by
        # enlarging its internal tables.
        if scenario.l1d_prefetcher == "ipcp":
            return IPCPPrefetcher(ip_table_entries=4096, cplx_table_entries=16384)
        if scenario.l1d_prefetcher == "berti":
            return BertiPrefetcher(table_entries=2048)
    return make_l1d_prefetcher(scenario.l1d_prefetcher)


def _build_l2_prefetcher(scenario: Scenario):
    if scenario.l2_prefetcher == "none":
        return None
    aggressive = scenario.scheme in ("ppf", "hermes_ppf")
    return SPPPrefetcher(aggressive=aggressive)


def build_hierarchy(
    scenario: Scenario,
    config: Optional[SystemConfig] = None,
    shared: Optional[SharedMemory] = None,
    core_id: int = 0,
) -> MemoryHierarchy:
    """Instantiate the memory hierarchy for one core under a scenario."""
    system = config if config is not None else cascade_lake_single_core()
    l1d_prefetcher = _build_l1d_prefetcher(scenario)
    l2_prefetcher = _build_l2_prefetcher(scenario)

    offchip_predictor = None
    l1d_filter = None
    l2_filter = None

    scheme = scenario.scheme
    if scheme in ("ppf", "hermes_ppf"):
        l2_filter = PerceptronPrefetchFilter()
    if scheme in ("hermes", "hermes_ppf"):
        offchip_predictor = HermesPredictor()
    if scheme == "hermes_7kb":
        # Double every weight table: roughly +7KB of state.
        offchip_predictor = HermesPredictor(table_entries=2048)
    if scheme == "tlp":
        tlp = TwoLevelPerceptron()
        offchip_predictor = tlp.flp
        l1d_filter = tlp.slp
    if scheme in _ABLATION_SCHEMES:
        variant = build_ablation_variant(scheme)
        offchip_predictor = variant.offchip_predictor
        l1d_filter = variant.l1d_prefetch_filter

    return MemoryHierarchy(
        config=system,
        shared=shared,
        core_id=core_id,
        l1d_prefetcher=l1d_prefetcher,
        l2_prefetcher=l2_prefetcher,
        l1d_prefetch_filter=l1d_filter,
        l2_prefetch_filter=l2_filter,
        offchip_predictor=offchip_predictor,
    )
