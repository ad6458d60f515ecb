"""Hardware prefetchers and prefetch filters.

L1D prefetchers: IPCP and Berti, the two used in the paper's evaluation.
L2 prefetcher: SPP.  Prefetch filter baseline: PPF.
"""

from repro.prefetchers.base import (
    L1DPrefetcher,
    L2Prefetcher,
    PrefetchFilter,
    PrefetchRequest,
)
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.prefetchers.spp import SPPPrefetcher

__all__ = [
    "L1DPrefetcher",
    "L2Prefetcher",
    "PrefetchFilter",
    "PrefetchRequest",
    "BertiPrefetcher",
    "IPCPPrefetcher",
    "PerceptronPrefetchFilter",
    "SPPPrefetcher",
]


def make_l1d_prefetcher(name: str) -> L1DPrefetcher | None:
    """Instantiate an L1D prefetcher by name.

    Recognised names: ``"ipcp"``, ``"berti"`` and ``"none"`` (returns None).
    """
    normalized = name.lower()
    if normalized == "none":
        return None
    factories = {
        "ipcp": IPCPPrefetcher,
        "berti": BertiPrefetcher,
    }
    try:
        return factories[normalized]()
    except KeyError as exc:
        raise ValueError(
            f"unknown L1D prefetcher {name!r}; choose from "
            f"{sorted(factories) + ['none']}"
        ) from exc
