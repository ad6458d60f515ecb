"""The L1D prefetchers by name: the values of every ``--prefetchers`` flag
and ``l1d_prefetchers`` sweep axis ("none" runs without one)."""

from __future__ import annotations

from repro.prefetchers.base import L1DPrefetcher
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher

#: Keyed by :data:`repro.common.names.L1D_PREFETCHER_NAMES`, in its order.
L1D_PREFETCHERS = {"ipcp": IPCPPrefetcher, "berti": BertiPrefetcher}


def make_l1d_prefetcher(name: str) -> L1DPrefetcher | None:
    """Instantiate an L1D prefetcher by name; ``"none"`` returns None."""
    normalized = name.lower()
    if normalized == "none":
        return None
    if normalized not in L1D_PREFETCHERS:
        raise ValueError(f"unknown L1D prefetcher {name!r}; choose from "
                         f"{sorted(L1D_PREFETCHERS) + ['none']}")
    return L1D_PREFETCHERS[normalized]()
