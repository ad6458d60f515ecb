"""Interfaces shared by all prefetchers and prefetch filters."""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.common.types import MemLevel
from repro.memory.pool import state_array

#: In-page deltas lie in -63..63 (SPP's pattern table, Berti's counters).
DELTA_SPAN = 127


def flat_table(items: int, dtype) -> memoryview:
    """A zeroed flat state table (a recycled
    :func:`~repro.memory.pool.state_array`); subscripts return plain Python
    numbers."""
    return memoryview(state_array(np.dtype(dtype).char, items))


class FifoTable:
    """A FIFO of page keys in flat arrays that the batch simulator core's
    kernel uses in place: ``pages[slot]`` (-1: free) and the one-element
    ``inserted``, the number of pages inserted so far -- page ``n`` takes
    slot ``n % size``, the oldest page's once the table is full.  Lookups go
    through a private page -> slot dict, rebuilt from ``pages`` whenever
    ``inserted`` has moved without it (the kernel inserted pages), so it
    never goes stale."""

    def __init__(self, size: int) -> None:
        self.pages = array("q", [-1]) * size
        self.inserted = array("q", [0])
        self._slots: dict[int, int] = {}
        self._synced = 0

    def find(self, page: int) -> int:
        """The slot holding ``page``, or -1."""
        if self._synced != self.inserted[0]:
            self._slots = {key: slot for slot, key in enumerate(self.pages) if key != -1}
            self._synced = self.inserted[0]
        return self._slots.get(page, -1)

    def insert(self, page: int) -> int:
        """Store a page :meth:`find` did not find; returns its slot."""
        count = self.inserted[0]
        slot = count % len(self.pages)
        self._slots.pop(self.pages[slot], None)
        self.pages[slot] = page
        self._slots[page] = slot
        self.inserted[0] = self._synced = count + 1
        return slot


def check_table_sizes(owner: str, **sizes: int) -> None:
    """Raise ValueError unless every named table size is at least 1."""
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"{owner}: {name} must be at least 1, got {size}")


@dataclass(slots=True)
class PrefetchRequest:
    """A prefetch candidate produced by a prefetcher.

    Attributes:
        vaddr: virtual byte address to prefetch (block aligned addresses are
            accepted too; the hierarchy aligns to blocks).
        trigger_pc: PC of the demand access that triggered the prefetch.
        trigger_vaddr: virtual address of the triggering demand access.
        fill_level: level the prefetcher wants the block installed into
            (L1D prefetchers always target L1D; SPP may target L2C or LLC
            depending on path confidence).
        confidence: prefetcher-specific confidence in [0, 1], exposed so
            filters can use it as a feature.
    """

    vaddr: int
    trigger_pc: int
    trigger_vaddr: int
    fill_level: MemLevel = MemLevel.L1D
    confidence: float = 1.0
    metadata: dict = field(default_factory=dict)


class L1DPrefetcher(ABC):
    """Interface of an L1D prefetcher.

    The hierarchy calls :meth:`on_demand_access` for every demand load/store
    reaching the L1D, and :meth:`on_fill` when a block (demand or prefetch)
    is installed in the L1D, mirroring ChampSim's prefetcher hooks.
    """

    name = "l1d-prefetcher"

    @abstractmethod
    def on_demand_access(
        self, pc: int, vaddr: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        """React to a demand access and return prefetch candidates."""

    def on_fill(self, vaddr: int, prefetched: bool, cycle: int) -> None:
        """Optional hook invoked when a block is filled into the L1D."""

    def reset(self) -> None:
        """Clear all internal state (used between warm-up and measurement)."""


class L2Prefetcher(ABC):
    """Interface of an L2 prefetcher (SPP in the paper's baseline)."""

    name = "l2-prefetcher"

    @abstractmethod
    def on_access(
        self, paddr: int, pc: int, hit: bool, cycle: int
    ) -> list[PrefetchRequest]:
        """React to an L2 access (demand miss from L1D) with candidates."""

    def reset(self) -> None:
        """Clear all internal state."""


@dataclass(slots=True)
class FilterDecision:
    """Outcome of consulting a prefetch filter for one candidate."""

    issue: bool
    confidence: float = 0.0
    metadata: dict = field(default_factory=dict)


class PrefetchFilter(ABC):
    """Interface of a prefetch filter (PPF at L2, SLP at L1D).

    ``consult`` decides whether a candidate should be issued and returns
    training metadata; ``train`` is called once the outcome of the prefetch
    is known.  The meaning of ``outcome`` differs between filters: PPF trains
    on *usefulness* (was the block demanded before eviction) whereas SLP
    trains on *off-chip service* (was the prefetch served from DRAM).
    """

    name = "prefetch-filter"

    @abstractmethod
    def consult(
        self,
        request: PrefetchRequest,
        paddr: int,
        trigger_offchip_prediction: bool,
        cycle: int,
    ) -> FilterDecision:
        """Decide whether to issue the candidate prefetch."""

    @abstractmethod
    def train(self, metadata: dict, outcome: bool) -> None:
        """Update the filter with the observed outcome of a prefetch."""

    def reset(self) -> None:
        """Clear all internal state."""


class AlwaysIssueFilter(PrefetchFilter):
    """A no-op filter that lets every prefetch through (baseline behaviour)."""

    name = "always-issue"

    def consult(
        self,
        request: PrefetchRequest,
        paddr: int,
        trigger_offchip_prediction: bool,
        cycle: int,
    ) -> FilterDecision:
        return FilterDecision(issue=True, confidence=1.0)

    def train(self, metadata: dict, outcome: bool) -> None:
        return None
