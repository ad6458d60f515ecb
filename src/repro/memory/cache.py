"""Set-associative cache model with prefetch-awareness.

Each cache level of the hierarchy (L1D, L2C, LLC) is an instance of
:class:`Cache`.  Besides the usual lookup/fill/evict behaviour the model keeps
per-block prefetch metadata so that the experiments can reproduce the paper's
prefetch-accuracy analysis (Figures 5, 6 and 12): every block filled by a
prefetcher remembers which prefetcher brought it and from which hierarchy
level it was served, and the cache reports whether the block was used by a
demand access before being evicted.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.common.config import CacheConfig
from repro.common.counters import Counters
from repro.memory.pool import state_array

#: Bits of a slot's ``_flags`` byte.  :data:`PREFETCH_PENDING` marks an
#: issued L1D prefetch whose usefulness the hierarchy has not counted yet.
DIRTY = 1
PREFETCHED = 2
PREFETCH_USEFUL = 4
PREFETCH_PENDING = 8


class CacheStats(Counters, fields=(
    "demand_accesses", "demand_hits", "demand_misses", "prefetch_fills",
    "demand_fills", "evictions", "useful_prefetch_evictions",
    "useless_prefetch_evictions", "prefetch_hits", "writebacks",
)):
    """Counters exported by each cache level."""

    @property
    def demand_hit_rate(self) -> float:
        """Fraction of demand accesses that hit."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses


_C = CacheStats.SLOT


@dataclass
class EvictionInfo:
    """Describes a block that was evicted to make room for a fill."""

    block_addr: int
    was_prefetched: bool
    prefetch_was_useful: bool
    was_dirty: bool
    #: The level that served the block's still-pending L1D prefetch, or -1.
    pending_source: int = -1


class Cache:
    """A set-associative, write-back cache with LRU replacement.

    Addresses handled by the cache are *block addresses* (byte address
    shifted right by 6); callers are responsible for the conversion, which
    keeps the hot path cheap.

    Block ``b`` maps to set ``b % num_sets``.  The whole cache state is a
    handful of flat typed arrays, which the compiled kernel of
    :mod:`repro.sim.batch` reads and writes in place through the buffer
    protocol, so both cores share one representation.  Way ``w`` of set
    ``s`` is slot ``s * associativity + w`` of the per-slot arrays:
    ``_tags`` (the block address, -1 when free), ``_stamps`` (the LRU
    access stamp), ``_ready`` (the cycle the fill arrives), ``_flags``
    (:data:`DIRTY`, :data:`PREFETCHED` and :data:`PREFETCH_USEFUL` bits) and
    ``_source`` (the level a prefetch was served from, -1 for none).  A
    set's occupied ways are always a prefix of its slots -- a fill takes the
    next free one and :meth:`invalidate` moves the set's last block into the
    hole -- so ``_set_fill[s]`` alone tracks its free ways, and a free slot
    holds the values of an empty one.  Every fill and hit takes a fresh
    stamp from the cache's one-element ``_clock``, so the stamps of a set
    are unique and the first minimum of a full set is exactly its least
    recently used block.

    The state arrays (all but ``_clock``) belong to their cache: nothing
    may keep one past the cache's lifetime.  Once no other object refers
    to an array, the next cache of the same geometry reuses it (see
    :func:`repro.memory.pool.state_array`); an array still referenced
    anywhere is never handed out again.
    """

    def __init__(
        self,
        config: CacheConfig,
        eviction_listener: Optional[Callable[[EvictionInfo], None]] = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if self.num_sets <= 0 or self.associativity <= 0:
            raise ValueError(
                f"{self.name}: a cache needs at least one set and one way, "
                f"got {self.num_sets} x {self.associativity}"
            )
        self.latency = config.latency
        slots = self.num_sets * self.associativity
        self._tags = state_array("q", slots, -1)
        self._stamps = state_array("q", slots, 0)
        self._ready = state_array("q", slots, 0)
        self._flags = state_array("B", slots, 0)
        self._source = state_array("b", slots, -1)
        self._set_fill = state_array("q", self.num_sets, 0)
        self._clock = array("q", [0])
        self.stats = CacheStats()
        self._eviction_listener = eviction_listener

    # ------------------------------------------------------------------
    # Residency probes
    # ------------------------------------------------------------------
    def find(self, block_addr: int) -> int:
        """The slot holding ``block_addr``, or -1 (non-intrusive)."""
        set_idx = block_addr % self.num_sets
        base = set_idx * self.associativity
        try:
            return self._tags.index(block_addr, base, base + self._set_fill[set_idx])
        except ValueError:
            return -1

    def resident(self, block_addr: int) -> bool:
        """Non-intrusive residency probe (does not update replacement state).

        Used for prefetch targets and by the Hermes prediction-breakdown
        analysis (Figure 4) to find where a block lives without perturbing
        the simulation.
        """
        return self.find(block_addr) >= 0

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def lookup(
        self, block_addr: int, is_write: bool = False
    ) -> Optional[tuple[int, bool]]:
        """Perform a demand lookup.

        Returns None on a miss.  A hit returns the block's ready cycle and
        whether it was the first demand use of a prefetched block; that use
        marks the block useful and increments ``prefetch_hits``.
        """
        counts = self.stats.counts
        counts[_C.demand_accesses] += 1
        slot = self.find(block_addr)
        if slot < 0:
            counts[_C.demand_misses] += 1
            return None
        counts[_C.demand_hits] += 1
        flags = self._flags[slot]
        first_use = flags & (PREFETCHED | PREFETCH_USEFUL) == PREFETCHED
        if first_use:
            flags |= PREFETCH_USEFUL
            counts[_C.prefetch_hits] += 1
        if is_write:
            flags |= DIRTY
        self._flags[slot] = flags
        clock = self._clock
        clock[0] += 1
        self._stamps[slot] = clock[0]
        return self._ready[slot], first_use

    def fill(
        self,
        block_addr: int,
        cycle: int = 0,
        prefetched: bool = False,
        prefetch_source_level: Optional[int] = None,
        dirty: bool = False,
        ready_cycle: Optional[int] = None,
        pending: bool = False,
    ) -> Optional[EvictionInfo]:
        """Install a block, evicting a victim if the set is full.

        ``ready_cycle`` is when the data actually arrives (defaults to
        ``cycle``, i.e. immediately).  Returns information about the evicted
        block (or None if a way was free or the block was already resident).
        ``pending`` marks a newly installed block :data:`PREFETCH_PENDING`.
        """
        if ready_cycle is None:
            ready_cycle = cycle
        slot = self.find(block_addr)
        if slot >= 0:
            # Fill races with an earlier fill of the same block: keep the
            # stronger attribution (a demand fill overrides prefetched).
            if not prefetched:
                self._flags[slot] &= ~PREFETCHED
            if dirty:
                self._flags[slot] |= DIRTY
            if ready_cycle < self._ready[slot]:
                self._ready[slot] = ready_cycle
            return None

        eviction: Optional[EvictionInfo] = None
        set_idx = block_addr % self.num_sets
        ways = self.associativity
        base = set_idx * ways
        used = self._set_fill[set_idx]
        if used < ways:
            slot = base + used
            self._set_fill[set_idx] = used + 1
        else:
            stamps = self._stamps
            slot = stamps.index(min(stamps[base:base + ways]), base)
            eviction = self._evict(slot)

        self._tags[slot] = block_addr
        self._ready[slot] = ready_cycle
        self._flags[slot] = PREFETCHED * prefetched | DIRTY * dirty | PREFETCH_PENDING * pending
        self._source[slot] = -1 if prefetch_source_level is None else prefetch_source_level
        clock = self._clock
        clock[0] += 1
        self._stamps[slot] = clock[0]
        if prefetched:
            self.stats.counts[_C.prefetch_fills] += 1
        else:
            self.stats.counts[_C.demand_fills] += 1
        return eviction

    def invalidate(self, block_addr: int) -> bool:
        """Remove a block (used for coherence-like invalidations in tests)."""
        slot = self.find(block_addr)
        if slot < 0:
            return False
        self._evict(slot)
        # Keep the set's occupied ways a prefix: its last one fills the hole.
        set_idx = block_addr % self.num_sets
        used = self._set_fill[set_idx] - 1
        self._set_fill[set_idx] = used
        last = set_idx * self.associativity + used
        for column, empty in (
            (self._tags, -1), (self._stamps, 0), (self._ready, 0),
            (self._flags, 0), (self._source, -1),
        ):
            column[slot] = column[last]
            column[last] = empty
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evict(self, slot: int) -> EvictionInfo:
        """Account for the block in ``slot``; the caller reuses the slot."""
        flags = self._flags[slot]
        counts = self.stats.counts
        counts[_C.evictions] += 1
        if flags & DIRTY:
            counts[_C.writebacks] += 1
        if flags & PREFETCHED:
            if flags & PREFETCH_USEFUL:
                counts[_C.useful_prefetch_evictions] += 1
            else:
                counts[_C.useless_prefetch_evictions] += 1
        info = EvictionInfo(
            block_addr=self._tags[slot],
            was_prefetched=bool(flags & PREFETCHED),
            prefetch_was_useful=bool(flags & PREFETCH_USEFUL),
            was_dirty=bool(flags & DIRTY),
            pending_source=self._source[slot] if flags & PREFETCH_PENDING else -1,
        )
        if self._eviction_listener is not None:
            self._eviction_listener(info)
        return info

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents (post warm-up)."""
        self.stats.zero()

    def take_pending(self, block_addr: int) -> int:
        """Clear a block's :data:`PREFETCH_PENDING` bit; return the level its
        prefetch was served from, or -1 when it carried none."""
        slot = self.find(block_addr)
        if slot < 0 or not self._flags[slot] & PREFETCH_PENDING:
            return -1
        self._flags[slot] &= ~PREFETCH_PENDING
        return self._source[slot]

    def take_all_pending(self) -> list[int]:
        """Clear every :data:`PREFETCH_PENDING` bit; return how many slots
        carried it per level their prefetch was served from (L1D to DRAM).
        Vector operations over the flat arrays, not a loop over the slots."""
        flags = np.frombuffer(self._flags, dtype=np.uint8)
        pending = (flags & PREFETCH_PENDING) != 0
        flags &= 0xFF ^ PREFETCH_PENDING
        sources = np.frombuffer(self._source, dtype=np.int8)[pending]
        return np.bincount(sources, minlength=4).tolist()

    def occupancy(self) -> float:
        """Fraction of cache capacity currently valid."""
        return sum(self._set_fill) / (self.num_sets * self.associativity)

    def resident_slots(self) -> list[int]:
        """The occupied slots, set by set."""
        ways = self.associativity
        return [
            base + way
            for base, used in zip(range(0, len(self._tags), ways), self._set_fill)
            for way in range(used)
        ]

    def resident_blocks(self) -> list[int]:
        """Return all resident block addresses (for inspection and tests)."""
        return [self._tags[slot] for slot in self.resident_slots()]

    def unused_prefetched_blocks(self) -> int:
        """Count resident prefetched blocks never touched by a demand access."""
        return sum(
            1 for slot in self.resident_slots()
            if self._flags[slot] & (PREFETCHED | PREFETCH_USEFUL) == PREFETCHED
        )
