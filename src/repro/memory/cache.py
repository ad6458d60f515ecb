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

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.config import CacheConfig
from repro.memory.mshr import MSHR


@dataclass(slots=True)
class CacheBlock:
    """Metadata for one resident cache block.

    ``slot`` is the block's index into its cache's flat per-way arrays
    (``set_index * associativity + way``).  ``ready_cycle`` is the cycle at
    which the fill actually arrives; a demand access that hits the block
    earlier must wait for the remainder (this is how the model charges the
    latency of in-flight prefetches instead of making prefetched data
    magically available at issue time).
    """

    block_addr: int
    slot: int
    dirty: bool = False
    prefetched: bool = False
    prefetch_useful: bool = False
    prefetch_source_level: Optional[int] = None
    ready_cycle: int = 0


@dataclass
class CacheStats:
    """Counters exported by each cache level."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    demand_fills: int = 0
    evictions: int = 0
    useful_prefetch_evictions: int = 0
    useless_prefetch_evictions: int = 0
    prefetch_hits: int = 0
    writebacks: int = 0

    @property
    def demand_hit_rate(self) -> float:
        """Fraction of demand accesses that hit."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def demand_miss_rate(self) -> float:
        """Fraction of demand accesses that miss."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses


@dataclass
class EvictionInfo:
    """Describes a block that was evicted to make room for a fill."""

    block_addr: int
    was_prefetched: bool
    prefetch_was_useful: bool
    was_dirty: bool


class Cache:
    """A set-associative, write-back cache with LRU replacement.

    Addresses handled by the cache are *block addresses* (byte address
    shifted right by 6); callers are responsible for the conversion, which
    keeps the hot path cheap.

    Block ``b`` maps to set ``b % num_sets`` (the compiled kernel of
    :mod:`repro.sim.batch` inlines this and :meth:`fill`).  Replacement
    state is flat and per cache, not per set.  Way ``w`` of set ``s`` is
    slot ``s * associativity + w`` of ``_stamps`` (the slot's LRU access
    stamp) and of ``_way_blocks`` (the block it holds).  A set's occupied
    ways are always a prefix of its slots -- a fill takes the next free
    one and :meth:`invalidate` moves the set's last block into the hole --
    so ``_set_fill[s]`` alone tracks its free ways.  Every fill and hit
    takes a fresh stamp from the cache's one ``_clock``, so the stamps of a
    set are unique and the first minimum of a full set is exactly its least
    recently used block.
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
        self._blocks: dict[int, CacheBlock] = {}
        self._stamps: list[int] = [0] * slots
        self._way_blocks: list[Optional[CacheBlock]] = [None] * slots
        self._set_fill: list[int] = [0] * self.num_sets
        self._clock = 0
        self.mshr = MSHR(config.mshr_entries)
        self.stats = CacheStats()
        self._eviction_listener = eviction_listener

    # ------------------------------------------------------------------
    # Residency probes
    # ------------------------------------------------------------------
    def resident(self, block_addr: int) -> bool:
        """Non-intrusive residency probe (does not update replacement state).

        Used by the Hermes prediction-breakdown analysis (Figure 4) to find
        where a block lives without perturbing the simulation.
        """
        return block_addr in self._blocks

    def get_block(self, block_addr: int) -> Optional[CacheBlock]:
        """Return the resident block metadata, if present (non-intrusive)."""
        return self._blocks.get(block_addr)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def lookup(self, block_addr: int, is_write: bool = False) -> bool:
        """Perform a demand lookup.

        Returns True on hit.  On a hit to a not-yet-used prefetched block the
        block is marked useful and the ``prefetch_hits`` counter incremented.
        """
        stats = self.stats
        stats.demand_accesses += 1
        block = self._blocks.get(block_addr)
        if block is None:
            stats.demand_misses += 1
            return False
        stats.demand_hits += 1
        if block.prefetched and not block.prefetch_useful:
            block.prefetch_useful = True
            stats.prefetch_hits += 1
        if is_write:
            block.dirty = True
        self._clock += 1
        self._stamps[block.slot] = self._clock
        return True

    def probe_prefetch(self, block_addr: int) -> bool:
        """Check whether a prefetch target is already resident.

        Unlike :meth:`lookup`, this does not count as a demand access and
        does not update replacement state.
        """
        return block_addr in self._blocks

    def fill(
        self,
        block_addr: int,
        cycle: int = 0,
        prefetched: bool = False,
        prefetch_source_level: Optional[int] = None,
        dirty: bool = False,
        ready_cycle: Optional[int] = None,
    ) -> Optional[EvictionInfo]:
        """Install a block, evicting a victim if the set is full.

        ``ready_cycle`` is when the data actually arrives (defaults to
        ``cycle``, i.e. immediately).  Returns information about the evicted
        block (or None if a way was free or the block was already resident).
        """
        if ready_cycle is None:
            ready_cycle = cycle
        existing = self._blocks.get(block_addr)
        if existing is not None:
            # Fill races with an earlier fill of the same block: keep the
            # stronger attribution (a demand fill overrides prefetched).
            if not prefetched:
                existing.prefetched = False
            if dirty:
                existing.dirty = True
            if ready_cycle < existing.ready_cycle:
                existing.ready_cycle = ready_cycle
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
            eviction = self._evict(self._way_blocks[slot])

        block = CacheBlock(
            block_addr=block_addr,
            slot=slot,
            prefetched=prefetched,
            prefetch_source_level=prefetch_source_level,
            dirty=dirty,
            ready_cycle=ready_cycle,
        )
        self._blocks[block_addr] = block
        self._way_blocks[slot] = block
        self._clock += 1
        self._stamps[slot] = self._clock
        if prefetched:
            self.stats.prefetch_fills += 1
        else:
            self.stats.demand_fills += 1
        return eviction

    def invalidate(self, block_addr: int) -> bool:
        """Remove a block (used for coherence-like invalidations in tests)."""
        block = self._blocks.get(block_addr)
        if block is None:
            return False
        self._evict(block)
        # Keep the set's occupied ways a prefix: its last one fills the hole.
        set_idx = block_addr % self.num_sets
        used = self._set_fill[set_idx] - 1
        self._set_fill[set_idx] = used
        last = set_idx * self.associativity + used
        if block.slot != last:
            moved = self._way_blocks[last]
            moved.slot = block.slot
            self._way_blocks[block.slot] = moved
            self._stamps[block.slot] = self._stamps[last]
        self._way_blocks[last] = None
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evict(self, block: CacheBlock) -> EvictionInfo:
        """Drop ``block`` and account for it; the caller reuses its slot."""
        del self._blocks[block.block_addr]
        self.stats.evictions += 1
        if block.dirty:
            self.stats.writebacks += 1
        if block.prefetched:
            if block.prefetch_useful:
                self.stats.useful_prefetch_evictions += 1
            else:
                self.stats.useless_prefetch_evictions += 1
        info = EvictionInfo(
            block_addr=block.block_addr,
            was_prefetched=block.prefetched,
            prefetch_was_useful=block.prefetch_useful,
            was_dirty=block.dirty,
        )
        if self._eviction_listener is not None:
            self._eviction_listener(info)
        return info

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents (post warm-up)."""
        self.stats = CacheStats()

    def occupancy(self) -> float:
        """Fraction of cache capacity currently valid."""
        return len(self._blocks) / (self.num_sets * self.associativity)

    def resident_blocks(self) -> list[int]:
        """Return all resident block addresses (for inspection and tests)."""
        return list(self._blocks)

    def unused_prefetched_blocks(self) -> int:
        """Count resident prefetched blocks never touched by a demand access."""
        return sum(
            1 for block in self._blocks.values()
            if block.prefetched and not block.prefetch_useful
        )
