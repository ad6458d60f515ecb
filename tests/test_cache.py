"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import DIRTY, PREFETCH_USEFUL, PREFETCHED, Cache


def tiny_cache(sets: int = 4, ways: int = 2) -> Cache:
    config = CacheConfig("T", sets * ways * 64, ways, 1, 4)
    return Cache(config)


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(0x100) is None
        cache.fill(0x100)
        assert cache.lookup(0x100) is not None
        assert cache.stats.demand_hits == 1
        assert cache.stats.demand_misses == 1

    def test_resident_probe_does_not_count_access(self):
        cache = tiny_cache()
        cache.fill(0x5)
        assert cache.resident(0x5)
        assert cache.stats.demand_accesses == 0

    def test_eviction_on_conflict(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        eviction = cache.fill(2)
        assert eviction is not None
        assert cache.stats.evictions == 1
        assert not cache.resident(eviction.block_addr)

    def test_lru_eviction_order(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)  # make 0 most recently used
        eviction = cache.fill(2)
        assert eviction.block_addr == 1

    def test_refill_existing_block_no_eviction(self):
        cache = tiny_cache()
        cache.fill(0x10)
        assert cache.fill(0x10) is None


class TestPrefetchTracking:
    def test_prefetch_fill_counts(self):
        cache = tiny_cache()
        cache.fill(0x20, prefetched=True)
        assert cache.stats.prefetch_fills == 1
        assert cache.unused_prefetched_blocks() == 1

    def test_demand_hit_marks_prefetch_useful(self):
        cache = tiny_cache()
        cache.fill(0x20, prefetched=True, ready_cycle=50)
        assert cache.lookup(0x20) == (50, True)
        assert cache.stats.prefetch_hits == 1
        assert cache.unused_prefetched_blocks() == 0
        assert cache.lookup(0x20) == (50, False)  # only the first use counts
        assert cache.stats.prefetch_hits == 1

    def test_useless_prefetch_eviction_counted(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1, prefetched=True)
        cache.fill(0x2)
        assert cache.stats.useless_prefetch_evictions == 1

    def test_useful_prefetch_eviction_counted(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1, prefetched=True)
        cache.lookup(0x1)
        cache.fill(0x2)
        assert cache.stats.useful_prefetch_evictions == 1

    def test_eviction_listener_invoked(self):
        seen = []
        config = CacheConfig("T", 64, 1, 1, 4)
        cache = Cache(config, eviction_listener=seen.append)
        cache.fill(0x1, prefetched=True)
        cache.fill(0x2)
        assert len(seen) == 1
        assert seen[0].was_prefetched


class TestDirtyAndInvalidate:
    def test_write_sets_dirty_and_writeback_on_eviction(self):
        cache = tiny_cache(sets=1, ways=1)
        cache.fill(0x1)
        cache.lookup(0x1, is_write=True)
        cache.fill(0x2)
        assert cache.stats.writebacks == 1

    def test_invalidate(self):
        cache = tiny_cache()
        cache.fill(0x9)
        assert cache.invalidate(0x9) is True
        assert not cache.resident(0x9)
        assert cache.invalidate(0x9) is False


class TestReadyCycle:
    def test_ready_cycle_recorded(self):
        cache = tiny_cache()
        cache.fill(0x30, cycle=10, ready_cycle=200)
        assert cache._ready[cache.find(0x30)] == 200

    def test_second_fill_keeps_earliest_ready(self):
        cache = tiny_cache()
        cache.fill(0x30, cycle=10, ready_cycle=200)
        cache.fill(0x30, cycle=20, ready_cycle=100)
        assert cache._ready[cache.find(0x30)] == 100
        assert cache.lookup(0x30) == (100, False)


class TestStatsAndOccupancy:
    def test_occupancy_fraction(self):
        cache = tiny_cache(sets=2, ways=2)
        cache.fill(0)
        cache.fill(1)
        assert cache.occupancy() == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = tiny_cache()
        cache.fill(0x7)
        cache.lookup(0x7)
        cache.reset_stats()
        assert cache.stats.demand_accesses == 0
        assert cache.resident(0x7)

    def test_hit_rate(self):
        cache = tiny_cache()
        cache.fill(0x1)
        cache.lookup(0x1)
        cache.lookup(0x2)
        assert cache.stats.demand_hit_rate == pytest.approx(0.5)


#: Every array of a cache's state, per slot and per cache.
SLOT_ARRAYS = ("_tags", "_stamps", "_ready", "_flags", "_source")
STATE_ARRAYS = SLOT_ARRAYS + ("_set_fill", "_clock")

#: The values a free slot holds, by array.
FREE_SLOT = {"_tags": -1, "_stamps": 0, "_ready": 0, "_flags": 0, "_source": -1}


def way_contents(cache: Cache, set_idx: int) -> list:
    """Block address held by each way of a set (None for a free way)."""
    base = set_idx * cache.associativity
    used = cache._set_fill[set_idx]
    return [
        cache._tags[base + way] if way < used else None
        for way in range(cache.associativity)
    ]


def check_flat_layout(cache: Cache) -> None:
    """The flat per-cache state is consistent, set by set and slot by slot."""
    ways = cache.associativity
    slots = cache.num_sets * ways
    for name in SLOT_ARRAYS:
        assert len(getattr(cache, name)) == slots, name
    assert len(cache._set_fill) == cache.num_sets
    assert len(cache._clock) == 1
    for set_idx in range(cache.num_sets):
        base = set_idx * ways
        used = cache._set_fill[set_idx]
        assert 0 <= used <= ways
        tags = list(cache._tags[base:base + used])
        # Each occupied way holds a distinct block of this set.
        assert len(set(tags)) == used
        assert all(tag % cache.num_sets == set_idx for tag in tags)
        for slot in range(base, base + used):
            assert cache.find(cache._tags[slot]) == slot
            # Stamps come from the clock; flags use their three bits only.
            assert 0 < cache._stamps[slot] <= cache._clock[0]
            flags = cache._flags[slot]
            assert flags & ~(DIRTY | PREFETCHED | PREFETCH_USEFUL) == 0
            assert -1 <= cache._source[slot] <= 3
            assert cache._ready[slot] >= 0
        stamps = cache._stamps[base:base + used]
        assert len(set(stamps)) == used  # unique within the set
        # Occupied ways are a prefix of the set; the rest are free.
        for slot in range(base + used, base + ways):
            for name, empty in FREE_SLOT.items():
                assert getattr(cache, name)[slot] == empty, (name, slot)


class TestVictimResolution:
    """The victim is the minimum stamp of the full set, resolved through
    the flat way-contents list to exactly the block LRU selects."""

    def test_eviction_removes_policy_victim(self):
        cache = tiny_cache(sets=1, ways=4)
        for addr in range(4):
            cache.fill(addr)
        cache.lookup(0)
        victim_slot = cache._stamps.index(min(cache._stamps))
        victim_addr = cache._tags[victim_slot]
        eviction = cache.fill(4)
        assert eviction.block_addr == victim_addr == 1
        assert cache.find(4) == victim_slot

    def test_addr_in_way_tracks_fills_and_evictions(self):
        cache = tiny_cache(sets=1, ways=2)
        cache.fill(10)
        cache.fill(20)
        assert set(way_contents(cache, 0)) == {10, 20}
        cache.invalidate(10)
        remaining = way_contents(cache, 0)
        assert remaining.count(None) == 1
        assert 20 in remaining
        check_flat_layout(cache)

    def test_lru_sequence_eviction_order(self):
        cache = tiny_cache(sets=1, ways=3)
        cache.fill(1)
        cache.fill(2)
        cache.fill(3)
        cache.lookup(1)          # order (LRU -> MRU): 2, 3, 1
        assert cache.fill(4).block_addr == 2
        cache.lookup(3)          # order: 1, 4, 3
        assert cache.fill(5).block_addr == 1

    def test_invalidate_keeps_recency_of_moved_block(self):
        cache = tiny_cache(sets=1, ways=3)
        for addr in (1, 2, 3):
            cache.fill(addr)
        cache.invalidate(1)      # 3 moves from the last way into the hole
        check_flat_layout(cache)
        cache.fill(4)            # free way: no eviction; order: 2, 3, 4
        assert cache.fill(5).block_addr == 2
        assert cache.fill(6).block_addr == 3


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200),
)
def test_reverse_map_matches_set_contents(ways, block_stream):
    cache = tiny_cache(sets=2, ways=ways)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
        check_flat_layout(cache)


class ReferenceLRU:
    """Plain LRU model: one list of block addresses per set, LRU -> MRU."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways

    def _set(self, addr: int) -> list:
        return self.sets[addr % len(self.sets)]

    def lookup(self, addr: int) -> bool:
        blocks = self._set(addr)
        if addr not in blocks:
            return False
        blocks.remove(addr)
        blocks.append(addr)
        return True

    def fill(self, addr: int):
        """Install ``addr``; a refill leaves recency alone.  Returns the
        evicted address, if any."""
        blocks = self._set(addr)
        if addr in blocks:
            return None
        victim = blocks.pop(0) if len(blocks) == self.ways else None
        blocks.append(addr)
        return victim

    def invalidate(self, addr: int) -> bool:
        blocks = self._set(addr)
        if addr not in blocks:
            return False
        blocks.remove(addr)
        return True


OPS = ("read", "write", "demand_fill", "prefetch_fill", "invalidate")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_matches_reference_lru(sets, ways, data):
    """Differential check against the reference model on every step, plus
    conservation of the demand counters and of resident blocks."""
    # Twice the capacity in distinct blocks keeps every set under pressure.
    address = st.integers(min_value=0, max_value=2 * sets * ways - 1)
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(OPS), address), min_size=50, max_size=400
    ))
    cache = tiny_cache(sets=sets, ways=ways)
    reference = ReferenceLRU(sets, ways)
    evicted = invalidated = 0
    for op, addr in ops:
        if op in ("read", "write"):
            assert (cache.lookup(addr, is_write=op == "write") is not None) == (
                reference.lookup(addr)
            )
        elif op == "invalidate":
            removed = cache.invalidate(addr)
            assert removed == reference.invalidate(addr)
            invalidated += removed
        else:
            eviction = cache.fill(addr, prefetched=op == "prefetch_fill")
            victim = reference.fill(addr)
            assert (eviction.block_addr if eviction else None) == victim
            evicted += eviction is not None
        stats = cache.stats
        assert stats.demand_hits + stats.demand_misses == stats.demand_accesses
        fills = stats.demand_fills + stats.prefetch_fills
        assert fills - evicted - invalidated == len(cache.resident_blocks())
        assert stats.evictions == evicted + invalidated
    assert sorted(cache.resident_blocks()) == sorted(
        addr for blocks in reference.sets for addr in blocks
    )
    check_flat_layout(cache)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_slot_metadata_matches_reference(sets, ways, data):
    """Flags, ready cycle and source level follow their block slot by slot
    through hits, refills, evictions and invalidations."""
    address = st.integers(min_value=0, max_value=2 * sets * ways - 1)
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(OPS), address,
            st.integers(min_value=0, max_value=500), st.sampled_from((0, 1, 2, 3)),
        ),
        min_size=20, max_size=200,
    ))
    cache = tiny_cache(sets=sets, ways=ways)
    reference = ReferenceLRU(sets, ways)
    meta = {}  # block -> [flags, ready cycle, source level]
    for op, addr, ready, source in ops:
        if op in ("read", "write"):
            hit = cache.lookup(addr, is_write=op == "write")
            assert (hit is not None) == reference.lookup(addr)
            if hit is not None:
                first_use = meta[addr][0] & (PREFETCHED | PREFETCH_USEFUL) == PREFETCHED
                assert hit == (meta[addr][1], first_use)
                meta[addr][0] |= (PREFETCH_USEFUL if first_use else 0) | (
                    DIRTY if op == "write" else 0
                )
        elif op == "invalidate":
            if reference.invalidate(addr):
                del meta[addr]
            cache.invalidate(addr)
        else:
            prefetched = op == "prefetch_fill"
            level = source if prefetched else None
            cache.fill(addr, prefetched=prefetched, prefetch_source_level=level,
                       ready_cycle=ready)
            victim = reference.fill(addr)
            meta.pop(victim, None)
            if addr in meta:
                if not prefetched:
                    meta[addr][0] &= ~PREFETCHED
                meta[addr][1] = min(meta[addr][1], ready)
            else:
                meta[addr] = [PREFETCHED if prefetched else 0, ready,
                              -1 if level is None else level]
        assert {
            tag: [cache._flags[slot], cache._ready[slot], cache._source[slot]]
            for slot in cache.resident_slots()
            for tag in (cache._tags[slot],)
        } == meta
        check_flat_layout(cache)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_cache_never_exceeds_capacity(block_stream):
    cache = tiny_cache(sets=2, ways=2)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
    assert len(cache.resident_blocks()) <= 4
    assert cache.stats.demand_accesses == len(block_stream)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_immediate_rereference_always_hits(block_stream):
    cache = tiny_cache(sets=4, ways=2)
    for block in block_stream:
        if not cache.lookup(block):
            cache.fill(block)
        assert cache.lookup(block) is not None
