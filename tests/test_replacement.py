"""Tests for LRU replacement, driven through the cache model."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import Cache


def one_set(ways: int) -> Cache:
    return Cache(CacheConfig("T", ways * 64, ways, 1, 4))


def filled_set(ways: int) -> Cache:
    """A single full set holding blocks 0..ways-1, filled in that order."""
    cache = one_set(ways)
    for addr in range(ways):
        cache.fill(addr)
    return cache


class TestLRU:
    def test_victim_is_least_recently_used(self):
        cache = filled_set(4)
        cache.lookup(0)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.fill(4).block_addr == 3

    def test_fill_makes_way_most_recent(self):
        cache = filled_set(2)
        assert cache.fill(2).block_addr == 0

    def test_hit_refreshes_recency(self):
        cache = filled_set(3)
        cache.lookup(0)
        assert cache.fill(3).block_addr == 1

    def test_invalid_associativity(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig("T", 128, -2, 1, 4))
        with pytest.raises(ValueError):
            Cache(CacheConfig("T", 0, 2, 1, 4))


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=7), max_size=100),
)
def test_lru_victim_always_valid_way(associativity, hits):
    cache = filled_set(associativity)
    for hit in hits:
        cache.lookup(hit % associativity)
    eviction = cache.fill(associativity)
    assert 0 <= eviction.block_addr < associativity
    assert cache.resident(associativity)
    assert len(cache.resident_blocks()) == associativity


@given(st.integers(min_value=2, max_value=8), st.data())
def test_lru_recently_touched_way_is_never_victim(associativity, data):
    cache = filled_set(associativity)
    touched = data.draw(st.integers(min_value=0, max_value=associativity - 1))
    cache.lookup(touched)
    assert cache.fill(associativity).block_addr != touched
