"""Memory hierarchy substrate: caches, DRAM and the composed hierarchy."""

from repro.memory.cache import Cache, CacheStats
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import PageTable

__all__ = [
    "Cache",
    "CacheStats",
    "DRAMModel",
    "MemoryHierarchy",
    "PageTable",
]
