"""Counters in one flat int64 array: named slots, keyed groups, zeroing."""

from array import array

from repro.common.config import cascade_lake_single_core
from repro.common.counters import Counters, KeyedCounts
from repro.common.types import MemLevel
from repro.memory.hierarchy import HierarchyStats, MemoryHierarchy


class Example(Counters, fields=("hits", ("by_level", tuple(MemLevel)), "misses")):
    pass


class TestCounters:
    def test_layout(self):
        assert Example.FIELDS == (
            "hits", "by_level.L1D", "by_level.L2C", "by_level.LLC",
            "by_level.DRAM", "misses",
        )
        assert vars(Example.SLOT) == {"hits": 0, "by_level": 1, "misses": 5}
        counts = Example().counts
        assert type(counts) is array and counts.typecode == "q" and len(counts) == 6

    def test_names_read_and_write_the_array(self):
        example = Example()
        example.hits += 2
        example.by_level[MemLevel.LLC] += 3
        example.counts[Example.SLOT.misses] = 7
        assert example.counts.tolist() == [2, 0, 0, 3, 0, 7]
        assert example.misses == 7 and type(example.hits) is int
        assert isinstance(example.by_level, KeyedCounts)
        assert dict(example.by_level) == {
            MemLevel.L1D: 0, MemLevel.L2C: 0, MemLevel.LLC: 3, MemLevel.DRAM: 0,
        }
        assert example.as_dict() == {
            "hits": 2, "by_level": dict(example.by_level), "misses": 7,
        }

    def test_zero_keeps_the_array(self):
        example = Example()
        counts = example.counts
        example.by_level[MemLevel.DRAM] = 9
        example.zero()
        assert example.counts is counts and not any(counts)

    def test_instances_do_not_share_counts(self):
        one, two = Example(), Example()
        one.hits += 1
        assert two.hits == 0

    def test_reset_stats_zeroes_in_place(self):
        hierarchy = MemoryHierarchy(cascade_lake_single_core())
        stats = hierarchy.stats
        hierarchy.demand_access(0x400, 0x1000, cycle=0)
        assert stats.demand_loads == 1 and stats.served_by[MemLevel.DRAM] == 1
        hierarchy.reset_stats()
        assert hierarchy.stats is stats and not any(stats.counts)
        assert isinstance(stats, HierarchyStats)
