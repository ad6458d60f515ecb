"""Tests for the Table III system configuration dataclasses."""

import pytest

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)


class TestCacheConfig:
    def test_l1d_sets(self):
        config = CacheConfig("L1D", 32 * 1024, 8, 4, 10)
        assert config.num_sets == 64

    def test_llc_sets(self):
        config = CacheConfig("LLC", 1408 * 1024, 11, 36, 64)
        assert config.num_sets == 2048

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 3, 1, 1)


class TestDRAMConfig:
    def test_cycles_per_transaction_single_core(self):
        dram = DRAMConfig(bandwidth_gbps=12.8, core_frequency_ghz=3.8)
        assert dram.cycles_per_transaction == pytest.approx(19.0, rel=0.01)

    def test_cycles_per_transaction_scales_with_bandwidth(self):
        slow = DRAMConfig(bandwidth_gbps=3.2)
        fast = DRAMConfig(bandwidth_gbps=25.6)
        assert slow.cycles_per_transaction == pytest.approx(
            8 * fast.cycles_per_transaction, rel=0.01
        )


class TestSystemConfig:
    def test_table_iii_defaults(self):
        system = cascade_lake_single_core()
        assert system.core.width == 4
        assert system.core.rob_size == 224
        assert system.l1d.size_bytes == 32 * 1024
        assert system.l2c.size_bytes == 1024 * 1024
        assert system.llc.size_bytes == 1408 * 1024
        assert system.core.offchip_predictor_latency == 6

    def test_multi_core_llc_scales_per_core(self):
        system = cascade_lake_multi_core(4)
        assert system.scaled_llc().size_bytes == 4 * 1408 * 1024

    def test_multi_core_bandwidth_is_per_core(self):
        system = cascade_lake_multi_core(4)
        assert system.dram.bandwidth_gbps == 3.2 * 4

    def test_with_dram_bandwidth(self):
        system = cascade_lake_multi_core(4).with_dram_bandwidth(1.6)
        assert system.dram.bandwidth_gbps == pytest.approx(6.4)
        # The original configuration is unchanged (frozen dataclass).
        assert cascade_lake_multi_core(4).dram.bandwidth_gbps == pytest.approx(12.8)


class TestCoreConfig:
    def test_defaults_match_paper(self):
        core = CoreConfig()
        assert core.width == 4
        assert core.rob_size == 224
        assert core.frequency_ghz == pytest.approx(3.8)
