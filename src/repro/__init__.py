"""repro: reproduction of the TLP predictor (HPCA 2024).

A trace-driven simulation library reproducing "A Two Level Neural Approach
Combining Off-Chip Prediction with Adaptive Prefetch Filtering" (Jamet et
al., HPCA 2024): the TLP predictor (FLP + SLP), the Hermes and PPF baselines,
the IPCP/Berti/SPP prefetchers, the ChampSim-like memory hierarchy substrate
and the workload generators and experiment harnesses needed to regenerate
every figure of the paper's evaluation.

Quickstart::

    from repro import build_scenario, run_single_core
    from repro.workloads import gap_trace

    trace = gap_trace("bfs", graph="kron", max_memory_accesses=20_000)
    baseline = run_single_core(trace, build_scenario("baseline"))
    tlp = run_single_core(trace, build_scenario("tlp"))
    print(baseline.ipc, tlp.ipc, tlp.dram_transactions / baseline.dram_transactions)
"""

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    SystemConfig,
    cascade_lake_multi_core,
    cascade_lake_single_core,
)
from repro.core.flp import FirstLevelPerceptron
from repro.core.slp import SecondLevelPerceptron
from repro.core.storage import tlp_storage_breakdown
from repro.core.tlp import TLPConfig, TwoLevelPerceptron
from repro.memory.hierarchy import MemoryHierarchy, SharedMemory
from repro.predictors.hermes import HermesPredictor
from repro.sim.multi_core import MultiCoreResult, run_multicore_mix
from repro.sim.results import SingleCoreResult
from repro.sim.scenarios import SCHEMES, Scenario, build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.trace import Trace

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "DRAMConfig",
    "SystemConfig",
    "cascade_lake_multi_core",
    "cascade_lake_single_core",
    "FirstLevelPerceptron",
    "SecondLevelPerceptron",
    "tlp_storage_breakdown",
    "TLPConfig",
    "TwoLevelPerceptron",
    "MemoryHierarchy",
    "SharedMemory",
    "HermesPredictor",
    "MultiCoreResult",
    "run_multicore_mix",
    "SingleCoreResult",
    "SCHEMES",
    "Scenario",
    "build_hierarchy",
    "build_scenario",
    "run_single_core",
    "Trace",
    "__version__",
]
