"""Simulation drivers: scenario builders, single-core and multi-core runs,
their conservation checks, and the parallel campaign engine with its
persistent result cache."""

from repro.sim.engine import (
    CampaignEngine,
    CampaignPoint,
    build_workload_trace,
    execute_point,
    multi_core_point,
    single_core_point,
)
from repro.sim.multi_core import MultiCoreResult, run_multicore_mix
from repro.sim.result_cache import ResultCache, default_cache_dir
from repro.sim.results import SingleCoreResult, check_invariants
from repro.sim.scenarios import (
    SCHEMES,
    Scenario,
    build_hierarchy,
    build_scenario,
)
from repro.sim.single_core import run_single_core

__all__ = [
    "CampaignEngine",
    "CampaignPoint",
    "MultiCoreResult",
    "ResultCache",
    "SCHEMES",
    "Scenario",
    "SingleCoreResult",
    "build_hierarchy",
    "build_scenario",
    "build_workload_trace",
    "check_invariants",
    "default_cache_dir",
    "execute_point",
    "multi_core_point",
    "run_multicore_mix",
    "run_single_core",
    "single_core_point",
]
