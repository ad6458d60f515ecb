"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.result_cache import ResultCache
from repro.traces.store import TraceStore


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache and trace store at per-session
    temp directories.

    Keeps the test suite hermetic: runs never read results or traces
    persisted by a previous run (which would mask simulator/generator
    changes) and never leave ``.repro_cache`` / ``.repro_traces``
    directories in the repository.
    """
    import os

    previous = {}
    for env_var, label in ((ResultCache.DIR_ENV, "repro_result_cache"),
                           (TraceStore.DIR_ENV, "repro_trace_store")):
        previous[env_var] = os.environ.get(env_var)
        os.environ[env_var] = str(tmp_path_factory.mktemp(label))
    yield
    for env_var, value in previous.items():
        if value is None:
            os.environ.pop(env_var, None)
        else:
            os.environ[env_var] = value

from repro.common.config import cascade_lake_single_core
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    pointer_chase_trace,
    random_access_trace,
    streaming_trace,
)
from repro.workloads.gap import gap_trace


@pytest.fixture(scope="session")
def system_config():
    """The Table III single-core configuration."""
    return cascade_lake_single_core()


@pytest.fixture(scope="session")
def small_random_trace():
    """A small random-access trace with a working set larger than the LLC."""
    config = SyntheticTraceConfig(
        num_memory_accesses=3_000,
        working_set_bytes=4 * 1024 * 1024,
        compute_per_access=2,
        seed=7,
    )
    return random_access_trace(config, name="test_random")


@pytest.fixture(scope="session")
def small_stream_trace():
    """A small streaming trace (prefetch friendly)."""
    config = SyntheticTraceConfig(
        num_memory_accesses=3_000,
        working_set_bytes=2 * 1024 * 1024,
        compute_per_access=2,
        seed=9,
    )
    return streaming_trace(config, name="test_stream")


@pytest.fixture(scope="session")
def small_chase_trace():
    """A small pointer-chase trace (off-chip heavy)."""
    config = SyntheticTraceConfig(
        num_memory_accesses=3_000,
        working_set_bytes=8 * 1024 * 1024,
        compute_per_access=3,
        seed=11,
    )
    return pointer_chase_trace(config, name="test_chase")


@pytest.fixture(scope="session")
def small_gap_trace():
    """A small BFS trace over a tiny uniform random graph."""
    return gap_trace(
        "bfs", graph="urand", scale="tiny", max_memory_accesses=3_000, seed=3
    )
