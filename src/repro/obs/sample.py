"""Opt-in per-N-accesses simulator interval snapshots.

Enabled by ``REPRO_SIM_SAMPLE=<N>`` (or ``--sample-interval N`` on the
CLI, which sets the variable) *and* an active telemetry sink: samples
are emitted as ``sim_sample`` tracer events, never stored in results or
cache entries, so metric bit-identity and ``CACHE_SCHEMA_VERSION`` are
untouched.  Both the scalar and batch cores call a :func:`hook` right
after every N-th load/store of the measured phase, so both sample the same
states; the counters it reads are the model's own arrays, current at every
access on either core.  The samples form a time series of IPC, per-level
MPKI and off-chip prediction accuracy/coverage that exposes predictor
warm-up inside a point.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs import tracer

#: Environment variable: sample every N demand memory accesses.
SAMPLE_ENV = "REPRO_SIM_SAMPLE"


def sample_interval() -> Optional[int]:
    """The active interval in accesses, or None when sampling is off.

    Sampling requires the tracer to be recording: without a sink the
    snapshots would go nowhere, so the sim cores skip the restructured
    sampling path entirely and run their usual whole-trace loops.
    """
    if not tracer.enabled():
        return None
    raw = os.environ.get(SAMPLE_ENV)
    if not raw:
        return None
    try:
        interval = int(raw)
    except ValueError:
        return None
    return interval if interval > 0 else None


def hook(trace_name: str, scenario: str, core: str, hierarchy, **context):
    """One core's ``sample_hook(accesses, instructions, cycles)``.

    Each call records one ``sim_sample`` event from cumulative simulator
    state.  ``hierarchy`` is a ``repro.memory.hierarchy.MemoryHierarchy``;
    all stats read from it are the same cumulative counters the end-of-run
    result collection uses, so the final sample matches the reported
    metrics.  ``context`` adds attributes as given (a mix's ``mix`` and
    ``core_id``).
    """
    from repro.common.types import MemLevel
    from repro.stats.metrics import mpki

    def emit(accesses: int, instructions: int, cycles: float) -> None:
        stats = hierarchy.stats
        attrs = {
            "trace": trace_name,
            "scenario": scenario,
            "core": core,
            "accesses": accesses,
            "instructions": instructions,
            "cycles": cycles,
            "ipc": (instructions / cycles) if cycles else 0.0,
            "l1d_mpki": mpki(hierarchy.l1d.stats.demand_misses, instructions),
            "l2c_mpki": mpki(hierarchy.l2c.stats.demand_misses, instructions),
            # This core's LLC demand misses: each one is served by DRAM.  A
            # mix's LLC is shared, so its own miss count spans every core.
            "llc_mpki": mpki(stats.served_by[MemLevel.DRAM], instructions),
            "offchip_predictions": getattr(stats, "offchip_predictions", 0),
            "speculative_requests": getattr(stats, "speculative_requests", 0),
            **context,
        }
        perceptron = getattr(
            getattr(hierarchy, "offchip_predictor", None), "perceptron", None
        )
        if perceptron is not None:
            pstats = perceptron.stats
            attrs["predictor_accuracy"] = pstats.accuracy
            attrs["predictor_predictions"] = pstats.predictions
            attrs["predictor_training_events"] = pstats.training_events
        tracer.event("sim_sample", **attrs)

    return emit
