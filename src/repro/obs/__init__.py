"""repro.obs: the end-to-end telemetry layer.

Everything under this package is *off by default* and bit-neutral: with
telemetry disabled the tracer's ``span``/``event`` calls are single-branch
no-ops, and no simulation metric changes either way
(``CACHE_SCHEMA_VERSION`` is untouched -- spans, events and interval
samples ride in side-channel JSONL sinks, never in cached results).

Layout:

``tracer``
    Process-local structured spans and events appended to a per-process
    JSONL sink; enabled by ``--telemetry`` / ``REPRO_TELEMETRY=<dir>``.
    These records are the only telemetry channel: counts and durations
    are folded from them when a run is read.
``timeline``
    Merged run JSONL -> Chrome trace-event JSON (Perfetto/chrome://tracing).
``analyze``
    Worker utilization, straggler percentiles, cache hits/misses/puts and
    per-span-name count/sum/max for ``repro obs report``.
``profile``
    Optional cProfile accumulation around per-point execution
    (``--profile cprofile``) with merged top-N hotspot tables.
``sample``
    Opt-in per-N-accesses simulator interval snapshots
    (``REPRO_SIM_SAMPLE=<N>``), emitted as telemetry events.
``progress``
    The throttled live ``--progress`` line of ``repro figure/sweep``.
``logs``
    ``repro.*`` named-logger setup behind ``--log-level`` / ``REPRO_LOG``.
"""
