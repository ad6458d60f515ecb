"""Per-layer measurement: a traced replay of a workload and an ablation ladder.

The traced replay runs a workload's compiled points through the public
layer functions (``SweepSpec.compile``, ``build_workload_trace``,
``build_hierarchy``, ``run_single_core(hierarchy=)``, ``run_multicore_mix``
and the reduce) and records a span around each call.  Spans are kept in
memory and written out once, at the end of the benchmark.  Nothing inside
the program is instrumented.

The ablation ladder adds one component at a time to a stock
``MemoryHierarchy`` and reports the marginal host time per simulated access
of each component.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from repro import api
from repro.common.config import system_config_from_dict
from repro.core.tlp import TwoLevelPerceptron
from repro.memory.hierarchy import SharedMemory
from repro.predictors.hermes import HermesPredictor
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.ppf import PerceptronPrefetchFilter
from repro.sim.batch import batch_unsupported_reason
from repro.sim.engine import build_workload_trace
from repro.sim.scenarios import build_hierarchy

from perfbench.workloads import CORE, Workload, generate_trace


class SpanRecorder:
    """In-memory spans: name, start, end, parent index and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        return _Span(self, name, attrs)

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + duration(span)
        return totals

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += duration(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = duration(span) - child_time[index]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


class _Span:
    def __init__(self, recorder: SpanRecorder, name: str, attrs: dict) -> None:
        self.recorder = recorder
        self.record = {
            "name": name,
            "parent": recorder._stack[-1] if recorder._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }

    def __enter__(self):
        self.index = len(self.recorder.spans)
        self.recorder.spans.append(self.record)
        self.recorder._stack.append(self.index)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


#: Spans that time a call into a layer of the program.
LAYER_SPANS = (
    "experiments.compile",
    "traces.load",
    "memory.build",
    "sim.single",
    "sim.multi",
    "experiments.reduce",
)


def _system(point) -> api.SystemConfig:
    return replace(system_config_from_dict(json.loads(point.system_json)), sim_core=CORE)


def traced_run(workload: Workload, store_dir: Path, recorder: SpanRecorder) -> dict:
    """Replay ``workload`` through its layers; return ``{label: result}``."""
    store = api.TraceStore(store_dir)
    config = workload.config
    results = {}
    traces: dict[tuple[str, int, str], api.Trace] = {}
    with recorder.span("bench.run", workload=workload.name):
        with recorder.span("experiments.compile"):
            points = workload.sweep(config).compile(config, trace_store=store)
        for point in points:
            with recorder.span("bench.point", point=point.label, kind=point.kind):
                mix = []
                for name in point.workloads:
                    key = (name, point.memory_accesses, point.gap_scale)
                    if key not in traces:
                        with recorder.span("traces.load", workload=name):
                            traces[key] = build_workload_trace(
                                *key, trace_store=store
                            )
                    mix.append(traces[key])
                system = _system(point)
                scenario = api.build_scenario(point.scheme, point.l1d_prefetcher)
                if point.kind == "single_core":
                    with recorder.span("memory.build", hierarchies=1):
                        hierarchy = build_hierarchy(scenario, config=system)
                    reason = batch_unsupported_reason(hierarchy)
                    with recorder.span(
                        "sim.single",
                        accesses=mix[0].num_memory_accesses,
                        core="batch" if reason is None else "scalar",
                        fallback=reason,
                    ):
                        result = api.run_single_core(
                            mix[0], scenario, config=system,
                            warmup_fraction=point.warmup_fraction,
                            hierarchy=hierarchy,
                        )
                else:
                    with recorder.span(
                        "sim.multi",
                        accesses=sum(trace.num_memory_accesses for trace in mix),
                        core="scalar",
                        hierarchies=len(mix),
                    ):
                        result = api.run_multicore_mix(
                            mix, scenario, config=system,
                            warmup_fraction=point.warmup_fraction,
                            mix_name=point.mix_name,
                        )
                results[point.label] = result
        with recorder.span("experiments.reduce"):
            workload.reduce(
                api.SweepResults(
                    config,
                    {point.key(): results[point.label] for point in points},
                    trace_store=store,
                )
            )
    return results


def multicore_build_probe(workload: Workload, store_dir: Path) -> float:
    """Time the hierarchy builds ``run_multicore_mix`` does for each mix point.

    ``run_multicore_mix`` builds its hierarchies internally, so the traced
    replay cannot separate them; this builds the same shared back-end and
    per-core hierarchies outside the replay.  Returns their seconds.
    """
    seconds = 0.0
    for point in workload.points(trace_store=api.TraceStore(store_dir)):
        if point.kind != "multi_core":
            continue
        system = _system(point)
        scenario = api.build_scenario(point.scheme, point.l1d_prefetcher)
        start = time.perf_counter()
        shared = SharedMemory(system)
        for core_id in range(len(point.workloads)):
            build_hierarchy(scenario, config=system, shared=shared, core_id=core_id)
        seconds += time.perf_counter() - start
    return seconds


def layer_metrics(recorder: SpanRecorder, runs: int, probe_s: float) -> dict:
    """Per-layer metrics of ``runs`` traced replays, per replay.

    ``probe_s`` is :func:`multicore_build_probe`'s time: it counts as
    hierarchy build time and not as multi-core simulation time.
    """
    totals = {name: value / runs for name, value in recorder.totals().items()}
    builds = sum(
        span["attrs"].get("hierarchies", 0)
        for span in recorder.spans
        if span["name"] in ("memory.build", "sim.multi")
    ) / runs
    metrics = {
        "traces.load_s": totals.get("traces.load", 0.0),
        "experiments.compile_s": totals.get("experiments.compile", 0.0),
        "experiments.reduce_s": totals.get("experiments.reduce", 0.0),
        "memory.build_s": totals.get("memory.build", 0.0) + probe_s,
        "memory.builds": builds,
    }
    for kind, span_name in (("single", "sim.single"), ("multi", "sim.multi")):
        spans = [span for span in recorder.spans if span["name"] == span_name]
        seconds = totals.get(span_name, 0.0)
        if kind == "multi":
            seconds -= probe_s
        accesses = sum(span["attrs"]["accesses"] for span in spans) / runs
        metrics[f"sim.{kind}.simulate_s"] = seconds
        metrics[f"sim.{kind}.accesses"] = accesses
        metrics[f"sim.{kind}.accesses_per_s"] = accesses / seconds if seconds > 0 else 0.0
    simulated = [span for span in recorder.spans if span["name"].startswith("sim.")]
    metrics["sim.points_batch"] = sum(s["attrs"]["core"] == "batch" for s in simulated) / runs
    metrics["sim.points_scalar"] = sum(s["attrs"]["core"] == "scalar" for s in simulated) / runs
    metrics["sim.batch_fallbacks"] = (
        sum(s["attrs"].get("fallback") is not None for s in simulated) / runs
    )
    # Leaf spans' self time equals their total; only the two enclosing
    # spans add information (the replay's own bookkeeping).
    self_times = recorder.self_times()
    for name in ("bench.run", "bench.point"):
        metrics[f"self.{name}_s"] = self_times.get(name, 0.0) / runs
    return metrics


def layer_call_seconds(recorder: SpanRecorder, run_span: dict) -> float:
    """Time inside one replay spent in timed layer calls."""
    start, end = run_span["start"], run_span["end"]
    return sum(
        duration(span)
        for span in recorder.spans
        if span["name"] in LAYER_SPANS and start <= span["start"] and span["end"] <= end
    )


# ----------------------------------------------------------------------
# Ablation ladder
# ----------------------------------------------------------------------
LADDER_TRACES = ("bfs.urand", "spec.mcf_like", "spec.lbm_like")
LADDER_WARMUP_FRACTION = 0.25


def _rung(name: str, system: api.SystemConfig) -> api.MemoryHierarchy:
    """A hierarchy with the components of one ladder rung."""
    parts = {}
    if name in ("ipcp", "spp", "hermes", "flp", "slp", "spp_aggr", "ppf"):
        parts["l1d_prefetcher"] = api.IPCPPrefetcher()
    if name == "berti":
        parts["l1d_prefetcher"] = BertiPrefetcher()
    if name in ("spp", "hermes", "flp", "slp"):
        parts["l2_prefetcher"] = api.SPPPrefetcher(aggressive=False)
    if name in ("spp_aggr", "ppf"):
        parts["l2_prefetcher"] = api.SPPPrefetcher(aggressive=True)
    if name == "ppf":
        parts["l2_prefetch_filter"] = PerceptronPrefetchFilter()
    if name == "hermes":
        parts["offchip_predictor"] = HermesPredictor()
    if name in ("flp", "slp"):
        tlp = TwoLevelPerceptron()
        parts["offchip_predictor"] = tlp.flp
        if name == "slp":
            parts["l1d_prefetch_filter"] = tlp.slp
    return api.MemoryHierarchy(config=system, **parts)


#: component -> (rung with it, rung without it).
LADDER = {
    "walk": ("walk", None),
    "ipcp": ("ipcp", "walk"),
    "berti": ("berti", "walk"),
    "spp": ("spp", "ipcp"),
    "hermes": ("hermes", "spp"),
    "flp": ("flp", "spp"),
    "slp": ("slp", "flp"),
    "ppf": ("ppf", "spp_aggr"),
}
RUNGS = ("walk", "ipcp", "berti", "spp", "hermes", "flp", "slp", "spp_aggr", "ppf")


def ablation_ladder(seed: int, accesses: int, repeats: int) -> dict[str, float]:
    """Marginal host microseconds per simulated access of each component.

    Every rung runs ``repeats`` times, rungs interleaved so that a change in
    host speed hits them alike.  A component's cost is the median of its
    paired differences (rung minus parent rung, same repeat); its spread is
    their interquartile range, and it is unresolved (1) when that range
    contains zero.
    """
    system = replace(api.cascade_lake_single_core(), sim_core=CORE)
    scenario = api.build_scenario("baseline")
    metrics = {}
    for trace_name in LADDER_TRACES:
        trace = generate_trace(trace_name, accesses, "medium", seed)
        per_access = {rung: [] for rung in RUNGS}
        for _ in range(repeats):
            for rung in RUNGS:
                hierarchy = _rung(rung, system)
                reason = batch_unsupported_reason(hierarchy)
                if reason is not None:
                    raise RuntimeError(f"ladder rung {rung} left the fused path: {reason}")
                start = time.perf_counter()
                api.run_single_core(
                    trace, scenario, config=system,
                    warmup_fraction=LADDER_WARMUP_FRACTION, hierarchy=hierarchy,
                )
                elapsed = time.perf_counter() - start
                per_access[rung].append(1e6 * elapsed / trace.num_memory_accesses)
        for component, (rung, parent) in LADDER.items():
            if parent is None:
                diffs = per_access[rung]
            else:
                diffs = [a - b for a, b in zip(per_access[rung], per_access[parent])]
            q1, _, q3 = statistics.quantiles(diffs, n=4)
            prefix = f"cost.{trace_name}.{component}"
            metrics[f"{prefix}_us"] = statistics.median(diffs)
            metrics[f"{prefix}_spread_us"] = q3 - q1
            metrics[f"{prefix}_unresolved"] = float(q1 <= 0.0 <= q3)
    return metrics
