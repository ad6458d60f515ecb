"""Simulator throughput benchmark: simulated memory-accesses per second.

The CI tripwire for the simulator's hot path.  Performance claims are made
against the repository benchmark (``BENCHMARK.json``'s command,
``perfbench/run.py``), which also measures trace generation and load and
the figure sweeps; this script keeps only the gated rows.  It runs one
cache-hostile GAP workload and one SPEC-like workload under the baseline
scenario (prefetchers only), TLP (FLP + SLP perceptrons on every access)
and PPF:

* ``scenarios`` -- scalar reference throughput (``accesses_per_sec``)
  over a prebuilt trace;
* ``core_batch`` (per scenario) -- the same simulation through the
  batch core's compiled kernel (the default core), which is bit-identical
  to the scalar path; ``speedup_vs_scalar`` is the per-scenario ratio and
  ``batch_speedup_vs_scalar`` its geomean;
* ``multi_core`` (per mix) -- 4-core TLP/IPCP mixes (homogeneous
  bfs.urand and a heterogeneous bfs/mcf/lbm/road mix, ``--accesses / 4``
  per core) on both cores;
* ``hierarchy_build`` -- median milliseconds to build the single-core
  TLP/IPCP hierarchy and the 4-core hierarchy set over one shared LLC
  (the fixed cost every point pays before its first access);
* ``graph_build`` -- median milliseconds of 5 cold builds (graph memo
  cleared before each) of the ``medium`` urand and road input graphs, each
  with every ``col_idx`` row filled (a trace fills only the rows it walks,
  so this is the most a GAP trace's graph can cost).

``--check`` calibrates the host just before and just after the gated rows
and scales every gate by the higher of the two scores, so calibration noise
can only make a gate stricter.  It exits non-zero when any gate fails:

* the scalar geomean falls more than ``--tolerance`` (default 30%) below
  the committed baseline, scaled by the host's calibration score;
* the batch geomean falls more than ``--tolerance`` below the committed
  batch baseline, scaled by ``core_batch_calibration_score``;
* the batch geomean is below the scalar geomean of the same run, or any
  mix's batch run is slower than its scalar run (same host, same run: no
  calibration scaling);
* a ``hierarchy_build`` or ``graph_build`` row exceeds 3x its baseline,
  scaled by the row's calibration score.

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py
    PYTHONPATH=src python benchmarks/bench_throughput.py --check

Writes ``BENCH_throughput.json`` and compares against the committed
reference numbers in ``benchmarks/throughput_baseline.json`` (its ``seed``
block holds the pre-optimization scalar numbers the ``vs seed`` ratios
compare against).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import time
from pathlib import Path

from repro.common.config import cascade_lake_multi_core, cascade_lake_single_core
from repro.sim.multi_core import build_mix_hierarchies, run_multicore_mix
from repro.sim.scenarios import build_hierarchy, build_scenario
from repro.sim.single_core import run_single_core
from repro.workloads.gap import gap_trace
from repro.workloads.graphs import clear_graph_memo, generate_graph
from repro.workloads.spec_like import spec_like_trace

#: (workload, scheme, l1d_prefetcher) scenarios measured by the benchmark.
#: IPCP rows keep their historical ``workload/scheme`` names so the seed
#: comparisons stay meaningful; the berti rows pin the second L1D
#: prefetcher kernel and the ppf rows the aggressive-SPP + PPF L2 path.
SCENARIOS = (
    ("bfs.urand", "baseline", "ipcp"),
    ("bfs.urand", "tlp", "ipcp"),
    ("bfs.urand", "tlp", "berti"),
    ("bfs.urand", "ppf", "ipcp"),
    ("spec.mcf_like", "baseline", "ipcp"),
    ("spec.mcf_like", "tlp", "ipcp"),
    ("spec.mcf_like", "tlp", "berti"),
    ("spec.mcf_like", "ppf", "ipcp"),
)

#: (name, workloads) multi-core mixes, each run under TLP with IPCP.
MULTICORE_MIXES = (
    ("homog.bfs.urand", ("bfs.urand",) * 4),
    ("hetero.bfs_mcf_lbm_road",
     ("bfs.urand", "spec.mcf_like", "spec.lbm_like", "cc.road")),
)

#: --check fails when a hierarchy or input-graph build takes more than this
#: multiple of its (machine-scaled) baseline.
BUILD_CEILING = 3.0

#: The build-time report rows that --check gates at BUILD_CEILING.
BUILD_ROWS = ("hierarchy_build", "graph_build")

BASELINE_PATH = Path(__file__).resolve().parent / "throughput_baseline.json"
DEFAULT_OUTPUT = "BENCH_throughput.json"


def calibration_score(iterations: int = 400_000) -> float:
    """Machine-speed score: hash-loop iterations per second.

    The committed baseline records the score of the machine it was measured
    on; ``--check`` scales the baseline by the ratio of the current score
    (the higher of the scores taken before and after the gated rows) to
    the recorded one, so a slower CI runner is held to a proportionally
    lower absolute floor instead of failing on hardware variance.  The loop
    mirrors the simulator's real hot path (integer hashing).
    """
    from repro.common.hashing import jenkins32

    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = 0
        for i in range(iterations):
            value ^= jenkins32(i)
        best = min(best, time.perf_counter() - start)
    return iterations / best


def _build_trace(workload: str, accesses: int):
    if workload.startswith("spec."):
        return spec_like_trace(workload[len("spec."):], num_memory_accesses=accesses)
    kernel, _, graph = workload.partition(".")
    return gap_trace(kernel, graph=graph, scale="medium", max_memory_accesses=accesses)


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def measure_multi_core(accesses: int, repeats: int, warmup_fraction: float) -> dict:
    """Best-of-``repeats`` mix throughput on both cores, interleaved per
    repeat so host-speed drift hits the scalar and batch runs alike."""
    per_core = max(1, accesses // 4)
    traces = {}
    rows = {}
    for name, workloads in MULTICORE_MIXES:
        for workload in workloads:
            if workload not in traces:
                traces[workload] = _build_trace(workload, per_core)
        mix = [traces[workload] for workload in workloads]
        best = {"scalar": math.inf, "batch": math.inf}
        for _ in range(repeats):
            for core in best:
                system = dataclasses.replace(
                    cascade_lake_multi_core(num_cores=len(mix)), sim_core=core
                )
                scenario = build_scenario("tlp", l1d_prefetcher="ipcp")
                start = time.perf_counter()
                run_multicore_mix(
                    mix, scenario, config=system, warmup_fraction=warmup_fraction
                )
                best[core] = min(best[core], time.perf_counter() - start)
        total = per_core * len(mix)
        rows[name] = {
            core: {
                "seconds": round(seconds, 4),
                "accesses_per_sec": round(total / seconds, 1),
            }
            for core, seconds in best.items()
        }
        rows[name]["speedup_vs_scalar"] = round(best["scalar"] / best["batch"], 2)
    return rows


def _median_build_ms(builds: dict, repeats: int, before=None) -> dict:
    """Median milliseconds of ``repeats`` calls of each build; ``before``
    runs untimed ahead of every call."""
    row = {}
    for name, build in builds.items():
        samples = []
        for _ in range(repeats):
            if before is not None:
                before()
            start = time.perf_counter()
            build()
            samples.append(time.perf_counter() - start)
        samples.sort()
        row[name] = round(samples[len(samples) // 2] * 1e3, 2)
    return row


def measure_hierarchy_build(repeats: int = 9) -> dict:
    """Median build time of the single-core and the 4-core TLP/IPCP
    hierarchies, in milliseconds."""
    scenario = build_scenario("tlp", l1d_prefetcher="ipcp")
    return _median_build_ms({
        "single_core_ms": lambda: build_hierarchy(
            scenario, config=cascade_lake_single_core()
        ),
        "multi_core_4_ms": lambda: build_mix_hierarchies(
            scenario, cascade_lake_multi_core(num_cores=4), 4
        ),
    }, repeats)


def measure_graph_build(repeats: int = 5) -> dict:
    """Median cold build time of the medium urand and road input graphs,
    every row filled, in milliseconds."""
    return _median_build_ms({
        f"{name}_medium_ms": lambda name=name: generate_graph(name, scale="medium").col_idx
        for name in ("urand", "road")
    }, repeats, before=clear_graph_memo)


def measure(accesses: int = 12_000, repeats: int = 3, warmup_fraction: float = 0.25) -> dict:
    """Run every scenario ``repeats`` times and report the best throughput."""
    traces = {}
    results = {}
    core_batch = {}
    for workload, scheme, prefetcher in SCENARIOS:
        if workload not in traces:
            traces[workload] = _build_trace(workload, accesses)
        trace = traces[workload]
        name = f"{workload}/{scheme}"
        if prefetcher != "ipcp":
            name = f"{name}/{prefetcher}"
        scalar_system = dataclasses.replace(
            cascade_lake_single_core(), sim_core="scalar"
        )
        batch_system = cascade_lake_single_core()
        best = math.inf
        batch_best = math.inf
        for _ in range(repeats):
            scenario = build_scenario(scheme, l1d_prefetcher=prefetcher)
            start = time.perf_counter()
            run_single_core(trace, scenario, config=scalar_system,
                            warmup_fraction=warmup_fraction)
            best = min(best, time.perf_counter() - start)
            # Same trace, same scenario, through the compiled kernel.
            scenario = build_scenario(scheme, l1d_prefetcher=prefetcher)
            start = time.perf_counter()
            run_single_core(trace, scenario, config=batch_system,
                            warmup_fraction=warmup_fraction)
            batch_best = min(batch_best, time.perf_counter() - start)
        results[name] = {
            "seconds": round(best, 4),
            "accesses_per_sec": round(accesses / best, 1),
        }
        core_batch[name] = {
            "seconds": round(batch_best, 4),
            "accesses_per_sec": round(accesses / batch_best, 1),
            "speedup_vs_scalar": round(best / batch_best, 2),
        }
    return {
        "accesses": accesses,
        "repeats": repeats,
        "scenarios": results,
        "core_batch": core_batch,
        "multi_core": measure_multi_core(accesses, repeats, warmup_fraction),
        "hierarchy_build": measure_hierarchy_build(),
        "graph_build": measure_graph_build(),
        "geomean_accesses_per_sec": round(
            _geomean(entry["accesses_per_sec"] for entry in results.values()), 1
        ),
        "core_batch_geomean_accesses_per_sec": round(
            _geomean(
                entry["accesses_per_sec"] for entry in core_batch.values()
            ), 1
        ),
        "batch_speedup_vs_scalar": round(
            _geomean(
                entry["speedup_vs_scalar"] for entry in core_batch.values()
            ), 2
        ),
    }


def host_metadata() -> dict:
    """Where the numbers were measured: interpreter, numpy, CPU, platform.

    Stamped into the report so a ``BENCH_throughput.json`` artifact is
    interpretable on its own -- throughput comparisons across machines or
    toolchain upgrades are meaningless without this block.
    """
    import os
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def load_baseline() -> dict | None:
    """Load the committed reference numbers, if present."""
    try:
        with BASELINE_PATH.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=12_000,
                        help="memory accesses per scenario (default 12000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per scenario; the best time counts")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    parser.add_argument("--check", action="store_true",
                        help="fail when throughput regresses below the "
                             "committed baseline (CI smoke)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression with --check "
                             "(default 0.30)")
    args = parser.parse_args(argv)

    # Calibrate just before and just after the gated rows and scale every
    # gate by the higher score: a calibration loop that a busy host slowed
    # down can then only raise a floor or lower a ceiling.
    scores = [calibration_score()] if args.check else []
    report = measure(accesses=args.accesses, repeats=args.repeats)
    if args.check:
        scores.append(calibration_score())
        report["calibration_scores"] = [round(score, 1) for score in scores]
        report["calibration_score"] = round(max(scores), 1)
        print(f"machine calibration: {scores[0]:,.0f} before and "
              f"{scores[1]:,.0f} after the gated rows; gates scale by "
              f"{max(scores):,.0f}")
    report["host"] = host_metadata()
    baseline = load_baseline()

    print(f"scalar reference throughput ({args.accesses} accesses, best of {args.repeats}):")
    seed = (baseline or {}).get("seed", {}).get("scenarios", {})
    for name, entry in report["scenarios"].items():
        line = f"  {name:<24} {entry['accesses_per_sec']:>10,.0f} acc/s"
        seed_entry = seed.get(name)
        if seed_entry:
            line += f"  ({entry['accesses_per_sec'] / seed_entry['accesses_per_sec']:.2f}x vs seed)"
        print(line)
    print(f"  {'geomean':<24} {report['geomean_accesses_per_sec']:>10,.0f} acc/s")

    print(f"batch core (the default, bit-identical, best of {args.repeats}):")
    for name, entry in report["core_batch"].items():
        print(f"  {name:<24} {entry['accesses_per_sec']:>10,.0f} acc/s"
              f"  ({entry['speedup_vs_scalar']:.2f}x vs scalar)")
    print(f"  {'geomean':<24} "
          f"{report['core_batch_geomean_accesses_per_sec']:>10,.0f} acc/s"
          f"  ({report['batch_speedup_vs_scalar']:.2f}x vs scalar)")

    print(f"multi-core mixes (tlp/ipcp, {args.accesses // 4} accesses per core, "
          f"best of {args.repeats}):")
    baseline_multi = (baseline or {}).get("multi_core", {})
    for name, entry in report["multi_core"].items():
        line = (f"  {name:<24} scalar {entry['scalar']['accesses_per_sec']:>9,.0f}"
                f"  batch {entry['batch']['accesses_per_sec']:>9,.0f} acc/s"
                f"  ({entry['speedup_vs_scalar']:.2f}x vs scalar)")
        baseline_entry = baseline_multi.get(name)
        if baseline_entry:
            line += f"  (baseline {baseline_entry['speedup_vs_scalar']:.2f}x)"
        print(line)

    for row in BUILD_ROWS:
        baseline_build = (baseline or {}).get(row, {})
        print(f"{row} (median):")
        for name, ms in report[row].items():
            line = f"  {name:<24} {ms:>10.2f} ms"
            if baseline_build.get(name):
                line += f"  (baseline {baseline_build[name]:.2f} ms)"
            print(line)

    if baseline:
        reference = baseline.get("geomean_accesses_per_sec")
        seed_geomean = (baseline.get("seed") or {}).get("geomean_accesses_per_sec")
        if seed_geomean:
            speedup = report["geomean_accesses_per_sec"] / seed_geomean
            report["speedup_vs_seed"] = round(speedup, 2)
            print(f"  speedup vs seed geomean: {speedup:.2f}x")
        if args.check and reference:
            # Normalise the cross-machine comparison by the hash-loop
            # calibration score recorded alongside the baseline.
            baseline_score = baseline.get("calibration_score")
            if baseline_score:
                scale = report["calibration_score"] / baseline_score
                print(f"  machine calibration: {scale:.2f}x the baseline machine")
            else:
                scale = 1.0
            floor = (1.0 - args.tolerance) * reference * scale
            if report["geomean_accesses_per_sec"] < floor:
                print(
                    f"THROUGHPUT REGRESSION: geomean "
                    f"{report['geomean_accesses_per_sec']:,.0f} acc/s is below "
                    f"{floor:,.0f} acc/s "
                    f"({args.tolerance:.0%} under the committed baseline "
                    f"{reference:,.0f} scaled by machine speed {scale:.2f}x)"
                )
                Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
                return 1
            print(
                f"throughput check passed: geomean >= {floor:,.0f} acc/s "
                f"(baseline {reference:,.0f}, machine scale {scale:.2f}x, "
                f"tolerance {args.tolerance:.0%})"
            )
        batch_reference = baseline.get("core_batch_geomean_accesses_per_sec")
        batch_score = baseline.get("core_batch_calibration_score")
        if args.check and batch_reference and batch_score:
            # The batch rows carry the calibration score of the host they
            # were recorded on (not the scalar rows' machine).
            scale = report["calibration_score"] / batch_score
            floor = (1.0 - args.tolerance) * batch_reference * scale
            batch_geomean = report["core_batch_geomean_accesses_per_sec"]
            if batch_geomean < floor:
                print(
                    f"BATCH THROUGHPUT REGRESSION: batch geomean "
                    f"{batch_geomean:,.0f} acc/s is below {floor:,.0f} acc/s "
                    f"({args.tolerance:.0%} under the committed batch baseline "
                    f"{batch_reference:,.0f} scaled by machine speed {scale:.2f}x)"
                )
                Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
                return 1
            print(
                f"batch throughput check passed: geomean >= {floor:,.0f} acc/s "
                f"(baseline {batch_reference:,.0f}, machine scale {scale:.2f}x)"
            )

    if args.check and report["batch_speedup_vs_scalar"] < 1.0:
        # Same machine, same run: the batch core being slower than the
        # scalar reference is a regression regardless of hardware.
        print(
            f"BATCH CORE REGRESSION: batch geomean is "
            f"{report['batch_speedup_vs_scalar']:.2f}x the scalar geomean "
            f"(must be >= 1.0x)"
        )
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        return 1
    if args.check:
        print(
            f"batch core check passed: {report['batch_speedup_vs_scalar']:.2f}x "
            f"the scalar geomean (floor 1.0x)"
        )
        slower = {
            name: entry["speedup_vs_scalar"]
            for name, entry in report["multi_core"].items()
            if entry["speedup_vs_scalar"] < 1.0
        }
        if slower:
            print(f"BATCH CORE REGRESSION on multi-core mixes "
                  f"(batch/scalar speedup must be >= 1.0x): {slower}")
            Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
            return 1
        print("multi-core batch check passed: every mix >= 1.0x its scalar run")

    for row in BUILD_ROWS:
        baseline_build = (baseline or {}).get(row, {})
        if not (args.check and baseline_build):
            continue
        # The baseline row carries the calibration score of its own host;
        # a slower machine gets a proportionally higher ceiling.
        scale = 1.0
        if baseline_build.get("calibration_score"):
            scale = report["calibration_score"] / baseline_build["calibration_score"]
        slow = {
            name: ms
            for name, ms in report[row].items()
            if baseline_build.get(name)
            and ms > BUILD_CEILING * baseline_build[name] / scale
        }
        if slow:
            print(f"{row.upper()} REGRESSION (over {BUILD_CEILING:.0f}x the "
                  f"baseline, machine scale {scale:.2f}x): {slow}")
            Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
            return 1
        print(f"{row} check passed: every build <= {BUILD_CEILING:.0f}x "
              f"its baseline (machine scale {scale:.2f}x)")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
