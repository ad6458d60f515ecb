"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py`` so the repository's test suite does not
collect it.)
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import api  # noqa: E402

from perfbench import checks, layers  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    build_workloads,
    collect_results,
    generate_trace,
    measured_demand_accesses,
    populate_store,
    run_untraced,
    trace_digest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SCALE = 0.05
WORKLOADS = build_workloads(SMOKE_SCALE)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    declared = _benchmark()
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Each workload's seed-1 traces at smoke scale."""
    directory = tmp_path_factory.mktemp("perfbench")
    for workload in WORKLOADS.values():
        populate_store(workload, directory / workload.name, seed=1)
    return directory


def test_seed_zero_reproduces_the_catalog_traces():
    for name in ("bfs.urand", "spec.mcf_like"):
        assert trace_digest(generate_trace(name, 1_000, "medium", 0)) == trace_digest(
            api.load_trace(name, memory_accesses=1_000)
        )


def test_a_second_seed_changes_traces_but_not_points(tmp_path):
    workload = WORKLOADS["sc-long"]
    first = populate_store(workload, tmp_path / "a", seed=1)
    second = populate_store(workload, tmp_path / "b", seed=2)
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)
    assert [p.key() for p in workload.points(api.TraceStore(tmp_path / "a"))] == [
        p.key() for p in workload.points(api.TraceStore(tmp_path / "b"))
    ]


def test_invariant_checker_rejects_corrupted_results(stores):
    workload = WORKLOADS["mc-mix"]
    store = api.TraceStore(stores / workload.name)
    results = collect_results(workload, run_untraced(workload, stores / workload.name))
    demand = measured_demand_accesses(workload, store)
    single = results["bfs.urand/baseline/ipcp"]
    multi = results["heter.dispatch/tlp/ipcp"]
    expected = demand[("bfs.urand", workload.config.multicore_memory_accesses)]
    assert checks.invariant_violations(single, expected) == []
    assert checks.invariant_violations(multi) == []

    served = dict(single.served_by, DRAM=single.served_by["DRAM"] + 1)
    corrupted = [
        dataclasses.replace(single, served_by=served),
        dataclasses.replace(single, dram_transactions=single.dram_transactions + 1),
        dataclasses.replace(
            single, useful_l1d_prefetches=single.l1d_prefetches_issued + 1
        ),
        dataclasses.replace(single, ipc=float("nan")),
    ]
    for result in corrupted:
        assert checks.invariant_violations(result, expected)
    assert checks.invariant_violations(
        dataclasses.replace(multi, dram_transactions=multi.dram_transactions - 1)
    )

    gate = checks.Gate()
    points = workload.points(store)
    gate.check_run(points, results, demand)
    assert gate.correct
    changed = dict(results)
    changed["heter.dispatch/tlp/ipcp"] = dataclasses.replace(
        multi, ipcs=[ipc * 1.01 for ipc in multi.ipcs]
    )
    gate.check_run(points, changed, demand)
    assert gate.failed == 1 and "differs from an earlier run" in gate.problems[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_runs_agree(stores, name):
    workload = WORKLOADS[name]
    store_dir = stores / name
    untraced = collect_results(workload, run_untraced(workload, store_dir))
    recorder = layers.SpanRecorder()
    traced = layers.traced_run(workload, store_dir, recorder)
    assert untraced.keys() == traced.keys()
    for label in untraced:
        assert checks.result_digest(untraced[label]) == checks.result_digest(traced[label])
    points = workload.points(api.TraceStore(store_dir))
    assert checks.sim_metrics(points, untraced) == checks.sim_metrics(points, traced)
    assert checks.scheme_counts(points, untraced) == checks.scheme_counts(points, traced)

    probe_s = layers.multicore_build_probe(workload, store_dir)
    metrics = layers.layer_metrics(recorder, 1, probe_s)
    multi_points = sum(point.kind == "multi_core" for point in points)
    assert metrics["sim.points_scalar"] == multi_points
    assert (metrics["sim.multi.accesses"] > 0) == (name == "mc-mix")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, trace):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SMOKE_SCALE)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = _benchmark()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in section}
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sc-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path, check=False,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
