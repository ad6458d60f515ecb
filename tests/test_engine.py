"""Tests for the campaign engine and the persistent result cache."""

import dataclasses
import json
import logging
import pickle
import re

import pytest

from repro.common.config import (
    DRAMConfig,
    cascade_lake_single_core,
    system_config_to_dict,
)
from repro.experiments.common import CampaignCache, quick_experiment_config
from repro.experiments.spec import get_experiment, run_experiment
from repro.sim.engine import (
    CampaignEngine,
    CampaignPoint,
    CampaignReport,
    PointOutcome,
    execute_point,
    multi_core_point,
    single_core_point,
    system_json,
)
from repro.sim.result_cache import ResultCache, result_from_dict, result_to_dict
from repro.sim.results import MultiCoreResult, SingleCoreResult
from repro.traces.store import TraceStore

#: Tiny trace budget so each simulated point costs ~10ms.
BUDGET = 800


#: The fig10 quick points' keys, computed before the engine memoised its
#: system descriptions: a point's key is its result-cache address, so
#: describing a point faster must leave every key as it was.
FIG10_QUICK_KEYS = {
    "bfs.urand/baseline/ipcp": "bf67a38c1271da109ff033989d1277cb",
    "pr.urand/baseline/ipcp": "1b3e3fc6b9e819a712bbcac5dbc85cf9",
    "spec.mcf_like/baseline/ipcp": "db9499bfc2c705cc792abf14f838fb20",
    "spec.omnetpp_like/baseline/ipcp": "41cac82847d6ddbf3f5afe535cb9b54c",
    "bfs.urand/ppf/ipcp": "defbe715ba183c92b76827e3d327db0e",
    "pr.urand/ppf/ipcp": "10d3e8d0721b9896ca1ce75710bbe1cc",
    "spec.mcf_like/ppf/ipcp": "53a2f6ec80b61d39e4e4fcb131582254",
    "spec.omnetpp_like/ppf/ipcp": "a1af0c13157f45a55184e49cfef66c28",
    "bfs.urand/hermes/ipcp": "4ab83851d27a25cdd0e94512ce07be06",
    "pr.urand/hermes/ipcp": "525eaa5a45f010dbbe30a50efd04e345",
    "spec.mcf_like/hermes/ipcp": "56103be7b7e27d40690be3f1f1f8df5e",
    "spec.omnetpp_like/hermes/ipcp": "cd6268d054e970ad079f15173e8d84c2",
    "bfs.urand/hermes_ppf/ipcp": "d406f6ff0f5fcb20bc17f350be5e7c5a",
    "pr.urand/hermes_ppf/ipcp": "097379e62a5ca427cf55c247fca734f5",
    "spec.mcf_like/hermes_ppf/ipcp": "f5961f5e79a56b0fa22e5b2faca1b43a",
    "spec.omnetpp_like/hermes_ppf/ipcp": "89281d0160451fbbbde1e5cf914d75ee",
    "bfs.urand/tlp/ipcp": "d5ca83f65bcd8c1db0047bc3bfe81348",
    "pr.urand/tlp/ipcp": "169997e92146c30130a4e54a8f17b8c5",
    "spec.mcf_like/tlp/ipcp": "8ef831bacdb36a3967d4119ae1889746",
    "spec.omnetpp_like/tlp/ipcp": "81e2be39948a4153ddbc5adb9a5b07ca",
}


def tiny_point(workload="bfs.urand", scheme="baseline", budget=BUDGET):
    return single_core_point(
        workload, scheme, "ipcp", memory_accesses=budget, warmup_fraction=0.25
    )


def run_one(engine, point):
    """Run (or fetch from the result cache) one point in-process."""
    return engine.run([point], jobs=1)[point.key()]


class TestCampaignPoint:
    def test_key_is_deterministic(self):
        assert tiny_point().key() == tiny_point().key()

    def test_key_distinguishes_scheme_budget_and_workload(self):
        keys = {
            tiny_point().key(),
            tiny_point(scheme="tlp").key(),
            tiny_point(budget=BUDGET + 1).key(),
            tiny_point(workload="spec.mcf_like").key(),
        }
        assert len(keys) == 4

    def test_multi_core_key_distinguishes_bandwidth(self):
        def point(bw):
            return multi_core_point(
                "mix", ["bfs.urand"] * 2, "baseline", "ipcp",
                memory_accesses=BUDGET, warmup_fraction=0.25,
                per_core_bandwidth_gbps=bw,
            )
        assert point(3.2).key() != point(1.6).key()

    def test_label(self):
        assert tiny_point().label == "bfs.urand/baseline/ipcp"

    def test_fig10_quick_keys_are_pinned(self):
        config = quick_experiment_config()
        points = get_experiment("fig10").build_sweep(config).compile(config)
        assert {point.label: point.key() for point in points} == FIG10_QUICK_KEYS

    def test_system_json_is_the_canonical_json(self):
        """The memo returns what serialising each config gives, also for
        configs that are equal but serialise differently (12 vs 12.0)."""
        for bandwidth in (12.8, 12, 12.0, 12.8):
            system = dataclasses.replace(
                cascade_lake_single_core(),
                dram=DRAMConfig(bandwidth_gbps=bandwidth),
            )
            assert system_json(system) == json.dumps(
                system_config_to_dict(system), sort_keys=True
            )
        assert tiny_point().system_json == system_json(cascade_lake_single_core())

    def test_key_is_hashed_once_and_survives_pickling(self, monkeypatch):
        point = tiny_point()
        key = point.key()
        monkeypatch.setattr(
            CampaignPoint, "to_dict", lambda *_: pytest.fail("key hashed twice")
        )
        assert point.key() == key
        copy = pickle.loads(pickle.dumps(point))
        assert copy == point and copy.key() == key
        monkeypatch.undo()
        assert dataclasses.replace(copy, scheme="tlp").key() == tiny_point(scheme="tlp").key()


class TestPointInputs:
    """A point outside the design space raises ``ValueError`` when it is
    made, so it never reaches a worker."""

    @pytest.mark.parametrize("kwargs, named", [
        ({"workload": "bfs.urnd"}, "bfs.urnd"),
        ({"workload": "spec.gromacs_like"}, "spec.gromacs_like"),
        ({"workload": "urand"}, "urand"),
        ({"scheme": "magic"}, "magic"),
        ({"l1d_prefetcher": "stride"}, "stride"),
        ({"memory_accesses": 0}, "integer >= 1"),
        ({"memory_accesses": -5}, "integer >= 1"),
        ({"memory_accesses": 2.5}, "integer >= 1"),
        ({"memory_accesses": True}, "integer >= 1"),
    ])
    def test_single_core_point_rejects_an_unknown_input(self, kwargs, named):
        point = {"workload": "bfs.urand", "scheme": "baseline",
                 "l1d_prefetcher": "ipcp", "memory_accesses": BUDGET, **kwargs}
        with pytest.raises(ValueError, match=re.escape(named)):
            single_core_point(warmup_fraction=0.25, **point)

    def test_multi_core_point_names_every_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workloads: bfs.urnd, spec.x"):
            multi_core_point("mix", ["spec.x", "bfs.urand", "bfs.urnd"],
                             "baseline", "ipcp", memory_accesses=BUDGET,
                             warmup_fraction=0.25)
        with pytest.raises(ValueError, match="unknown scheme 'magic'"):
            multi_core_point("mix", ["bfs.urand"] * 2, "magic", "ipcp",
                             memory_accesses=BUDGET, warmup_fraction=0.25)

    def test_imported_workloads_must_be_in_the_store(self, tmp_path):
        with pytest.raises(ValueError, match="unknown workloads: imported.astar"):
            single_core_point("imported.astar", "baseline", "ipcp",
                              memory_accesses=BUDGET, warmup_fraction=0.25,
                              trace_store=TraceStore(tmp_path / "empty"))

    def test_no_prefetcher_is_a_point(self):
        point = single_core_point("bfs.urand", "tlp", "none",
                                  memory_accesses=BUDGET, warmup_fraction=0.25)
        assert point.label == "bfs.urand/tlp/none"


class TestResultCacheSerialization:
    def test_single_core_round_trip(self):
        result = execute_point(tiny_point())
        assert isinstance(result, SingleCoreResult)
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_multi_core_round_trip(self):
        point = multi_core_point(
            "mix", ["bfs.urand", "bfs.urand"], "baseline", "ipcp",
            memory_accesses=BUDGET, warmup_fraction=0.25,
        )
        result = execute_point(point)
        assert isinstance(result, MultiCoreResult)
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            result_from_dict({"kind": "bogus", "fields": {}})


class TestResultCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = execute_point(tiny_point())
        cache.put("abc", result)
        restored = cache.get("abc")
        assert dataclasses.asdict(restored) == dataclasses.asdict(result)
        assert cache.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None


class TestEngineCaching:
    def test_cache_hit_short_circuits_simulation(self, tmp_path):
        point = tiny_point()
        first = CampaignEngine(result_cache=ResultCache(tmp_path))
        result = run_one(first, point)
        assert first.simulations_run == 1

        second = CampaignEngine(result_cache=ResultCache(tmp_path))
        cached = run_one(second, point)
        assert second.simulations_run == 0
        assert second.cache_hits == 1
        assert dataclasses.asdict(cached) == dataclasses.asdict(result)

    def test_run_deduplicates_points(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path))
        results = engine.run([tiny_point(), tiny_point()], jobs=1)
        assert engine.simulations_run == 1
        assert len(results) == 1

    def test_no_cache_engine_always_simulates(self):
        engine = CampaignEngine(result_cache=None)
        run_one(engine, tiny_point())
        run_one(engine, tiny_point())
        assert engine.simulations_run == 2

    def test_status_reports_cache_state_without_simulating(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path))
        points = [tiny_point(), tiny_point(scheme="hermes")]
        rows = engine.status(points)
        assert [cached for _, _, cached in rows] == [False, False]
        assert engine.simulations_run == 0
        run_one(engine, points[0])
        rows = engine.status(points)
        assert [cached for _, _, cached in rows] == [True, False]


class TestTraceMemo:
    def test_pool_workers_build_each_trace_once(self):
        # Every pool worker keeps a trace memo for the pool's lifetime, so
        # six points on one workload run its generator at most once per
        # worker, even with no trace store to map it from.
        points = [
            tiny_point(scheme=scheme)
            for scheme in ("baseline", "hermes", "tlp", "flp", "slp", "ppf")
        ]
        engine = CampaignEngine(result_cache=None, jobs=2, trace_store=None)
        engine.run(points)
        assert engine.last_report.generator_invocations <= 2

    def test_in_process_points_share_the_engine_memo(self):
        engine = CampaignEngine(result_cache=None, jobs=1)
        trace = engine.trace("bfs.urand", BUDGET)
        engine.run([tiny_point(), tiny_point(scheme="tlp")])
        assert engine.last_report.generator_invocations == 0
        assert engine.trace("bfs.urand", BUDGET) is trace


class TestEngineDeterminism:
    def test_serial_and_parallel_results_identical(self, tmp_path):
        points = [tiny_point(w, s) for w in ("bfs.urand", "spec.mcf_like")
                  for s in ("baseline", "tlp")]
        serial = CampaignEngine(result_cache=None).run(points, jobs=1)
        parallel = CampaignEngine(result_cache=None).run(points, jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert (
                dataclasses.asdict(serial[key]) == dataclasses.asdict(parallel[key])
            )

    def test_cached_result_metrics_identical_to_fresh(self, tmp_path):
        point = tiny_point(scheme="tlp")
        engine = CampaignEngine(result_cache=ResultCache(tmp_path))
        fresh = run_one(engine, point)
        warm = run_one(CampaignEngine(result_cache=ResultCache(tmp_path)), point)
        assert warm.ipc == fresh.ipc
        assert warm.mpki_by_level == fresh.mpki_by_level
        assert warm.dram_transactions == fresh.dram_transactions


class TestWarmCacheSkipsFigureHarness:
    def test_second_fig10_invocation_performs_zero_simulations(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ResultCache.DIR_ENV, str(tmp_path))
        config = quick_experiment_config()

        cold = CampaignCache(config)
        run_experiment("fig10", cache=cold, schemes=("tlp",))
        assert cold.engine.simulations_run > 0

        warm = CampaignCache(config)
        result = run_experiment("fig10", cache=warm, schemes=("tlp",))
        assert warm.engine.simulations_run == 0
        assert warm.engine.cache_hits > 0
        assert set(result.geomean_speedup["ipcp"]) == {"tlp"}


class TestFailFast:
    """The first failing point fails the run and names itself."""

    BAD = "spec.no_such_workload"

    def bad_point(self):
        """A point whose generator fails inside the run (making it through
        ``single_core_point`` would raise before the run)."""
        return dataclasses.replace(tiny_point(), workloads=(self.BAD,))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_point_fails_run_naming_its_label(self, jobs):
        points = [tiny_point(), tiny_point(scheme="tlp"), self.bad_point()]
        engine = CampaignEngine(result_cache=None)
        with pytest.raises(RuntimeError) as excinfo:
            engine.run(points, jobs=jobs)
        assert str(excinfo.value).startswith(
            f"point {self.BAD}/baseline/ipcp (single_core, {BUDGET} accesses) "
            "failed: "
        )
        assert excinfo.value.__cause__ is not None

    def test_points_finished_before_a_failure_are_in_the_result_cache(
        self, tmp_path
    ):
        healthy = [tiny_point(), tiny_point(scheme="tlp")]
        cache = ResultCache(tmp_path)
        engine = CampaignEngine(result_cache=cache)
        with pytest.raises(RuntimeError, match=self.BAD):
            engine.run(healthy + [self.bad_point()], jobs=1)
        assert engine.simulations_run == len(healthy)
        assert all(cache.contains(point.key()) for point in healthy)
        # Re-running resumes from the result cache: nothing is re-simulated.
        rerun = CampaignEngine(result_cache=ResultCache(tmp_path))
        rerun.run(healthy, jobs=1)
        assert rerun.simulations_run == 0
        assert rerun.cache_hits == len(healthy)


class TestFigureAllPool:
    def test_figure_all_builds_one_process_pool(self, monkeypatch, capsys):
        import concurrent.futures
        from concurrent.futures import ProcessPoolExecutor

        from repro.cli import main

        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        # The engine imports the pool class when a run opens one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        assert main(["figure", "all", "--quick", "--jobs", "2",
                     "--no-cache"]) == 0
        assert pools == [2]
        assert "figures: 10" in capsys.readouterr().out


class TestCampaignReport:
    def test_percentiles_ignore_cached_points(self):
        report = CampaignReport(
            outcomes=[
                PointOutcome("a", "a", "cached"),
                PointOutcome("b", "b", "ok", wall_s=2.0),
            ]
        )
        assert report.wall_time_percentiles()["p50"] == 2.0

    def test_percentiles_match_obs_report(self):
        """``--report`` and ``obs report`` compute one percentile: on four
        executed points the old nearest-rank p50/p90 (3.0/4.0) differed
        from the interpolated ones (2.5/3.7)."""
        from repro.obs.analyze import summarize

        walls = [1.0, 2.0, 3.0, 4.0]
        report = CampaignReport(
            outcomes=[PointOutcome("c", "c", "cached")] + [
                PointOutcome(str(i), str(i), "ok", wall_s=wall)
                for i, wall in enumerate(walls)
            ]
        )
        spans = [
            {"type": "span", "name": "simulate", "ts": 0.0, "dur": wall}
            for wall in walls
        ]
        stragglers = summarize(spans)["stragglers"]
        assert report.wall_time_percentiles() == {
            "p50": stragglers["p50_s"],
            "p90": stragglers["p90_s"],
            "p99": stragglers["p99_s"],
            "max": stragglers["max_s"],
        } == {"p50": 2.5, "p90": 3.7, "p99": 3.97, "max": 4.0}

    def test_report_counts_simulated_then_cached_points(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path))
        points = [tiny_point(), tiny_point(scheme="tlp")]
        engine.run(points, jobs=1)
        engine.run(points, jobs=1)
        first, second = (report.to_dict() for report in engine.reports)
        assert (first["succeeded"], first["cached"]) == (2, 0)
        assert (second["succeeded"], second["cached"]) == (0, 2)
        assert second["cache_hits"] == 2
        assert set(first) == {
            "points", "succeeded", "cached", "elapsed_s", "jobs",
            "generator_invocations", "cache_hits", "wall_time_s", "outcomes",
        }
        assert {o["status"] for o in first["outcomes"]} == {"ok"}


# ----------------------------------------------------------------------
# Storage robustness
# ----------------------------------------------------------------------
class TestCorruptStorage:
    def test_corrupt_cache_entry_is_quarantined_with_warning(
        self, tmp_path, caplog
    ):
        cache = ResultCache(tmp_path)
        point = tiny_point()
        engine = CampaignEngine(result_cache=cache)
        engine.run([point], jobs=1)
        entry = tmp_path / f"{point.key()}.json"
        entry.write_text("{torn", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert cache.get(point.key()) is None
        assert "quarantined corrupt" in caplog.text
        assert not entry.exists()
        assert [p.name for p in cache.quarantined()] == [
            f"{point.key()}.json.corrupt"
        ]
        # The engine transparently re-simulates a torn point.
        entry.write_text("{torn again", encoding="utf-8")
        caplog.clear()
        fresh = CampaignEngine(result_cache=ResultCache(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            results = fresh.run([point], jobs=1)
        assert "quarantined corrupt" in caplog.text
        assert point.key() in results and fresh.simulations_run == 1
