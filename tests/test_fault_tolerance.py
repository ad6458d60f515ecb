"""Fault-tolerance tests for the supervised campaign engine.

Every failure mode the engine promises to survive is *injected* here via
:mod:`repro.sim.faults` (worker crash, hang, deterministic raise, corrupt
payload) or by corrupting storage directly (torn cache JSON, truncated
trace column), and the recovery behaviour -- retry, quarantine, resume --
is asserted rather than trusted.
"""

import json
import logging
import os

import pytest

from repro.sim import faults
from repro.sim.engine import (
    CampaignEngine,
    CampaignReport,
    PointOutcome,
    PointTimeoutError,
    RetryPolicy,
    classify_failure,
    single_core_point,
)
from repro.sim.result_cache import ResultCache

#: Tiny trace budget so each simulated point costs ~10ms.
BUDGET = 600


def tiny_point(workload="bfs.urand", scheme="baseline", budget=BUDGET):
    return single_core_point(
        workload, scheme, "ipcp", memory_accesses=budget, warmup_fraction=0.25
    )


def point_batch():
    """Four distinct points; fault rules select them by label substring."""
    return [
        tiny_point(),
        tiny_point(scheme="tlp"),
        tiny_point(scheme="hermes"),
        tiny_point(workload="spec.mcf_like"),
    ]


def install_faults(monkeypatch, *rules):
    monkeypatch.setenv(faults.FAULT_SPEC_ENV, json.dumps({"faults": list(rules)}))
    faults.install_from_env()


@pytest.fixture(autouse=True)
def clean_fault_spec(monkeypatch):
    """Each test starts and ends with no fault spec installed."""
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
    faults.install_from_env()
    yield
    monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
    faults.install_from_env()


# ----------------------------------------------------------------------
# Fault-spec parsing and determinism
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_rejects_bad_json(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_fault_spec("not json")

    def test_parse_rejects_unknown_mode_and_fields(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_fault_spec('{"faults": [{"match": "x", "mode": "melt"}]}')
        with pytest.raises(faults.FaultSpecError):
            faults.parse_fault_spec(
                '{"faults": [{"match": "x", "mode": "crash", "bogus": 1}]}'
            )

    def test_probability_gate_is_deterministic(self):
        rule = faults.FaultRule(match="bfs", mode="raise", probability=0.5, seed=7)
        draws = [rule.applies(f"key{i}", "bfs.urand/tlp/ipcp", 0) for i in range(64)]
        assert draws == [
            rule.applies(f"key{i}", "bfs.urand/tlp/ipcp", 0) for i in range(64)
        ]
        assert any(draws) and not all(draws)

    def test_max_attempts_bounds_firing(self):
        rule = faults.FaultRule(match="bfs", mode="raise", max_attempts=1)
        assert rule.applies("k", "bfs.urand/baseline/ipcp", 0)
        assert not rule.applies("k", "bfs.urand/baseline/ipcp", 1)

    def test_injected_error_survives_pickling(self):
        import pickle

        error = faults.FaultInjectedError("boom", transient=True)
        restored = pickle.loads(pickle.dumps(error))
        assert restored.transient is True and "boom" in str(restored)

    def test_malformed_env_spec_raises(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "{broken")
        with pytest.raises(faults.FaultSpecError):
            faults.install_from_env()


# ----------------------------------------------------------------------
# Error classification
# ----------------------------------------------------------------------
class TestClassifyFailure:
    def test_timeout_is_transient(self):
        transient, kind = classify_failure(PointTimeoutError("slow"))
        assert transient and kind == "timeout"

    def test_injected_error_carries_its_flag(self):
        assert classify_failure(faults.FaultInjectedError("x", transient=True))[0]
        assert not classify_failure(
            faults.FaultInjectedError("x", transient=False)
        )[0]

    def test_programming_errors_are_deterministic(self):
        transient, kind = classify_failure(ValueError("bad"))
        assert not transient and kind == "ValueError"

    def test_resource_errors_are_transient(self):
        assert classify_failure(MemoryError())[0]
        assert classify_failure(OSError("fork failed"))[0]


# ----------------------------------------------------------------------
# Supervised execution: crash / hang / raise / corrupt
#
# One supervision loop drives both executors, so every failure mode except
# a worker crash (which in-process *is* the process) is checked at jobs=1
# (the in-process executor) and jobs=2 (the process pool).
# ----------------------------------------------------------------------
JOBS = (1, 2)


class TestSupervisedPool:
    def test_worker_crash_preserves_completed_and_retries_rest(
        self, tmp_path, monkeypatch
    ):
        install_faults(
            monkeypatch,
            {"match": "bfs.urand/tlp", "mode": "crash", "max_attempts": 1},
        )
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        points = point_batch()
        results = engine.run(points, jobs=2)
        assert len(results) == len(points)
        report = engine.last_report
        assert report.succeeded == len(points)
        assert report.quarantined == 0
        assert report.pool_respawns >= 1
        # The crashing point (at least) was retried.
        assert report.total_retries >= 1
        # Every completed result reached the cache despite the crash.
        cold = ResultCache(tmp_path / "rc")
        assert all(cold.get(point.key()) is not None for point in points)

    def test_hang_times_out_then_quarantines(self, tmp_path, monkeypatch):
        install_faults(
            monkeypatch,
            {"match": "bfs.urand/tlp", "mode": "hang", "hang_s": 60.0},
        )
        points = point_batch()
        hung = tiny_point(scheme="tlp")
        policy = RetryPolicy(retries=1, timeout_s=0.5, backoff_s=0.01)
        for jobs in JOBS:
            engine = CampaignEngine(
                result_cache=ResultCache(tmp_path / f"rc{jobs}")
            )
            results = engine.run(points, jobs=jobs, policy=policy)
            assert hung.key() not in results
            assert len(results) == len(points) - 1
            report = engine.last_report
            assert report.quarantined == 1
            (outcome,) = report.quarantined_outcomes()
            assert outcome.key == hung.key()
            assert outcome.timed_out
            assert outcome.attempts == 2  # initial + 1 retry, both timed out

    def test_corrupt_payload_is_retried(self, tmp_path, monkeypatch):
        install_faults(
            monkeypatch,
            {"match": "bfs.urand/hermes", "mode": "corrupt", "max_attempts": 1},
        )
        for jobs in JOBS:
            engine = CampaignEngine(
                result_cache=ResultCache(tmp_path / f"rc{jobs}")
            )
            points = point_batch()
            results = engine.run(points, jobs=jobs)
            assert len(results) == len(points)
            report = engine.last_report
            assert report.quarantined == 0
            retried = [o for o in report.outcomes if o.retries]
            assert [o.label for o in retried] == ["bfs.urand/hermes/ipcp"]
            assert retried[0].status == "ok" and retried[0].attempts == 2


class TestSupervisedSerial:
    def test_deterministic_failure_quarantines_without_retry_storm(
        self, tmp_path, monkeypatch
    ):
        install_faults(monkeypatch, {"match": "bfs.urand/tlp", "mode": "raise"})
        points = point_batch()
        for jobs in JOBS:
            engine = CampaignEngine(
                result_cache=ResultCache(tmp_path / f"rc{jobs}")
            )
            results = engine.run(points, jobs=jobs)
            # Partial results are preserved, not discarded.
            assert len(results) == len(points) - 1
            report = engine.last_report
            (outcome,) = report.quarantined_outcomes()
            assert outcome.attempts == 1 and outcome.retries == 0
            assert outcome.error_kind == "fault-injected"
            assert outcome.transient is False

    def test_transient_failure_heals_on_retry(self, tmp_path, monkeypatch):
        install_faults(
            monkeypatch,
            {
                "match": "bfs.urand/tlp",
                "mode": "raise",
                "transient": True,
                "max_attempts": 1,
            },
        )
        points = point_batch()
        for jobs in JOBS:
            engine = CampaignEngine(
                result_cache=ResultCache(tmp_path / f"rc{jobs}")
            )
            results = engine.run(
                points, jobs=jobs, policy=RetryPolicy(retries=2, backoff_s=0.0)
            )
            assert len(results) == len(points)
            report = engine.last_report
            assert report.quarantined == 0 and report.total_retries == 1

    def test_rerun_executes_only_the_quarantined_remainder(
        self, tmp_path, monkeypatch
    ):
        install_faults(monkeypatch, {"match": "bfs.urand/tlp", "mode": "raise"})
        points = point_batch()
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        engine.run(points, jobs=1)
        assert engine.last_report.quarantined == 1

        # The fault is gone (the fixture env is restored); a fresh engine
        # over the same cache simulates exactly the quarantined point.
        monkeypatch.delenv(faults.FAULT_SPEC_ENV, raising=False)
        resumed = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        results = resumed.run(points, jobs=1)
        assert len(results) == len(points)
        assert resumed.simulations_run == 1
        assert resumed.last_report.cache_hits == len(points) - 1

    def test_interrupt_propagates_after_committing_earlier_points(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import engine as engine_module

        first, second = tiny_point(), tiny_point(scheme="tlp")
        execute = engine_module.execute_point

        def interrupt_second(point, **kwargs):
            if point.key() == second.key():
                raise KeyboardInterrupt
            return execute(point, **kwargs)

        monkeypatch.setattr(engine_module, "execute_point", interrupt_second)
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        with pytest.raises(KeyboardInterrupt):
            engine.run([first, second], jobs=1)
        cache = ResultCache(tmp_path / "rc")
        assert cache.get(first.key()) is not None
        assert cache.get(second.key()) is None

    def test_run_point_raises_on_quarantine(self, tmp_path, monkeypatch):
        install_faults(monkeypatch, {"match": "bfs.urand/tlp", "mode": "raise"})
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        with pytest.raises(RuntimeError, match="fault-injected"):
            engine.run_point(tiny_point(scheme="tlp"))
        assert engine.run_point(tiny_point()) is not None


# ----------------------------------------------------------------------
# Campaign report
# ----------------------------------------------------------------------
class TestCampaignReport:
    def test_report_surfaces_health_counters(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        points = point_batch()
        engine.run(points, jobs=1)
        engine.run(points, jobs=1)  # all cached now
        merged = CampaignReport.merged(engine.reports)
        payload = merged.to_dict()
        # Merging dedups per point by cache key, keeping the *latest*
        # outcome: every point's final state is "cached" (second run).
        assert payload["points"] == len(points)
        assert payload["cached"] == len(points)
        assert payload["succeeded"] == 0
        # The work counters still sum across runs -- both really happened.
        assert payload["cache_hits"] == len(points)
        assert payload["generator_invocations"] >= 1
        assert set(payload["wall_time_s"]) == {"p50", "p90", "p99", "max"}
        statuses = {o["status"] for o in payload["outcomes"]}
        assert statuses == {"cached"}

    def test_merged_dedups_by_key_keeping_latest(self):
        first = CampaignReport(
            outcomes=[
                PointOutcome("a", "a", "quarantined", attempts=3),
                PointOutcome("b", "b", "ok", wall_s=1.0),
            ],
            elapsed_s=1.0,
            cache_hits=1,
        )
        second = CampaignReport(
            outcomes=[PointOutcome("a", "a", "ok", wall_s=2.0)],
            elapsed_s=2.0,
            cache_hits=2,
        )
        merged = CampaignReport.merged([first, second])
        assert len(merged.outcomes) == 2
        by_key = {o.key: o for o in merged.outcomes}
        # Point "a" failed in the first run and succeeded in the second:
        # one outcome, the later one.
        assert by_key["a"].status == "ok" and by_key["a"].wall_s == 2.0
        assert merged.quarantined == 0
        # Aggregate counters remain sums of work actually performed.
        assert merged.elapsed_s == 3.0 and merged.cache_hits == 3

    def test_percentiles_ignore_cached_points(self):
        report = CampaignReport(
            outcomes=[
                PointOutcome("a", "a", "cached", attempts=0),
                PointOutcome("b", "b", "ok", wall_s=2.0),
            ]
        )
        assert report.wall_time_percentiles()["p50"] == 2.0


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
        assert [p.name for p in cache.quarantined_files()] == [
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

    def test_merge_skips_unreadable_entries(self, tmp_path, caplog):
        source = tmp_path / "src"
        source.mkdir()
        engine = CampaignEngine(result_cache=ResultCache(source))
        engine.run([tiny_point()], jobs=1)
        (source / "torn.json").write_text("{", encoding="utf-8")
        destination = ResultCache(tmp_path / "dst")
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            copied, skipped, unreadable, _ = destination.merge_from(source)
        assert "unreadable" in caplog.text
        assert (copied, skipped, unreadable) == (1, 0, 1)

    def test_truncated_trace_column_regenerates_with_warning(
        self, tmp_path, caplog
    ):
        from repro.sim.engine import build_workload_trace
        from repro.traces.store import TraceStore, workload_key

        store = TraceStore(tmp_path)
        build_workload_trace("bfs.urand", BUDGET, trace_store=store)
        key = workload_key("bfs.urand", BUDGET, "medium")
        assert store.contains(key)
        (tmp_path / key / "pc.bin").write_bytes(b"\x00" * 8)
        with caplog.at_level(logging.WARNING, logger="repro.traces"):
            rebuilt = build_workload_trace("bfs.urand", BUDGET, trace_store=store)
        assert "quarantined corrupt trace" in caplog.text
        assert rebuilt.num_memory_accesses >= BUDGET
        assert store.contains(key)  # regenerated entry replaces the corrupt one
        assert key not in [p.name for p in store.quarantined_entries()]

    def test_bitrot_detected_by_digest(self, tmp_path, caplog):
        from repro.sim.engine import build_workload_trace
        from repro.traces.store import TraceStore, workload_key

        store = TraceStore(tmp_path)
        build_workload_trace("bfs.urand", BUDGET, trace_store=store)
        key = workload_key("bfs.urand", BUDGET, "medium")
        column = tmp_path / key / "vaddr.bin"
        blob = bytearray(column.read_bytes())
        blob[3] ^= 0xFF  # same length, different bytes
        column.write_bytes(bytes(blob))
        # A fresh store (a later process) digest-verifies on first load;
        # the instance above would skip the check, having already verified
        # this key once.
        with caplog.at_level(logging.WARNING, logger="repro.traces"):
            assert TraceStore(tmp_path).get(key) is None
        assert "digest mismatch" in caplog.text


# ----------------------------------------------------------------------
# CLI integration: --retries/--timeout-s/--strict/--report
# ----------------------------------------------------------------------
class TestCliFaultFlags:
    def run_cli(self, tmp_path, *extra, schemes=("baseline", "tlp")):
        from repro.cli import main

        return main(
            [
                "sweep",
                "--workloads", "bfs.urand",
                "--schemes", *schemes,
                "--prefetchers", "ipcp",
                "--accesses", str(BUDGET),
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "rc"),
                "--trace-dir", str(tmp_path / "ts"),
                *extra,
            ]
        )

    def test_strict_exits_nonzero_on_quarantine(self, tmp_path, monkeypatch):
        install_faults(monkeypatch, {"match": "bfs.urand/tlp", "mode": "raise"})
        assert self.run_cli(tmp_path, "--strict") == 1

    def test_default_reports_and_exits_zero(self, tmp_path, monkeypatch, capsys):
        install_faults(monkeypatch, {"match": "bfs.urand/tlp", "mode": "raise"})
        assert self.run_cli(tmp_path) == 0
        out = capsys.readouterr().out
        assert "1 points quarantined" in out
        assert "re-run the same command" in out

    def test_report_json_is_written(self, tmp_path, monkeypatch):
        report_path = tmp_path / "report.json"
        assert self.run_cli(tmp_path, "--report", str(report_path)) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["succeeded"] == 2
        assert payload["quarantined"] == 0
        assert "generator_invocations" in payload and "wall_time_s" in payload

    def test_strict_run_succeeds_after_transient_fault(
        self, tmp_path, monkeypatch
    ):
        install_faults(
            monkeypatch,
            {
                "match": "bfs.urand/tlp",
                "mode": "raise",
                "transient": True,
                "max_attempts": 1,
            },
        )
        assert self.run_cli(tmp_path, "--strict", "--retries", "2") == 0
