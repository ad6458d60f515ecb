"""Tests for the telemetry layer: tracer, timeline, analysis, CLI.

The overriding invariant is that telemetry is a pure side channel: with it
off nothing is recorded and nothing allocates on the hot path; with it on
(including per-interval sim sampling) every simulated metric stays
bit-identical to a run without it.
"""

import dataclasses
import json
import logging

import pytest

from repro.cli import main
from repro.obs import analyze, profile, sample, timeline, tracer
from repro.obs.logs import get_logger, resolve_level
from repro.obs.progress import ProgressLine, campaign_progress, format_eta
from repro.sim.engine import (
    CampaignEngine,
    CampaignReport,
    PointOutcome,
    single_core_point,
)
from repro.sim.result_cache import ResultCache

#: Tiny trace budget so each simulated point costs ~10ms.
BUDGET = 800


def tiny_point(workload="bfs.urand", scheme="baseline", budget=BUDGET):
    return single_core_point(
        workload, scheme, "ipcp", memory_accesses=budget, warmup_fraction=0.25
    )


@pytest.fixture(autouse=True)
def _isolated_telemetry(monkeypatch):
    """Keep tracer/sampling state from leaking across tests."""
    monkeypatch.delenv(tracer.TELEMETRY_ENV, raising=False)
    monkeypatch.delenv(profile.PROFILE_ENV, raising=False)
    monkeypatch.delenv(sample.SAMPLE_ENV, raising=False)
    tracer.disable()
    yield
    tracer.disable()


def folded(run_dir):
    """Per-span-name counts and cache hits/misses/puts of a recorded run."""
    summary = analyze.summarize(tracer.load_run(run_dir))
    counts = {name: total["count"] for name, total in summary["spans"].items()}
    cache = {k: summary["cache"][k] for k in ("hits", "misses", "puts")}
    return counts, cache


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_is_a_true_noop(self, tmp_path):
        assert not tracer.enabled()
        # The disabled span is one shared object -- no per-call allocation.
        assert tracer.span("simulate") is tracer.span("trace_load")
        with tracer.span("simulate", point="x"):
            pass
        tracer.event("cache_hit", point="x")
        tracer.flush()
        assert list(tmp_path.iterdir()) == []

    def test_span_event_roundtrip(self, tmp_path):
        tracer.configure(tmp_path, proc="t1")
        with tracer.span("simulate", point="p"):
            pass
        tracer.event("cache_hit", point="p")
        tracer.shutdown()
        records = tracer.load_run(tmp_path)
        # Spans and events are the only record types a sink holds.
        assert sorted(record["type"] for record in records) == ["event", "span"]
        span = next(r for r in records if r["type"] == "span")
        assert span["name"] == "simulate"
        assert span["attrs"] == {"point": "p"}
        assert span["dur"] >= 0.0

    def test_shutdown_is_idempotent(self, tmp_path):
        tracer.configure(tmp_path, proc="t1")
        tracer.event("cache_hit", point="p")
        tracer.shutdown()
        tracer.shutdown()
        assert len(tracer.load_run(tmp_path)) == 1

    def test_merge_run_orders_across_sinks(self, tmp_path):
        (tmp_path / "events-b.jsonl").write_text(
            json.dumps({"type": "event", "name": "late", "ts": 2.0}) + "\n"
        )
        (tmp_path / "events-a.jsonl").write_text(
            json.dumps({"type": "event", "name": "early", "ts": 1.0}) + "\n"
        )
        merged = tracer.merge_run(tmp_path)
        names = [r["name"] for r in tracer.read_events(merged)]
        assert names == ["early", "late"]

    def test_read_events_skips_torn_lines(self, tmp_path):
        sink = tmp_path / "events-x.jsonl"
        sink.write_text(
            json.dumps({"type": "event", "name": "ok", "ts": 1.0})
            + "\n{\"type\": \"ev"
        )
        assert [r["name"] for r in tracer.read_events(sink)] == ["ok"]


# ----------------------------------------------------------------------
# Folding counts and durations from the records on read
# ----------------------------------------------------------------------
class TestFoldOnRead:
    def test_parallel_run_folds_to_serial_totals(self, tmp_path, monkeypatch):
        """Sinks written by pool workers fold to the totals of one process.

        Each point has its own workload, so the serial engine's trace memo
        loads exactly the traces the workers load.
        """
        points = [
            tiny_point(),
            tiny_point(workload="spec.mcf_like", scheme="tlp"),
            tiny_point(workload="pr.urand", scheme="hermes"),
        ]

        def record(jobs):
            tele = tmp_path / f"tele{jobs}"
            monkeypatch.setenv(tracer.TELEMETRY_ENV, str(tele))
            tracer.configure(tele, proc="supervisor")
            cache = ResultCache(tmp_path / f"cache{jobs}")
            for _ in ("cold", "warm"):
                CampaignEngine(result_cache=cache).run(points, jobs=jobs)
            tracer.disable()
            return tele

        serial, parallel = record(1), record(2)
        assert folded(parallel) == folded(serial)
        counts, cache = folded(serial)
        assert counts == {"trace_load": 3, "simulate": 3, "cache_put": 3}
        assert cache == {"hits": 3, "misses": 3, "puts": 3}
        # The parallel run's simulate spans really came from the workers.
        assert {
            r["proc"] for r in tracer.load_run(parallel)
            if r["type"] == "span" and r["name"] == "simulate"
        }.isdisjoint({"supervisor"})


# ----------------------------------------------------------------------
# Engine integration: spans recorded, results untouched
# ----------------------------------------------------------------------
class TestEngineTelemetry:
    def test_serial_run_records_spans_and_counters(self, tmp_path):
        tracer.configure(tmp_path / "tele", proc="t1")
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "cache"))
        engine.run([tiny_point()], jobs=1)
        tracer.shutdown()
        records = tracer.load_run(tmp_path / "tele")
        spans = {r["name"] for r in records if r["type"] == "span"}
        assert {"trace_load", "simulate", "cache_put"} <= spans
        events = {r["name"] for r in records if r["type"] == "event"}
        assert "cache_miss" in events
        counts, cache = folded(tmp_path / "tele")
        assert counts["simulate"] == 1
        assert cache == {"hits": 0, "misses": 1, "puts": 1}

    def test_cache_hit_recorded_on_warm_run(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "cache"))
        engine.run([tiny_point()], jobs=1)
        tracer.configure(tmp_path / "tele", proc="t1")
        warm = CampaignEngine(result_cache=ResultCache(tmp_path / "cache"))
        warm.run([tiny_point()], jobs=1)
        tracer.flush()
        assert folded(tmp_path / "tele")[1] == {"hits": 1, "misses": 0, "puts": 0}

    def test_simulate_span_records_effective_core(self, tmp_path):
        """A run is all kernel or all scalar, so every ``simulate`` span,
        single-core or mix, carries the core the engine was asked for."""
        from repro.sim.engine import multi_core_point

        single = tiny_point()
        mix = multi_core_point(
            "mix", ["bfs.urand", "spec.mcf_like"], "baseline", "ipcp",
            memory_accesses=300, warmup_fraction=0.25,
        )
        tracer.configure(tmp_path / "tele", proc="t1")
        for core in ("batch", "scalar"):
            CampaignEngine(result_cache=None, sim_core=core).run([single, mix], jobs=1)
        tracer.flush()
        cores = [
            (r["attrs"]["point"], r["attrs"]["core"])
            for r in tracer.load_run(tmp_path / "tele")
            if r["type"] == "span" and r["name"] == "simulate"
        ]
        assert sorted(cores) == sorted(
            (point.label, core)
            for point in (single, mix) for core in ("batch", "scalar")
        )

    def test_simulate_span_names_kind_and_budget(self, tmp_path):
        """Two points may share a label (a sweep's point and a mix's
        isolated baseline at the multi-core budget); the span's ``kind``
        and ``accesses`` attributes tell them apart."""
        from repro.sim.engine import multi_core_point

        points = [
            tiny_point(),
            tiny_point(budget=BUDGET // 2),
            multi_core_point(
                "mix", ["bfs.urand", "spec.mcf_like"], "baseline", "ipcp",
                memory_accesses=300, warmup_fraction=0.25,
            ),
        ]
        tracer.configure(tmp_path / "tele", proc="t1")
        CampaignEngine(result_cache=None).run(points, jobs=1)
        tracer.flush()
        spans = [
            (r["attrs"]["point"], r["attrs"]["kind"], r["attrs"]["accesses"])
            for r in tracer.load_run(tmp_path / "tele")
            if r["type"] == "span" and r["name"] == "simulate"
        ]
        assert sorted(spans) == sorted(
            (point.label, point.kind, point.memory_accesses) for point in points
        )
        assert points[0].label == points[1].label

    def test_results_bit_identical_with_telemetry(self, tmp_path):
        plain = CampaignEngine(result_cache=None).run([tiny_point()], jobs=1)
        tracer.configure(tmp_path / "tele", proc="t1")
        traced = CampaignEngine(result_cache=None).run([tiny_point()], jobs=1)
        key = tiny_point().key()
        assert dataclasses.asdict(plain[key]) == dataclasses.asdict(
            traced[key]
        )


# ----------------------------------------------------------------------
# Sim-interval sampling: snapshots out, metrics untouched
# ----------------------------------------------------------------------
class TestSimSampling:
    @pytest.mark.parametrize("core", ["scalar", "batch"])
    def test_sampling_is_bit_identical_and_emits_snapshots(
        self, tmp_path, monkeypatch, core
    ):
        from repro.common.config import cascade_lake_single_core
        from repro.sim.scenarios import build_scenario
        from repro.sim.single_core import run_single_core
        from repro.workloads.spec_like import spec_like_trace

        trace = spec_like_trace("mcf_like", num_memory_accesses=2000)

        def run(sim_core, telemetry_dir=None):
            config = dataclasses.replace(
                cascade_lake_single_core(), sim_core=sim_core
            )
            if telemetry_dir is not None:
                tracer.configure(telemetry_dir, proc="t1")
            result = run_single_core(
                trace, build_scenario("tlp"), config=config,
            )
            if telemetry_dir is None:
                return result, []
            tracer.disable()  # flushes the sink
            return result, [
                r for r in tracer.load_run(telemetry_dir)
                if r["type"] == "event" and r["name"] == "sim_sample"
            ]

        plain, _ = run(core)
        monkeypatch.setenv(sample.SAMPLE_ENV, "500")
        sampled, snapshots = run(core, tmp_path / "sampled")

        assert dataclasses.asdict(sampled) == dataclasses.asdict(plain)
        assert len(snapshots) >= 2
        for record in snapshots:
            attrs = record["attrs"]
            assert attrs["core"] == core
            assert attrs["ipc"] > 0
            assert "l1d_mpki" in attrs and "llc_mpki" in attrs
            assert "predictor_accuracy" in attrs  # TLP trains perceptrons
        accesses = [r["attrs"]["accesses"] for r in snapshots]
        assert accesses == sorted(accesses)

    @pytest.mark.parametrize("core", ["batch", "scalar"])
    def test_mix_sampling_is_bit_identical_and_samples_every_core(
        self, tmp_path, monkeypatch, core
    ):
        from repro.common.config import cascade_lake_multi_core
        from repro.sim.engine import build_workload_trace
        from repro.sim.multi_core import run_multicore_mix
        from repro.sim.scenarios import build_scenario

        workloads = ("bfs.urand", "spec.mcf_like", "spec.lbm_like", "cc.road")
        traces = [build_workload_trace(w, 2000, "tiny") for w in workloads]
        config = dataclasses.replace(cascade_lake_multi_core(), sim_core=core)

        def run():
            return dataclasses.asdict(run_multicore_mix(
                traces, build_scenario("tlp"), config=config, mix_name="m",
            ))

        plain = run()
        monkeypatch.setenv(sample.SAMPLE_ENV, "500")
        tracer.configure(tmp_path, proc="t1")
        sampled = run()
        tracer.disable()
        assert sampled == plain
        samples = [
            r["attrs"] for r in tracer.load_run(tmp_path)
            if r["type"] == "event" and r["name"] == "sim_sample"
        ]
        for core_id, trace in enumerate(traces):
            mine = [a for a in samples if a["core_id"] == core_id]
            assert len(mine) >= 2
            assert {(a["mix"], a["trace"], a["core"]) for a in mine} == {
                ("m", trace.name, core)
            }
            accesses = [a["accesses"] for a in mine]
            assert accesses == sorted(accesses)
            # The closing snapshot reports the core's end-of-run IPC, and
            # its LLC misses are this core's, not the shared LLC's.
            assert mine[-1]["ipc"] == pytest.approx(plain["ipcs"][core_id])
            assert mine[-1]["llc_mpki"] <= mine[-1]["l2c_mpki"]

    def test_sampling_requires_telemetry(self, monkeypatch):
        monkeypatch.setenv(sample.SAMPLE_ENV, "500")
        assert sample.sample_interval() is None  # tracer off -> no sampling


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
def _synthetic_run():
    """A two-process run: spans, cache hit/misses, a sample."""
    records = [
        {"type": "span", "name": "trace_load", "ts": 10.0, "dur": 0.5,
         "pid": 1, "proc": "w1", "attrs": {"workload": "bfs.urand"}},
        {"type": "span", "name": "simulate", "ts": 10.5, "dur": 2.0,
         "pid": 1, "proc": "w1", "attrs": {"point": "a"}},
        {"type": "span", "name": "simulate", "ts": 10.2, "dur": 1.0,
         "pid": 2, "proc": "w2", "attrs": {"point": "b"}},
        {"type": "span", "name": "cache_put", "ts": 12.5, "dur": 0.1,
         "pid": 1, "proc": "w1", "attrs": {"point": "a"}},
        {"type": "event", "name": "cache_hit", "ts": 10.1,
         "pid": 2, "proc": "w2", "attrs": {"point": "c"}},
        *(
            {"type": "event", "name": "cache_miss", "ts": 10.05,
             "pid": 2, "proc": "w2", "attrs": {"point": point}}
            for point in ("a", "b", "d")
        ),
        {"type": "event", "name": "sim_sample", "ts": 11.0,
         "pid": 1, "proc": "w1",
         "attrs": {"ipc": 0.8, "l1d_mpki": 50.0, "l2c_mpki": 40.0,
                   "llc_mpki": 30.0, "accesses": 1000}},
    ]
    return sorted(records, key=lambda r: r["ts"])


class TestChromeExport:
    def test_conforms_to_trace_event_schema(self):
        trace = timeline.chrome_trace(_synthetic_run())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        for e in events:
            assert "name" in e and "pid" in e and "ph" in e
            if e["ph"] == "M":
                continue  # metadata events carry no timestamp
            assert isinstance(e["ts"], int) and e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 1  # microseconds, never zero-width
        # One process_name metadata record per recording process.
        named = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in named} == {"w1", "w2"}
        # The sim_sample event became counter tracks.
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "ipc" in counters and "mpki" in counters

    def test_export_writes_loadable_json(self, tmp_path):
        run = tmp_path / "run.jsonl"
        with run.open("w") as fh:
            for record in _synthetic_run():
                fh.write(json.dumps(record) + "\n")
        written = timeline.export_chrome(run, tmp_path / "trace.json")
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"] and trace == written


# ----------------------------------------------------------------------
# Analysis summaries and the obs CLI
# ----------------------------------------------------------------------
class TestAnalyze:
    def test_summary_fields(self):
        summary = analyze.summarize(_synthetic_run())
        assert summary["wall_s"] == pytest.approx(2.6)
        assert set(summary["processes"]) == {"w1", "w2"}
        assert summary["processes"]["w1"]["busy_s"] == pytest.approx(2.6)
        assert summary["stragglers"]["points"] == 2
        assert summary["stragglers"]["max_s"] == pytest.approx(2.0)
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["misses"] == 3
        assert summary["cache"]["hit_rate"] == pytest.approx(0.25)
        assert summary["samples"] == 1

    def test_span_sums_equal_summed_durations(self):
        records = _synthetic_run()
        for name, total in analyze.summarize(records)["spans"].items():
            durs = [r["dur"] for r in records
                    if r["type"] == "span" and r["name"] == name]
            assert total == {"count": len(durs), "sum_s": sum(durs),
                             "max_s": max(durs)}

    def test_puts_counted_from_spans_without_metrics(self):
        """Each engine result-cache write is one ``cache_put`` span."""
        records = [
            {"type": "span", "name": "cache_put", "ts": 1.0 + index,
             "dur": 0.1, "pid": 1, "proc": "w1", "attrs": {"point": str(index)}}
            for index in range(3)
        ]
        assert analyze.summarize(records)["cache"]["puts"] == 3

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert analyze.percentile(values, 50) == pytest.approx(2.5)
        assert analyze.percentile(values, 100) == pytest.approx(4.0)

    def test_empty_run(self):
        summary = analyze.summarize([])
        assert summary["wall_s"] == 0.0
        assert summary["processes"] == {}


class TestObsCli:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        sink = tmp_path / "events-w.jsonl"
        with sink.open("w") as fh:
            for record in _synthetic_run():
                fh.write(json.dumps(record) + "\n")
        return tmp_path

    def test_report_prints_summary(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "overall utilization" in out
        assert "p50" in out and "p90" in out and "p99" in out
        assert "hit rate" in out

    def test_report_json(self, run_dir, capsys):
        assert main(["obs", "report", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hit_rate"] == pytest.approx(0.25)
        assert payload["cache"]["puts"] == 1
        assert payload["spans"]["cache_put"]["count"] == 1

    def test_export_chrome(self, run_dir, capsys, tmp_path):
        out_file = tmp_path / "out" / "trace.json"
        out_file.parent.mkdir()
        assert main(["obs", "export-chrome", str(run_dir),
                     "-o", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["traceEvents"]

    def test_export_chrome_writes_what_timeline_writes(self, run_dir, capsys):
        assert main(["obs", "export-chrome", str(run_dir)]) == 0
        printed = capsys.readouterr().out
        expected_file = run_dir / "expected" / "trace.json"
        expected = timeline.export_chrome(run_dir, expected_file)
        assert (run_dir / "trace.json").read_text() == expected_file.read_text()
        assert f"to {run_dir / 'trace.json'} ({len(expected['traceEvents'])} events;" in printed

    def test_report_on_missing_run(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope")]) == 2


# ----------------------------------------------------------------------
# Progress rendering
# ----------------------------------------------------------------------
class TestProgress:
    def test_format_eta(self):
        assert format_eta(None) == "--"
        assert format_eta(42) == "42s"
        assert format_eta(90) == "1m30s"
        assert format_eta(3700) == "1h01m"

    def test_progress_line_writes_plain_lines_off_tty(self):
        import io

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        line.update("1/4 points")
        line.update("2/4 points")
        line.finish("4/4 points")
        emitted = stream.getvalue().splitlines()
        assert emitted == ["1/4 points", "2/4 points", "4/4 points"]

    def test_progress_line_disabled_writes_nothing(self):
        import io

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=False)
        line.update("anything", force=True)
        line.finish()
        assert stream.getvalue() == ""

    def test_engine_invokes_progress_per_settled_point(self, tmp_path):
        engine = CampaignEngine(result_cache=ResultCache(tmp_path / "rc"))
        points = [tiny_point(), tiny_point(scheme="tlp"),
                  tiny_point(scheme="hermes"), tiny_point(workload="spec.mcf_like")]
        calls: list[tuple[int, int]] = []
        engine.run(
            points, jobs=1,
            progress=lambda report, total: calls.append(
                (len(report.outcomes), total)
            ),
        )
        assert calls == [(i + 1, len(points)) for i in range(len(points))]
        # Cached points notify too (the second run is all cache hits).
        calls.clear()
        engine.run(
            points, jobs=1,
            progress=lambda report, total: calls.append(
                (len(report.outcomes), total)
            ),
        )
        assert len(calls) == len(points)

    def test_campaign_progress_renders_counts_and_eta(self):
        import io

        stream = io.StringIO()
        line = ProgressLine(stream=stream, enabled=True, min_interval_s=0.0)
        callback = campaign_progress(line, "sweep")
        report = CampaignReport(jobs=2)
        report.outcomes.append(PointOutcome("a", "a", "ok", wall_s=0.5))
        callback(report, 4)
        report.outcomes.append(PointOutcome("b", "b", "cached"))
        callback(report, 4)
        output = stream.getvalue()
        assert "sweep: 1/4 points" in output
        assert "1 ok" in output
        assert "1 cached" in output
        assert "eta" in output

    def test_progress_flag_parses_on_run_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["sweep"]).progress is None
        assert parser.parse_args(["figure", "fig01", "--no-progress"]).progress is False
        assert parser.parse_args(["sweep", "--progress"]).progress is True


# ----------------------------------------------------------------------
# Logging satellite
# ----------------------------------------------------------------------
class TestLogging:
    def test_get_logger_namespaces_under_repro(self):
        assert get_logger("cache").name == "repro.cache"
        assert get_logger("repro.traces").name == "repro.traces"

    def test_resolve_level_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        assert resolve_level() == logging.DEBUG
        assert resolve_level("error") == logging.ERROR

    def test_cli_log_level_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--log-level", "debug", "figure", "fig01"]
        )
        assert args.log_level == "debug"


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestTelemetryFlags:
    def test_telemetry_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["figure", "fig01", "--telemetry", "tele",
             "--profile", "cprofile", "--sample-interval", "1000"]
        )
        assert args.telemetry == "tele"
        assert args.profile == "cprofile"
        assert args.sample_interval == 1000

    def test_bare_telemetry_means_default_dir(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure", "fig01", "--telemetry"])
        assert args.telemetry == ""

    def test_obs_subcommands_parse(self):
        from repro.cli import build_parser

        for argv in (["obs", "report", "d"],
                     ["obs", "report", "d", "--json"],
                     ["obs", "export-chrome", "d", "-o", "t.json"],
                     ["obs", "hotspots", "d", "--top", "5"]):
            args = build_parser().parse_args(argv)
            assert args.command == "obs"
