"""Tests for the command-line interface."""

import dataclasses
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.experiments.spec import FIGURE_IDS


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_is_an_unknown_command(self, capsys):
        # One workload is a sweep: ``repro sweep --workloads W``.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "bfs.urand"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err

    def test_figure_command(self):
        args = build_parser().parse_args(["figure", "fig01"])
        assert args.name == "fig01"
        assert args.jobs is None
        assert not args.quick

    def test_figure_all_with_engine_flags(self):
        args = build_parser().parse_args(
            ["figure", "all", "--jobs", "4", "--quick", "--no-cache"]
        )
        assert args.name == "all"
        assert args.jobs == 4
        assert args.quick and args.no_cache

    def test_sweep_command_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.workloads is None
        assert args.schemes == ["baseline", "tlp"]
        assert not args.multicore

    def test_sweep_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--schemes", "magic"])

    @pytest.mark.parametrize("argv", [
        ["figure", "fig10", "--accesses", "0"],
        ["sweep", "--accesses", "-5"],
        ["figure", "fig01", "--multicore-accesses", "0"],
        ["trace", "build", "--workload", "bfs.urand", "--accesses", "0"],
    ])
    def test_access_budgets_must_be_positive(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["trace", "import", "x.trace", "--max-records", "-5"],
        ["trace", "import", "x.trace", "--max-records", "0"],
        ["figure", "fig01", "--sample-interval", "-3"],
        ["sweep", "--jobs", "-2"],
        ["figure", "all", "--jobs", "0"],
        ["cache", "gc", "--max-mb", "-1"],
        ["trace", "gc", "--max-mb", "-1"],
        ["trace", "gc", "--max-mb", "nan"],
        ["cache", "gc", "--max-mb", "inf"],
    ])
    def test_counts_and_size_caps_are_range_checked(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "must be" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "tlp" in output
        assert "spec.mcf_like" in output

    def test_unknown_figure_returns_error(self, capsys):
        assert main(["figure", "fig99"]) == 1

    def test_figure_table_mapping_complete(self):
        # Every evaluation figure of the paper has a CLI entry.
        for expected in ("fig01", "fig10", "fig13", "fig15", "fig16", "fig17", "table02"):
            assert expected in FIGURE_IDS

    @pytest.mark.parametrize("prefetcher", ["ipcp", "berti"])
    def test_run_prints_the_sweep_numbers(self, capsys, prefetcher):
        """A one-workload ``repro sweep``, ``api.run_sweep`` and
        ``api.simulate_point`` give one point one answer, at the experiment
        config's warm-up fraction; the sweep builds its trace once."""
        from repro import api
        from repro.sim.engine import (
            generator_invocations,
            reset_generator_invocations,
        )

        reset_generator_invocations()
        assert main(["sweep", "--workloads", "bfs.urand", "--schemes", "baseline",
                     "tlp", "--prefetchers", prefetcher, "--accesses", "2000",
                     "--jobs", "1", "--no-cache", "--no-trace-store"]) == 0
        assert generator_invocations() == 1
        printed = re.findall(
            rf"^bfs\.urand/(\S+)/{prefetcher}\s+single_core\s+2000\s+"
            r"([\d.]+)\s+(\d+)\s",
            capsys.readouterr().out, re.MULTILINE,
        )
        results = api.run_sweep(
            api.SweepSpec(single_core=(api.SingleCoreSweep(
                workloads=("bfs.urand",), schemes=("baseline", "tlp"),
                l1d_prefetchers=(prefetcher,),
            ),)),
            config=api.ExperimentConfig(memory_accesses=2000),
            use_result_cache=False,
        )
        expected = []
        for scheme in ("baseline", "tlp"):
            result = results.single_core("bfs.urand", scheme, prefetcher)
            expected.append((scheme, f"{result.ipc:.2f}", str(result.dram_transactions)))
            one_off = api.simulate_point(
                "bfs.urand", scheme, prefetcher, memory_accesses=2000
            )
            assert dataclasses.asdict(one_off) == dataclasses.asdict(result)
        assert printed == expected


class TestFigureCommand:
    def test_figure_runs_through_registry(self, capsys):
        assert main(["figure", "fig01", "--quick", "--no-cache",
                     "--jobs", "2", "--accesses", "900"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "bfs.urand" in output
        assert "jobs=2" in output

    def test_figure_warns_when_spec_pins_the_prefetcher(self, capsys):
        # fig01 pins IPCP (the paper's motivation figure); asking for berti
        # must say so instead of silently printing IPCP numbers.
        assert main(["figure", "fig01", "--quick", "--no-cache",
                     "--accesses", "900", "--prefetchers", "berti"]) == 0
        output = capsys.readouterr().out
        assert "--prefetchers berti" in output
        assert "has no effect" in output

    def test_figure_all_executes_every_registered_experiment(self, capsys):
        # Tiny budgets keep this a smoke test; one engine batch per figure.
        assert main(["figure", "all", "--quick", "--no-cache",
                     "--jobs", "2", "--accesses", "700",
                     "--multicore-accesses", "500"]) == 0
        output = capsys.readouterr().out
        from repro.experiments.spec import registered_experiments

        assert f"figures: {len(registered_experiments())} in" in output
        assert "Figure 1" in output and "Table II" in output


    # table02 simulates nothing: its report still carries its claims.
    @pytest.mark.parametrize("figure", ["fig01", "table02"])
    def test_figure_report_carries_claim_verdicts(self, capsys, tmp_path, figure):
        from repro.experiments.spec import get_experiment

        report_path = tmp_path / "report.json"
        assert main(["figure", figure, "--quick", "--no-cache", "--jobs", "1",
                     "--accesses", "900", "--report", str(report_path)]) == 0
        names = [claim.name for claim in get_experiment(figure).claims]
        printed = re.findall(r"^claim (PASS|FAIL): (.+) \(margin [-+]\d+\.\d+\)$",
                             capsys.readouterr().out, re.MULTILINE)
        assert [name for _, name in printed] == names
        reported = json.loads(report_path.read_text())["claims"]
        assert list(reported) == [figure]
        assert [(row["verdict"], row["name"]) for row in reported[figure]] == printed
        assert all(isinstance(row["margin"], float) for row in reported[figure])


class TestSweepCommand:
    def test_sweep_runs_user_defined_points(self, capsys):
        assert main(["sweep", "--quick", "--no-cache",
                     "--workloads", "bfs.urand", "spec.mcf_like",
                     "--schemes", "baseline", "tlp",
                     "--accesses", "900", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "bfs.urand/tlp/ipcp" in output
        assert "speedup (%)" in output
        assert "sweep: 4 points" in output

    def test_sweep_rows_name_their_budget(self, capsys):
        """A mix's isolated baseline shares its label with the sweep's own
        point at another budget; the accesses column tells the rows apart."""
        assert main(["sweep", "--quick", "--no-cache", "--workloads", "bfs.urand",
                     "--schemes", "baseline", "tlp", "--prefetchers", "ipcp",
                     "--multicore", "--suites", "gap", "--accesses", "900",
                     "--multicore-accesses", "600", "--jobs", "1"]) == 0
        rows = re.findall(
            r"^bfs\.urand/baseline/ipcp\s+(\S+)\s+(\d+)\s",
            capsys.readouterr().out, re.MULTILINE,
        )
        assert sorted(rows) == [("single_core", "600"), ("single_core", "900")]

    def test_sweep_list_prints_points_without_simulating(self, capsys):
        assert main(["sweep", "--quick", "--no-cache", "--list",
                     "--workloads", "bfs.urand", "--schemes", "baseline"]) == 0
        output = capsys.readouterr().out
        assert "1 sweep points" in output
        assert "bfs.urand/baseline/ipcp" in output

    def test_sweep_spec_json(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({
            "single_core": [{
                "workloads": ["spec.sphinx_like"],
                "schemes": ["baseline"],
                "memory_accesses": 800,
            }],
        }))
        assert main(["sweep", "--quick", "--no-cache",
                     "--spec-json", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "spec.sphinx_like/baseline/ipcp" in output

    def test_sweep_rejects_unknown_workload_up_front(self, capsys):
        # A typo is one clean CLI error, not a worker traceback.
        assert main(["sweep", "--quick", "--no-cache",
                     "--workloads", "bfs.uran", "--schemes", "baseline"]) == 2
        output = capsys.readouterr().out
        assert "unknown workloads: bfs.uran" in output

    @pytest.mark.parametrize("axes, named", [
        ({"schemes": ["magic"]}, "unknown scheme 'magic'"),
        ({"workloads": ["bfs.urnd"]}, "unknown workloads: bfs.urnd"),
        ({"l1d_prefetchers": ["stride"]}, "unknown L1D prefetcher 'stride'"),
    ], ids=["scheme", "workload", "prefetcher"])
    def test_spec_json_unknown_names_exit_2_before_simulating(
        self, capsys, tmp_path, monkeypatch, axes, named
    ):
        from repro.sim import engine as engine_module

        def no_simulation(point, **kwargs):
            raise AssertionError(f"simulated {point.label}")

        monkeypatch.setattr(engine_module, "execute_point", no_simulation)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"single_core": [{
            "workloads": ["spec.sphinx_like"], "schemes": ["baseline"], **axes,
        }]}))
        assert main(["sweep", "--quick", "--no-cache", "--jobs", "1",
                     "--spec-json", str(spec_path)]) == 2
        assert named in capsys.readouterr().out

    def test_sweep_bandwidths_imply_multicore(self, capsys):
        # --bandwidths/--suites shape the multi-core block, so passing one
        # enables it instead of being silently ignored.
        assert main(["sweep", "--quick", "--no-cache", "--list",
                     "--workloads", "bfs.urand", "--schemes", "baseline",
                     "--bandwidths", "1.6", "6.4"]) == 0
        output = capsys.readouterr().out
        assert "multi_core" in output

    def test_sweep_imported_suite_without_traces_is_an_error(self, capsys, tmp_path):
        # --suites imported must not silently compile zero mixes.
        assert main(["sweep", "--quick", "--no-cache", "--multicore",
                     "--suites", "imported",
                     "--trace-dir", str(tmp_path / "empty_store")]) == 2
        assert "no imported traces" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["figure", "fig10", "--include-imported"],
        ["sweep", "--include-imported", "--schemes", "baseline"],
        ["sweep", "--multicore", "--suites", "imported"],
    ], ids=["figure_include", "sweep_include", "sweep_suite"])
    def test_missing_imported_workloads_are_one_error(self, capsys, tmp_path, argv):
        # Whichever flag asks for the imported workloads, a missing or an
        # empty trace store stops the command the same way, before any
        # point runs.
        common = [*argv, "--quick", "--no-cache"]
        store = tmp_path / "empty_store"
        assert main([*common, "--trace-dir", str(store)]) == 2
        assert capsys.readouterr().out == (
            f"no imported traces in {store} (use 'repro trace import')\n"
        )
        assert main([*common, "--no-trace-store"]) == 2
        assert capsys.readouterr().out.endswith(
            " requires the trace store (drop --no-trace-store)\n"
        )

    @pytest.mark.parametrize("axes, message", [
        ({"memory_accesses": 0}, "memory_accesses must be an integer >= 1, got 0"),
        ({"memory_accesses": -5}, "memory_accesses must be an integer >= 1, got -5"),
        ({"memory_accesses": True}, "memory_accesses must be an integer >= 1, got True"),
        ({"memory_accesses": 1.5}, "memory_accesses must be an integer >= 1, got 1.5"),
        ({"systems": [5]}, "invalid sweep spec"),
        ({"systems": [{"bogus": 1}]}, "invalid sweep spec"),
    ], ids=["zero_budget", "negative_budget", "bool_budget", "fractional_budget",
            "scalar_system", "bogus_system"])
    def test_sweep_rejects_invalid_spec_values(
        self, capsys, tmp_path, monkeypatch, axes, message
    ):
        from repro.sim import engine as engine_module

        def no_point_may_run(point, **kwargs):
            raise AssertionError(f"{point.label} ran")

        monkeypatch.setattr(engine_module, "execute_point", no_point_may_run)
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"single_core": [{
            "workloads": ["spec.sphinx_like"], "schemes": ["baseline"], **axes,
        }]}))
        assert main(["sweep", "--quick", "--no-cache", "--jobs", "1",
                     "--spec-json", str(spec_path)]) == 2
        assert message in capsys.readouterr().out

    def test_sweep_invalid_spec_json_is_an_error(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"single_core": [{"scheme": ["tlp"]}]}))
        assert main(["sweep", "--spec-json", str(spec_path)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().out


class TestRunReport:
    def run_sweep(self, tmp_path, *extra):
        return main([
            "sweep", "--workloads", "bfs.urand", "--schemes", "baseline", "tlp",
            "--prefetchers", "ipcp", "--accesses", "600", "--jobs", "1",
            "--cache-dir", str(tmp_path / "rc"),
            "--trace-dir", str(tmp_path / "ts"),
            *extra,
        ])

    def test_report_json_is_written(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert self.run_sweep(tmp_path, "--report", str(report_path)) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["succeeded"] == 2
        assert payload["cached"] == 0
        assert "generator_invocations" in payload and "wall_time_s" in payload

    def test_failed_point_exits_nonzero_naming_it(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sim import engine as engine_module

        execute_point = engine_module.execute_point

        def failing_tlp(point, **kwargs):
            if point.scheme == "tlp":
                raise ValueError("injected")
            return execute_point(point, **kwargs)

        monkeypatch.setattr(engine_module, "execute_point", failing_tlp)
        assert self.run_sweep(tmp_path) == 1
        output = capsys.readouterr().out
        assert ("point bfs.urand/tlp/ipcp (single_core, 600 accesses) "
                "failed: injected") in output
        assert "re-run the same command" in output
