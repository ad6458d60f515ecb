"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "bfs.urand"
        assert "tlp" in args.schemes

    def test_run_command_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--schemes", "magic"])

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
            assert expected in FIGURES

    def test_run_command_executes_small_simulation(self, capsys):
        assert main(["run", "--workload", "spec.sphinx_like", "--schemes", "baseline",
                     "--accesses", "1500"]) == 0
        output = capsys.readouterr().out
        assert "ipc=" in output


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

    def test_sweep_invalid_spec_json_is_an_error(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"single_core": [{"scheme": ["tlp"]}]}))
        assert main(["sweep", "--spec-json", str(spec_path)]) == 2
        assert "invalid sweep spec" in capsys.readouterr().out


class TestCampaignCommand:
    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.command == "campaign"
        assert args.jobs is None
        assert not args.no_cache
        assert not args.list

    def test_campaign_list_prints_points_without_simulating(self, capsys, tmp_path):
        assert main([
            "campaign", "--list", "--schemes", "tlp", "--prefetchers", "ipcp",
            "--accesses", "1000", "--cache-dir", str(tmp_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "campaign points" in output
        assert "bfs.urand/tlp/ipcp" in output
        assert "missing" in output
        # Listing must not simulate anything (no cache entries created).
        assert list(tmp_path.glob("*.json")) == []

    def test_campaign_simulates_then_lists_cached(self, capsys, tmp_path):
        common = ["--schemes", "tlp", "--prefetchers", "ipcp",
                  "--accesses", "600", "--cache-dir", str(tmp_path), "--jobs", "1"]
        assert main(["campaign"] + common) == 0
        output = capsys.readouterr().out
        assert "simulated" in output
        assert "geomean speedup" in output
        assert main(["campaign", "--list"] + common) == 0
        output = capsys.readouterr().out
        assert "missing" not in output
        assert "cached" in output


class TestCacheMerge:
    def test_merge_combines_shard_caches_with_per_source_summary(
        self, capsys, tmp_path
    ):
        shard_a = tmp_path / "shard0"
        shard_b = tmp_path / "shard1"
        merged = tmp_path / "merged"
        common = ["--prefetchers", "ipcp", "--accesses", "600", "--jobs", "1",
                  "--no-trace-store"]
        # Disjoint schemes; both caches also hold the shared baseline points.
        assert main(["campaign", "--schemes", "tlp",
                     "--cache-dir", str(shard_a)] + common) == 0
        assert main(["campaign", "--schemes", "hermes",
                     "--cache-dir", str(shard_b)] + common) == 0
        capsys.readouterr()

        assert main(["cache", "--dir", str(merged), "merge",
                     str(shard_a), str(shard_b)]) == 0
        output = capsys.readouterr().out
        # One summary line per source, plus the combined total.
        assert f"{shard_a}:" in output
        assert f"{shard_b}:" in output
        assert "merged" in output
        expected = ({p.name for p in shard_a.glob("*.json")}
                    | {p.name for p in shard_b.glob("*.json")})
        assert expected
        assert {p.name for p in merged.glob("*.json")} == expected

        # Merging a source again copies nothing (duplicates are skipped).
        assert main(["cache", "--dir", str(merged), "merge",
                     str(shard_a)]) == 0
        output = capsys.readouterr().out
        assert "0 copied" in output

        # The merged cache serves the campaign over both schemes.
        assert main(["campaign", "--list", "--schemes", "tlp", "hermes",
                     "--cache-dir", str(merged)] + common) == 0
        assert "missing" not in capsys.readouterr().out

    def test_merge_missing_source_is_an_error(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path / "dst"), "merge",
                     str(tmp_path / "nope")]) == 1
