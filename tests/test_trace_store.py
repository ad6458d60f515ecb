"""Trace store subsystem tests.

Pins the tentpole guarantees of the persistent memory-mapped trace store:

* a saved trace memory-maps back with zero-copy columns and simulating it
  yields bit-identical metrics to the in-memory build;
* headers are versioned and endianness-tagged, and incompatible entries are
  rejected instead of mis-decoded;
* ChampSim-style text traces (plain and gzipped) import into the store as
  ``imported.<name>`` entries, whose listing is the imported-workload
  registry, and become first-class catalog workloads runnable through the
  campaign engine;
* the catalog/engine ``store=`` fast path serves store hits without running
  a generator (asserted via the generator-invocation counter);
* the ``repro trace`` CLI subcommands work end to end;
* the per-process graph memo is a bounded LRU.

The listing, size, gc and quarantine rules it shares with the result cache
are tested in ``tests/test_entry_store.py`` (run here by
:class:`TestTraceStoreGc`).
"""

import dataclasses
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import api
from repro.experiments.common import CampaignCache, ExperimentConfig
from repro.sim.engine import (
    CampaignEngine,
    build_workload_trace,
    generator_invocations,
    reset_generator_invocations,
)
from repro.sim.result_cache import ResultCache
from repro.sim.scenarios import build_scenario
from repro.sim.single_core import run_single_core
from repro.traces.ingest import (
    TraceParseError,
    file_content_key,
    import_champsim_trace,
    parse_champsim_lines,
    read_champsim_trace,
)
from repro.traces.store import (
    TRACE_FORMAT_VERSION,
    TraceStore,
    TraceStoreError,
    load_trace,
    read_meta,
    save_trace,
    workload_key,
)
from repro.traces.trace import KIND_LOAD, KIND_NON_MEM, KIND_STORE, Trace
from repro.workloads.spec_like import spec_like_trace
from test_entry_store import EntryStoreContract

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "fixtures"
CHAMPSIM_FIXTURE = FIXTURES / "champsim_small.trace"
CHAMPSIM_FIXTURE_GZ = FIXTURES / "champsim_small.trace.gz"


def _is_memory_mapped(array) -> bool:
    """True when ``array`` is (a zero-copy view of) a ``numpy.memmap``."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


# ----------------------------------------------------------------------
# Round trip: save -> mmap -> identical columns and metrics
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_columns_survive_round_trip(self, tmp_path):
        trace = spec_like_trace("mcf_like", num_memory_accesses=800)
        save_trace(trace, tmp_path / "entry")
        loaded = load_trace(tmp_path / "entry")
        for original, mapped in zip(trace.columns(), loaded.columns()):
            assert np.array_equal(original, mapped)
        assert loaded.name == trace.name
        assert loaded.metadata["pattern"] == "pointer_chase"

    def test_loaded_columns_are_memory_mapped(self, tmp_path):
        trace = spec_like_trace("lbm_like", num_memory_accesses=400)
        save_trace(trace, tmp_path / "entry")
        loaded = load_trace(tmp_path / "entry")
        for column in loaded.columns():
            assert _is_memory_mapped(column)
        # Views stay zero-copy on top of the maps.
        warmup, measured = loaded.split(0.25)
        assert np.shares_memory(measured.columns()[0], loaded.columns()[0])
        assert np.shares_memory(warmup.columns()[0], loaded.columns()[0])

    def test_simulating_stored_trace_is_bit_identical(self, tmp_path):
        trace = build_workload_trace("bfs.urand", 2000, "tiny")
        save_trace(trace, tmp_path / "entry")
        stored = load_trace(tmp_path / "entry")
        in_memory = run_single_core(
            trace, build_scenario("tlp", l1d_prefetcher="ipcp"),
            warmup_fraction=0.25,
        )
        mapped = run_single_core(
            stored, build_scenario("tlp", l1d_prefetcher="ipcp"),
            warmup_fraction=0.25,
        )
        assert dataclasses.asdict(in_memory) == dataclasses.asdict(mapped)

    def test_store_get_put_contains_remove(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = spec_like_trace("sphinx_like", num_memory_accesses=300)
        key = workload_key("spec.sphinx_like", 300)
        assert store.get(key) is None
        store.put(key, trace)
        assert key in store
        assert store.keys() == [key]
        assert store.entry_size_bytes(key) > 0
        loaded = store.get(key)
        assert np.array_equal(loaded.columns()[1], trace.columns()[1])
        assert store.remove(key)
        assert store.get(key) is None

    def test_empty_trace_round_trips(self, tmp_path):
        empty = Trace("empty")
        save_trace(empty, tmp_path / "entry")
        loaded = load_trace(tmp_path / "entry")
        assert len(loaded) == 0

    def test_losing_the_replace_race_is_success(self, tmp_path, monkeypatch):
        """A concurrent writer renaming an identical entry into place
        between save_trace's rmtree and os.replace must not crash the
        loser (content-hash keys make the entries byte-identical)."""
        import shutil

        from repro.traces import store as store_module

        trace = spec_like_trace("lbm_like", num_memory_accesses=100)
        entry = tmp_path / "entry"
        save_trace(trace, entry)

        # Skip only the destination rmtree, so the existing entry survives
        # and os.replace hits a non-empty directory -- the race window made
        # permanent; the loser's temp-dir cleanup still runs.
        real_rmtree = shutil.rmtree

        def selective_rmtree(path, *args, **kwargs):
            if Path(path) == entry:
                return
            return real_rmtree(path, *args, **kwargs)

        monkeypatch.setattr(store_module.shutil, "rmtree", selective_rmtree)
        save_trace(trace, entry)  # must not raise
        monkeypatch.undo()
        loaded = load_trace(entry)
        assert np.array_equal(loaded.columns()[1], trace.columns()[1])
        # The loser's temp directory was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["entry"]


# ----------------------------------------------------------------------
# Header validation: version / endianness / truncation
# ----------------------------------------------------------------------
class TestHeaderValidation:
    def _entry(self, tmp_path):
        trace = spec_like_trace("lbm_like", num_memory_accesses=100)
        entry = tmp_path / "entry"
        save_trace(trace, entry)
        return entry

    def _rewrite_meta(self, entry, **overrides):
        meta_path = entry / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta.update(overrides)
        meta_path.write_text(json.dumps(meta))

    def test_version_mismatch_rejected(self, tmp_path):
        entry = self._entry(tmp_path)
        self._rewrite_meta(entry, format_version=TRACE_FORMAT_VERSION + 1)
        with pytest.raises(TraceStoreError, match="format version"):
            load_trace(entry)

    def test_big_endian_entry_rejected(self, tmp_path):
        entry = self._entry(tmp_path)
        self._rewrite_meta(entry, endianness="big")
        with pytest.raises(TraceStoreError, match="endian"):
            read_meta(entry)

    def test_foreign_column_dtype_rejected(self, tmp_path):
        entry = self._entry(tmp_path)
        meta = json.loads((entry / "meta.json").read_text())
        meta["columns"]["pc"]["dtype"] = ">i8"
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(TraceStoreError, match="dtype"):
            load_trace(entry)

    def test_truncated_column_rejected(self, tmp_path):
        entry = self._entry(tmp_path)
        payload = (entry / "vaddr.bin").read_bytes()
        (entry / "vaddr.bin").write_bytes(payload[:-8])
        with pytest.raises(TraceStoreError, match="bytes"):
            load_trace(entry)

    def test_store_treats_bad_entries_as_misses(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace = spec_like_trace("lbm_like", num_memory_accesses=100)
        store.put("k1", trace)
        self._rewrite_meta(store.path("k1"), format_version=99)
        assert store.get("k1") is None
        assert store.misses == 1


# ----------------------------------------------------------------------
# Memory-access-budget truncation (imported traces)
# ----------------------------------------------------------------------
class TestMemoryTruncation:
    def test_truncates_after_budget_th_memory_access(self):
        trace = spec_like_trace("gcc_like", num_memory_accesses=200)
        view = trace.truncated_to_memory_accesses(50)
        assert view.num_memory_accesses == 50
        _, _, kind = view.columns()
        memory_positions = np.flatnonzero(kind != KIND_NON_MEM)
        # The view ends right at the 50th memory record: no trailing compute.
        assert memory_positions[-1] == len(kind) - 1
        assert np.shares_memory(view.columns()[0], trace.columns()[0])

    def test_budget_larger_than_trace_returns_whole_trace(self):
        trace = spec_like_trace("gcc_like", num_memory_accesses=60)
        view = trace.truncated_to_memory_accesses(10_000)
        assert len(view) == len(trace)

    def test_zero_budget_and_negative(self):
        trace = spec_like_trace("gcc_like", num_memory_accesses=60)
        assert len(trace.truncated_to_memory_accesses(0)) == 0
        with pytest.raises(ValueError):
            trace.truncated_to_memory_accesses(-1)


# ----------------------------------------------------------------------
# ChampSim-style ingestion
# ----------------------------------------------------------------------
class TestChampsimIngestion:
    def test_parse_kinds_comments_and_bases(self):
        records = list(parse_champsim_lines([
            "# comment",
            "",
            "0x400000 0x7f0000000000 R",
            "4194308 139637976727616 STORE",
            "0x400008 0x7f0000000080   # trailing comment, kind defaults to load",
        ]))
        assert records == [
            (0x400000, 0x7F0000000000, KIND_LOAD),
            (4194308, 139637976727616, KIND_STORE),
            (0x400008, 0x7F0000000080, KIND_LOAD),
        ]

    @pytest.mark.parametrize("bad_line", [
        "0x400000",                      # too few fields
        "0x400000 0x1 0x2 0x3",          # too many fields
        "xyz 0x1 R",                     # bad integer
        "0x400000 0x1 Q",                # unknown kind
    ])
    def test_parse_errors(self, bad_line):
        with pytest.raises(TraceParseError):
            list(parse_champsim_lines([bad_line]))

    def test_fixture_imports_plain_and_gzip_identically(self, tmp_path):
        plain = read_champsim_trace(CHAMPSIM_FIXTURE)
        gzipped = read_champsim_trace(CHAMPSIM_FIXTURE_GZ)
        for a, b in zip(plain.columns(), gzipped.columns()):
            assert np.array_equal(a, b)
        assert plain.num_memory_accesses == 240
        assert plain.num_stores > 0

    def test_compute_per_access_interleaves_non_mem(self):
        trace = read_champsim_trace(CHAMPSIM_FIXTURE, compute_per_access=2)
        assert len(trace) == 3 * trace.num_memory_accesses
        assert trace.metadata["compute_per_access"] == 2

    def test_import_registers_catalog_workload(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        workload, key, trace = import_champsim_trace(
            CHAMPSIM_FIXTURE, trace_store=store, name="fixture"
        )
        assert workload == "imported.fixture"
        assert store.imported_workloads() == {
            "imported.fixture": {
                "key": key,
                "source": str(CHAMPSIM_FIXTURE),
                "records": 240,
                "memory_accesses": 240,
                "compute_per_access": 0,
            }
        }
        # The served trace is the memory-mapped stored copy.
        assert _is_memory_mapped(trace.columns()[0])
        # The entry is named after the workload: the listing is the registry.
        assert store.keys() == ["imported.fixture"]

    def test_import_rejects_a_name_that_is_not_one_path_component(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        with pytest.raises(ValueError, match="must be letters"):
            import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="../x")
        assert store.keys() == []

    def test_concurrent_registrations_are_all_kept(self, tmp_path):
        """Two processes importing 100 names each into one store keep all
        200: each import is its own entry, so there is nothing to lock."""
        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="seed")
        script = (
            "import sys\n"
            "from repro.traces.ingest import import_champsim_trace\n"
            "from repro.traces.store import TraceStore\n"
            "store = TraceStore(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "for i in range(100):\n"
            "    import_champsim_trace(sys.argv[3], trace_store=store,\n"
            "                          name=f'{sys.argv[2]}{i}')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store.directory), prefix,
                 str(CHAMPSIM_FIXTURE)],
                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for prefix in ("a", "b")
        ]
        # Start both loops together, once both processes are up.
        for process in processes:
            assert process.stdout.readline().strip() == "ready"
        for process in processes:
            process.stdin.write("go\n")
            process.stdin.flush()
        for process in processes:
            process.communicate(timeout=120)
            assert process.returncode == 0
        registry = store.imported_workloads()
        assert len(registry) == 201
        assert {entry["key"] for entry in registry.values()} == {
            file_content_key(CHAMPSIM_FIXTURE)
        }

    def test_imported_workload_runs_through_engine(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE_GZ, trace_store=store, name="fixture",
                              compute_per_access=2)
        trace = build_workload_trace(
            "imported.fixture", 100, trace_store=store
        )
        assert trace.num_memory_accesses == 100
        result = run_single_core(
            trace, build_scenario("hermes", l1d_prefetcher="ipcp"),
            warmup_fraction=0.25,
        )
        assert result.instructions > 0

    def test_missing_imported_workload_raises(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        with pytest.raises(KeyError, match="repro trace import"):
            build_workload_trace("imported.nope", 100, trace_store=store)

    def test_max_records_yields_distinct_store_entries(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        _, full_key, full = import_champsim_trace(
            CHAMPSIM_FIXTURE, trace_store=store, name="full"
        )
        _, head_key, head = import_champsim_trace(
            CHAMPSIM_FIXTURE, trace_store=store, name="head", max_records=50
        )
        assert full_key != head_key
        assert full.num_memory_accesses == 240
        assert head.num_memory_accesses == 50
        # Both imports coexist in the store and registry.
        assert store.get("imported.full").num_memory_accesses == 240
        assert store.get("imported.head").num_memory_accesses == 50

    @pytest.mark.parametrize("max_records", [0, -5])
    def test_max_records_below_one_is_rejected(self, tmp_path, max_records):
        store = TraceStore(tmp_path / "store")
        with pytest.raises(ValueError, match="max_records must be at least 1"):
            import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store,
                                  max_records=max_records)
        assert store.keys() == []

    def test_reimporting_different_content_changes_point_cache_key(self, tmp_path):
        """Re-importing a name replaces its entry, and result-cache keys of
        imported-workload points follow the trace content, so the new file
        can never be served stale cached results."""
        from repro.sim.engine import single_core_point

        store = TraceStore(tmp_path / "store")
        source = tmp_path / "app.trace"
        source.write_text("0x400000 0x1000 R\n0x400004 0x2000 W\n")
        import_champsim_trace(source, trace_store=store, name="app")

        def point():
            return single_core_point(
                "imported.app", "tlp", "ipcp", memory_accesses=100,
                warmup_fraction=0.25, trace_store=store,
            )

        first_key = point().key()
        assert point().key() == first_key  # deterministic
        # Same name, different trace content.
        source.write_text("0x400000 0x9000 R\n0x400004 0xa000 R\n")
        import_champsim_trace(source, trace_store=store, name="app")
        assert point().key() != first_key
        # The second import replaced the first: one entry, new content.
        assert store.keys() == ["imported.app"]
        assert list(store.get("imported.app").columns()[1]) == [0x9000, 0xA000]
        assert store.imported_workloads()["imported.app"]["key"] == (
            file_content_key(source)
        )

    def test_point_trace_keys_are_the_file_content_key(self, tmp_path):
        """An imported point's cache key folds in the source file's content
        key, read back from the entry's header."""
        from repro.sim.engine import multi_core_point, single_core_point

        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="fixture")
        content_key = file_content_key(CHAMPSIM_FIXTURE)
        point = single_core_point(
            "imported.fixture", "tlp", "ipcp", memory_accesses=100,
            warmup_fraction=0.25, trace_store=store,
        )
        assert point.trace_keys == (content_key,)
        mix = multi_core_point(
            "m", ("bfs.urand", "imported.fixture"), "tlp", "ipcp",
            memory_accesses=100, warmup_fraction=0.25, trace_store=store,
        )
        assert mix.trace_keys == ("", content_key)

    def test_generated_point_cache_keys_unchanged_by_trace_keys_field(self):
        """Generated-only points omit trace_keys from the key payload, so
        every pre-store result cache stays valid (schema not bumped)."""
        import hashlib
        import json as json_module

        from repro.sim.engine import CACHE_SCHEMA_VERSION, single_core_point

        point = single_core_point(
            "bfs.urand", "tlp", "ipcp", memory_accesses=100,
            warmup_fraction=0.25, gap_scale="tiny",
        )
        assert point.trace_keys is None
        legacy_payload = {
            "kind": point.kind,
            "workloads": list(point.workloads),
            "scheme": point.scheme,
            "l1d_prefetcher": point.l1d_prefetcher,
            "memory_accesses": point.memory_accesses,
            "warmup_fraction": point.warmup_fraction,
            "gap_scale": point.gap_scale,
            "system_json": point.system_json,
            "mix_name": None,
            "schema": CACHE_SCHEMA_VERSION,
        }
        legacy_key = hashlib.sha256(
            json_module.dumps(legacy_payload, sort_keys=True).encode("utf-8")
        ).hexdigest()[:32]
        assert point.key() == legacy_key

    def test_imported_workload_through_campaign_cache(self, tmp_path):
        """An imported trace is a first-class workload for the campaign
        machinery (``api.run_sweep`` over a CampaignCache)."""
        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="fixture",
                              compute_per_access=2)
        config = ExperimentConfig(
            gap_workloads=(),
            spec_workloads=(),
            imported_workloads=("imported.fixture",),
            memory_accesses=200,
            l1d_prefetchers=("ipcp",),
        )
        engine = CampaignEngine(
            result_cache=ResultCache(tmp_path / "rc"), jobs=1, trace_store=store
        )
        cache = CampaignCache(config, engine=engine)
        assert cache.config.suite_of("imported.fixture") == "imported"
        results = api.run_sweep(
            api.SweepSpec(single_core=(api.SingleCoreSweep(
                schemes=("baseline", "tlp"),
            ),)),
            cache=cache,
        )
        assert len(results) == 2
        baseline = results.single_core("imported.fixture", "baseline")
        tlp = results.single_core("imported.fixture", "tlp")
        assert baseline.instructions == tlp.instructions > 0


# ----------------------------------------------------------------------
# Engine store fast path
# ----------------------------------------------------------------------
class TestStoreFastPath:
    def test_catalog_build_hits_store_second_time(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        first = build_workload_trace("spec.mcf_like", 500, trace_store=store)
        # The miss built and persisted the trace, then served the stored
        # copy (one miss, one hit).
        assert store.misses == 1
        hits_after_build = store.hits
        second = build_workload_trace("spec.mcf_like", 500, trace_store=store)
        assert store.misses == 1
        assert store.hits == hits_after_build + 1
        assert _is_memory_mapped(second.columns()[0])
        for a, b in zip(first.columns(), second.columns()):
            assert np.array_equal(a, b)
        plain = build_workload_trace("spec.mcf_like", 500)
        assert np.array_equal(plain.columns()[1], second.columns()[1])

    def test_store_registers_imported_suite(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="fixture")
        assert list(store.imported_workloads()) == ["imported.fixture"]
        trace = api.load_trace("imported.fixture", 64, trace_store=store)
        assert trace.num_memory_accesses == 64
        # A budget past the stored trace yields the whole trace.
        whole = api.load_trace("imported.fixture", 10_000, trace_store=store)
        assert whole.num_memory_accesses == 240

    def test_workload_key_distinguishes_scale_but_not_for_spec(self):
        assert workload_key("bfs.urand", 1000, "tiny") != workload_key(
            "bfs.urand", 1000, "medium"
        )
        assert workload_key("spec.mcf_like", 1000, "tiny") == workload_key(
            "spec.mcf_like", 1000, "medium"
        )
        assert workload_key("bfs.urand", 1000, "tiny") != workload_key(
            "bfs.urand", 2000, "tiny"
        )

    def test_generator_runs_once_across_engines(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        reset_generator_invocations()
        first = build_workload_trace("bfs.urand", 600, "tiny", trace_store=store)
        assert generator_invocations() == 1
        second = build_workload_trace("bfs.urand", 600, "tiny", trace_store=store)
        assert generator_invocations() == 1  # store hit: no generator work
        assert _is_memory_mapped(second.columns()[0])
        for a, b in zip(first.columns(), second.columns()):
            assert np.array_equal(a, b)

    def test_warm_store_campaign_skips_generators_entirely(self, tmp_path):
        """Cold-result-cache campaign points over a warm trace store do no
        generator work at all (the acceptance criterion)."""
        store = TraceStore(tmp_path / "store")
        config = ExperimentConfig(
            gap_workloads=("bfs.urand",),
            spec_workloads=("spec.mcf_like",),
            memory_accesses=500,
            multicore_memory_accesses=400,
            l1d_prefetchers=("ipcp",),
            gap_scale="tiny",
        )

        schemes = ("baseline", "tlp")
        spec = api.SweepSpec(
            single_core=(api.SingleCoreSweep(schemes=schemes),),
            multi_core=(
                api.MultiCoreSweep(schemes=schemes, isolated_baselines=False),
            ),
        )

        def run(result_dir):
            engine = CampaignEngine(
                result_cache=ResultCache(tmp_path / result_dir),
                jobs=1,
                trace_store=store,
            )
            api.run_sweep(spec, cache=CampaignCache(config, engine=engine))
            return engine

        reset_generator_invocations()
        first = run("rc1")
        assert first.simulations_run > 0
        assert generator_invocations() > 0

        reset_generator_invocations()
        second = run("rc2")  # fresh result cache: all points simulate
        assert second.simulations_run == first.simulations_run
        assert generator_invocations() == 0

    def test_store_and_storeless_campaigns_agree(self, tmp_path):
        config = ExperimentConfig(
            gap_workloads=("bfs.urand",),
            spec_workloads=("spec.omnetpp_like",),
            memory_accesses=400,
            l1d_prefetchers=("ipcp",),
            gap_scale="tiny",
        )
        with_store = CampaignCache(config, engine=CampaignEngine(
            result_cache=None, jobs=1, trace_store=TraceStore(tmp_path / "ts")
        ))
        without_store = CampaignCache(config, engine=CampaignEngine(
            result_cache=None, jobs=1
        ))
        spec = api.SweepSpec(single_core=(api.SingleCoreSweep(
            schemes=("baseline", "tlp"),
        ),))
        a_results = api.run_sweep(spec, cache=with_store)
        b_results = api.run_sweep(spec, cache=without_store)
        assert len(a_results) == len(b_results) == 2 * len(config.workloads())
        for workload in config.workloads():
            for scheme in ("baseline", "tlp"):
                a = a_results.single_core(workload, scheme)
                b = b_results.single_core(workload, scheme)
                assert dataclasses.asdict(a) == dataclasses.asdict(b), (
                    workload, scheme
                )


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_build_ls_info_rm(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["trace", "--dir", store_dir, "build",
                     "--workload", "spec.lbm_like", "--accesses", "300"]) == 0
        assert "stored spec.lbm_like" in capsys.readouterr().out

        assert main(["trace", "--dir", store_dir, "ls"]) == 0
        output = capsys.readouterr().out
        assert "1 traces" in output and "spec.lbm_like" in output

        key = workload_key("spec.lbm_like", 300)
        assert main(["trace", "--dir", store_dir, "info", key]) == 0
        output = capsys.readouterr().out
        assert "format_version" in output and "little" in output

        assert main(["trace", "--dir", store_dir, "rm", key]) == 0
        assert main(["trace", "--dir", store_dir, "ls"]) == 0
        assert "0 traces" in capsys.readouterr().out

    def test_import_and_info_by_name(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["trace", "--dir", store_dir, "import",
                     str(CHAMPSIM_FIXTURE_GZ), "--name", "fixture"]) == 0
        assert "imported.fixture" in capsys.readouterr().out
        assert main(["trace", "--dir", store_dir, "info",
                     "imported.fixture"]) == 0
        assert "memory_accesses" in capsys.readouterr().out
        assert main(["trace", "--dir", store_dir, "rm",
                     "imported.fixture"]) == 0
        assert "removed imported.fixture" in capsys.readouterr().out
        assert TraceStore(store_dir).imported_workloads() == {}
        assert main(["trace", "--dir", store_dir, "ls"]) == 0
        assert "imported.fixture" not in capsys.readouterr().out

    def test_import_missing_file_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--dir", str(tmp_path / "s"), "import",
                     str(tmp_path / "nope.trace")]) == 1
        assert "import failed" in capsys.readouterr().out

    def test_info_unknown_name_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--dir", str(tmp_path / "s"), "info", "nope"]) == 1

    def test_sweep_include_imported_smoke(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(TraceStore.DIR_ENV, str(tmp_path / "store"))
        monkeypatch.setenv(ResultCache.DIR_ENV, str(tmp_path / "rc"))
        assert main(["trace", "import", str(CHAMPSIM_FIXTURE),
                     "--name", "fixture", "--compute-per-access", "2"]) == 0
        output = capsys.readouterr().out
        assert "run it with: repro sweep --include-imported" in output
        assert main(["sweep", "--include-imported", "--accesses", "200",
                     "--schemes", "tlp", "--prefetchers", "ipcp",
                     "--jobs", "1", "--list"]) == 0
        output = capsys.readouterr().out
        assert "imported.fixture/tlp/ipcp" in output


# ----------------------------------------------------------------------
# Storage robustness
# ----------------------------------------------------------------------
#: Trace budget of the corrupt-storage tests.
BUDGET = 600


class TestCorruptStorage:
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
        assert key not in [p.name for p in store.quarantined()]

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


    def test_corrupt_imported_entry_asks_for_a_new_import(self, tmp_path, caplog):
        store = TraceStore(tmp_path)
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="fixture")
        (tmp_path / "imported.fixture" / "pc.bin").write_bytes(b"\x00" * 8)
        with caplog.at_level(logging.WARNING, logger="repro.traces"):
            with pytest.raises(KeyError, match="repro trace import"):
                build_workload_trace("imported.fixture", 100, trace_store=store)
        assert "import it again" in caplog.text
        assert store.imported_workloads() == {}


class TestVerifiedOncePerProcess:
    """Content digests are hashed once per process per unchanged entry."""

    def _put(self, store, key, seed_offset=0):
        trace = spec_like_trace("lbm_like", num_memory_accesses=200 + seed_offset)
        store.put(key, trace)
        return trace

    def _age(self, entry):
        """Date the entry's columns 10 s back, past the settle window."""
        for name in ("pc.bin", "vaddr.bin", "kind.bin"):
            stat = (entry / name).stat()
            past = stat.st_mtime_ns - 10_000_000_000
            os.utime(entry / name, ns=(past, past))

    @pytest.fixture
    def hashes(self, monkeypatch):
        from repro.traces import store as store_module

        calls = []
        real = store_module.hashlib.sha256

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(store_module.hashlib, "sha256", counting)
        return calls

    def test_get_or_build_miss_hashes_each_column_once(self, tmp_path, hashes):
        """The write digests each column; serving the just-written entry
        does not hash it again."""
        store = TraceStore(tmp_path)
        built = store.get_or_build(
            "k", lambda: spec_like_trace("lbm_like", num_memory_accesses=200)
        )
        assert len(hashes) == 3
        assert not built.columns()[0].flags.writeable  # the stored map

    def test_two_instances_hash_each_column_once(self, tmp_path, hashes):
        self._put(TraceStore(tmp_path), "k")
        hashes.clear()  # the put's own digests
        first, second = TraceStore(tmp_path), TraceStore(tmp_path)
        assert first.get("k") is not None
        assert len(hashes) == 3
        # A fresh entry is hashed on every load until it settles.
        assert second.get("k") is not None
        assert len(hashes) == 6
        self._age(tmp_path / "k")
        assert first.get("k") is not None
        assert len(hashes) == 9
        assert second.get("k") is not None
        assert TraceStore(tmp_path).get("k") is not None
        assert len(hashes) == 9

    def test_a_put_of_different_content_is_verified_again(self, tmp_path, hashes):
        store = TraceStore(tmp_path)
        self._put(store, "k")
        self._age(tmp_path / "k")
        hashes.clear()  # the put's own digests
        store.get("k")
        store.get("k")
        assert len(hashes) == 3
        replacement = self._put(TraceStore(tmp_path), "k", seed_offset=50)
        self._age(tmp_path / "k")
        hashes.clear()
        loaded = store.get("k")
        assert len(hashes) == 3
        assert np.array_equal(loaded.columns()[1], replacement.columns()[1])

    def test_a_column_rewritten_in_place_is_quarantined(self, tmp_path, caplog):
        from repro.traces import store as store_module

        store = TraceStore(tmp_path)
        self._put(store, "k")
        entry = tmp_path / "k"
        self._age(entry)
        assert store.get("k") is not None  # clean, and memoised
        assert str(entry.absolute()) in store_module._VERIFIED
        with (entry / "vaddr.bin").open("r+b") as column:
            byte = column.read(1)
            column.seek(0)
            column.write(bytes([byte[0] ^ 0xFF]))
        with caplog.at_level(logging.WARNING, logger="repro.traces"):
            assert TraceStore(tmp_path).get("k") is None
        assert "digest mismatch" in caplog.text
        assert [p.name for p in store.quarantined()] == ["k.corrupt"]
        assert str(entry.absolute()) not in store_module._VERIFIED


# ----------------------------------------------------------------------
# Trace-store entry rules and GC (shared with the result cache)
# ----------------------------------------------------------------------
class TestTraceStoreGc(EntryStoreContract):
    """The shared entry rules (``tests/test_entry_store.py``) on the trace
    store, plus what an eviction does to the imported-workload registry."""

    STORE = TraceStore
    LOGGER = "repro.traces"
    COMMAND, CLI_NOUN = "trace", "traces"

    def add(self, store, index: int) -> str:
        budget = (200, 250, 300)[index]
        key = workload_key("spec.lbm_like", budget)
        store.put(key, spec_like_trace("lbm_like", num_memory_accesses=budget))
        return key

    def corrupt(self, store, key: str) -> None:
        (store.path(key) / "pc.bin").write_bytes(b"\x00" * 8)

    def test_gc_unregisters_evicted_imported_traces(self, tmp_path):
        import os

        store = TraceStore(tmp_path / "store")
        import_champsim_trace(CHAMPSIM_FIXTURE, trace_store=store, name="fixture")
        os.utime(store.path("imported.fixture") / "meta.json", (0, 0))
        store.put(
            workload_key("spec.lbm_like", 400),
            spec_like_trace("lbm_like", num_memory_accesses=400),
        )
        removed, _ = store.gc(store.entry_size_bytes(workload_key("spec.lbm_like", 400)))
        assert removed == 1
        assert "imported.fixture" not in store.imported_workloads()
        assert store.get("imported.fixture") is None

    def test_gc_forgets_evicted_entries(self, tmp_path):
        """gc evicts a live entry through ``remove``, so the entry also
        leaves the process's verified-entry memo."""
        from repro.traces import store as store_module

        store, keys = self.populated(tmp_path)
        entry = store.path(keys[0])
        for name in ("pc.bin", "vaddr.bin", "kind.bin"):
            os.utime(entry / name, (0, 0))  # past the settle window
        assert store.get(keys[0]) is not None
        assert str(entry.absolute()) in store_module._VERIFIED
        assert store.gc(0)[0] == len(keys)
        assert str(entry.absolute()) not in store_module._VERIFIED

    def test_cli_gc_and_dry_run(self, tmp_path, capsys):
        from repro.cli import main

        store, _ = self.populated(tmp_path)
        store_dir = str(store.directory)
        assert main(["trace", "--dir", store_dir, "gc",
                     "--max-mb", "0.001", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "would evict" in output and "dry run" in output
        assert len(store.keys()) == 3
        assert main(["trace", "--dir", store_dir, "gc", "--max-mb", "0.001"]) == 0
        output = capsys.readouterr().out
        assert "evicted" in output
        assert store.size_bytes() <= 1024


# ----------------------------------------------------------------------
# xz-compressed ChampSim ingestion
# ----------------------------------------------------------------------
class TestXzIngestion:
    @pytest.fixture()
    def xz_fixture(self, tmp_path) -> Path:
        """The committed plain fixture, xz-compressed on the fly."""
        import lzma

        path = tmp_path / "champsim_small.trace.xz"
        path.write_bytes(lzma.compress(CHAMPSIM_FIXTURE.read_bytes()))
        return path

    def test_xz_import_identical_to_plain(self, tmp_path, xz_fixture):
        plain = read_champsim_trace(CHAMPSIM_FIXTURE, name="fixture")
        compressed = read_champsim_trace(xz_fixture, name="fixture")
        assert len(plain) == len(compressed)
        for a, b in zip(plain.columns(), compressed.columns()):
            assert (a == b).all()

    def test_xz_default_name_strips_suffixes(self, xz_fixture):
        trace = read_champsim_trace(xz_fixture)
        assert trace.name == "champsim_small"

    def test_xz_registers_catalog_workload(self, tmp_path, xz_fixture):
        store = TraceStore(tmp_path / "store")
        workload, key, trace = import_champsim_trace(
            xz_fixture, trace_store=store, name="xzfixture"
        )
        assert workload == "imported.xzfixture"
        assert store.imported_workloads()["imported.xzfixture"]["key"] == key
        assert trace.num_memory_accesses > 0

    def test_cli_imports_xz(self, tmp_path, xz_fixture, capsys):
        from repro.cli import main

        assert main(["trace", "--dir", str(tmp_path / "store"), "import",
                     str(xz_fixture), "--name", "xzcli"]) == 0
        assert "imported.xzcli" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Graph memo LRU bound
# ----------------------------------------------------------------------
class TestGraphMemoLru:
    def test_memo_is_bounded_and_evicts_least_recently_used(self):
        from repro.workloads import graphs

        graphs.clear_graph_memo()
        limit = graphs._GRAPH_MEMO_LIMIT
        for seed in range(limit):
            graphs.generate_graph("urand", scale="tiny", seed=seed)
        assert len(graphs._GRAPH_MEMO) == limit
        # Touch seed 0 so it becomes most recently used, then overflow.
        keep = graphs.generate_graph("urand", scale="tiny", seed=0)
        graphs.generate_graph("road", scale="tiny", seed=99)
        assert len(graphs._GRAPH_MEMO) == limit
        assert ("urand", "tiny", 0) in graphs._GRAPH_MEMO
        assert ("urand", "tiny", 1) not in graphs._GRAPH_MEMO  # LRU victim
        assert graphs.generate_graph("urand", scale="tiny", seed=0) is keep
        graphs.clear_graph_memo()
