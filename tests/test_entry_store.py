"""The keyed-entry rules both on-disk stores share (``EntryStore``).

:class:`EntryStoreContract` holds the tests, written once.  A store's test
class names the store class and says how to add and corrupt one entry;
:class:`TestResultCacheEntries` runs the contract on the result cache, and
``tests/test_trace_store.py::TestTraceStoreGc`` on the trace store.
"""

from __future__ import annotations

import logging
import os

from repro.sim.result_cache import ResultCache
from repro.sim.results import SingleCoreResult


class EntryStoreContract:
    """Listing, removal, size accounting, ``gc`` and quarantine."""

    STORE: type
    #: Logger the store's quarantine warning goes to.
    LOGGER: str
    #: The store's ``repro`` command and what its ``gc`` calls entries.
    COMMAND: str
    CLI_NOUN: str

    def add(self, store, index: int) -> str:
        """Store the ``index``-th entry; returns its key."""
        raise NotImplementedError

    def corrupt(self, store, key: str) -> None:
        """Damage ``key``'s entry so that the next ``get`` rejects it."""
        raise NotImplementedError

    def populated(self, tmp_path):
        """A store of three entries whose headers are 0, 1 and 2 s old on
        the epoch clock, and their keys, oldest first."""
        store = self.STORE(tmp_path / "store")
        keys = []
        for index in range(3):
            key = self.add(store, index)
            os.utime(store.header(key), (index, index))
            keys.append(key)
        return store, keys

    def test_directory_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(self.STORE.DIR_ENV, str(tmp_path / "env"))
        assert self.STORE().directory == tmp_path / "env"
        monkeypatch.delenv(self.STORE.DIR_ENV)
        assert str(self.STORE().directory) == self.STORE.DEFAULT_DIR
        assert str(self.STORE(tmp_path).directory) == str(tmp_path)

    def test_keys_contains_remove(self, tmp_path):
        store, keys = self.populated(tmp_path)
        assert store.keys() == sorted(keys)
        assert all(store.contains(key) and key in store for key in keys)
        assert "missing" not in store
        assert store.remove(keys[0]) is True
        assert store.remove(keys[0]) is False
        assert keys[0] not in store
        assert store.keys() == sorted(keys[1:])

    def test_temp_and_quarantined_names_are_not_entries(self, tmp_path):
        store, keys = self.populated(tmp_path)
        (store.directory / f".{keys[0]}-0000.tmp").mkdir()
        (store.directory / f"{store.path('gone').name}.corrupt").mkdir()
        assert store.keys() == sorted(keys)

    def test_size_bytes(self, tmp_path):
        store, keys = self.populated(tmp_path)
        on_disk = sum(
            path.stat().st_size
            for path in store.directory.rglob("*")
            if path.is_file()
        )
        assert store.size_bytes() == on_disk
        assert store.size_bytes() == sum(store.entry_size_bytes(k) for k in keys)
        assert all(store.entry_size_bytes(key) > 0 for key in keys)
        empty = self.STORE(tmp_path / "empty")
        assert (empty.keys(), empty.size_bytes(), empty.quarantined()) == ([], 0, [])
        assert empty.gc(0) == (0, 0)

    def test_gc_evicts_oldest_first(self, tmp_path):
        store, keys = self.populated(tmp_path)
        sizes = [store.entry_size_bytes(key) for key in keys]
        removed, freed = store.gc(sizes[1] + sizes[2])
        assert (removed, freed) == (1, sizes[0])
        assert not store.contains(keys[0])  # oldest header went first
        assert store.keys() == sorted(keys[1:])
        assert store.size_bytes() <= sizes[1] + sizes[2]
        assert store.gc(0) == (2, sizes[1] + sizes[2])
        assert store.keys() == []

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store, keys = self.populated(tmp_path)
        sizes = [store.entry_size_bytes(key) for key in keys]
        before = store.size_bytes()
        assert store.gc(0, dry_run=True) == (3, before)
        assert store.gc(sizes[2], dry_run=True) == (2, sizes[0] + sizes[1])
        assert store.keys() == sorted(keys)
        assert store.size_bytes() == before
        # A real sweep then evicts exactly what the dry run predicted.
        assert store.gc(sizes[2]) == (2, sizes[0] + sizes[1])
        assert store.keys() == [keys[2]]

    def test_gc_noop_when_under_cap(self, tmp_path):
        store, keys = self.populated(tmp_path)
        assert store.gc(store.size_bytes() + 1) == (0, 0)
        assert store.gc(store.size_bytes()) == (0, 0)
        assert store.keys() == sorted(keys)

    def test_quarantined(self, tmp_path, caplog):
        store, keys = self.populated(tmp_path)
        assert store.quarantined() == []
        corrupt_name = store.path(keys[0]).name + ".corrupt"
        for _ in range(2):  # a second quarantine replaces the first
            self.corrupt(store, keys[0])
            with caplog.at_level(logging.WARNING, logger=self.LOGGER):
                assert store.get(keys[0]) is None
            assert f"-> {corrupt_name}" in caplog.text
            assert [p.name for p in store.quarantined()] == [corrupt_name]
            assert store.keys() == sorted(keys[1:])
            self.add(store, 0)
        assert store.misses == 2 and store.hits == 0
        # A quarantined entry counts toward the size, and gc evicts it first.
        quarantined = sum(
            path.stat().st_size
            for entry in store.quarantined()
            for path in (entry.rglob("*") if entry.is_dir() else (entry,))
            if path.is_file()
        )
        live = sum(store.entry_size_bytes(key) for key in keys)
        assert quarantined > 0 and store.size_bytes() == live + quarantined
        assert store.gc(live + quarantined - 1, dry_run=True) == (1, quarantined)
        assert store.gc(0, dry_run=True) == (4, store.size_bytes())

    def test_gc_reclaims_quarantined_entries(self, tmp_path):
        """Quarantined entries can never be read back: a full sweep leaves
        none in the store, and they go before any live entry."""
        store, keys = self.populated(tmp_path)
        self.corrupt(store, keys[2])
        assert store.get(keys[2]) is None
        assert len(store.quarantined()) == 1
        quarantined = store.size_bytes() - sum(store.entry_size_bytes(k) for k in keys[:2])
        assert store.gc(store.size_bytes() - 1) == (1, quarantined)
        assert store.quarantined() == [] and store.keys() == sorted(keys[:2])
        self.corrupt(store, keys[0])
        assert store.get(keys[0]) is None
        assert store.gc(0)[0] == 2
        assert store.quarantined() == [] and store.keys() == []
        assert list(store.directory.iterdir()) == []

    def test_cli_gc_dry_run_reports_quarantined(self, tmp_path, capsys):
        from repro.cli import main

        store, keys = self.populated(tmp_path)
        self.corrupt(store, keys[0])
        assert store.get(keys[0]) is None
        argv = [self.COMMAND, "--dir", str(store.directory), "gc", "--max-mb", "0"]
        assert main(argv + ["--dry-run"]) == 0
        output = capsys.readouterr().out
        assert f"({len(keys)} {self.CLI_NOUN} would evict, 1 of them quarantined corrupt," in output
        assert store.keys() == sorted(keys[1:]) and len(store.quarantined()) == 1
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert f"({len(keys)} {self.CLI_NOUN} evicted, 1 of them quarantined corrupt," in output
        assert store.keys() == [] and store.quarantined() == []


def _dummy_result(workload: str) -> SingleCoreResult:
    return SingleCoreResult(
        workload=workload,
        scenario="baseline",
        instructions=1000,
        cycles=100.0,
        ipc=10.0,
        average_load_latency=1.0,
        dram_transactions=0,
        dram_transactions_by_source={},
        mpki_by_level={},
        l1d_prefetches_issued=0,
        l1d_prefetches_filtered=0,
        l1d_prefetch_accuracy=0.0,
        useful_l1d_prefetches=0,
        useless_l1d_prefetches=0,
        accurate_prefetch_source={},
        inaccurate_prefetch_source={},
        offchip_prediction_location={},
        speculative_requests=0,
        delayed_predictions_saved=0,
        served_by={},
    )


class TestResultCacheEntries(EntryStoreContract):
    STORE = ResultCache
    LOGGER = "repro.cache"
    COMMAND, CLI_NOUN = "cache", "entries"

    def add(self, store, index: int) -> str:
        key = f"k{index}"
        store.put(key, _dummy_result(key))
        return key

    def corrupt(self, store, key: str) -> None:
        store.path(key).write_text("{torn", encoding="utf-8")
