"""Persistent memory-mapped trace store.

The campaign engine's unit of work is a (workload, scheme, prefetcher)
point, but the expensive shared input of many points is the *trace*: every
worker process of a cold campaign used to regenerate the same workload trace
from scratch.  The trace store persists built traces in an on-disk columnar
format so they are generated once and **memory-mapped** back by any number
of processes -- the ``pc``/``vaddr``/``kind`` columns come back as read-only
``numpy.memmap`` views sharing the page cache, and the zero-copy
``split()``/``truncated()`` machinery of :class:`~repro.traces.trace.Trace`
works on them unchanged.

On-disk layout (one directory per stored trace)::

    .repro_traces/
        <key>/                  # a generated workload trace
            meta.json           # versioned header (format, dtypes, counts)
            pc.bin              # raw little-endian int64 column
            vaddr.bin           # raw little-endian int64 column
            kind.bin            # raw uint8 column
        imported.<name>/        # an imported trace (same files, see ingest.py)

A generated trace's ``<key>`` is a content hash of everything that
determines it: workload name, memory-access budget, generator scale and
the trace schema version.  An imported trace's entry is named after its
workload, and its header carries the registry fields (``content_key``,
the source file's content hash, plus ``source``, ``records``,
``memory_accesses`` and ``compute_per_access``), so the directory listing
is the imported-workload registry.  The store directory defaults to
``.repro_traces`` in the working directory and can be redirected with the
``REPRO_TRACE_DIR`` environment variable -- the same convention as the
result cache's ``REPRO_CACHE_DIR``.

Writes are atomic (columns and header land in a temp directory that is
renamed into place), so a crashed build never leaves a truncated entry; a
reader either sees a complete entry or a miss.  Headers carry an explicit
format version and endianness tag and loading rejects mismatches instead of
silently mis-decoding foreign bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import uuid
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.obs.logs import get_logger
from repro.traces.trace import ADDR_DTYPE, KIND_DTYPE, Trace

logger = get_logger("traces")

#: Environment variable overriding the default trace store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Entries at or below this many column bytes are digest-verified on load;
#: larger entries keep the O(1) mmap-open cost and rely on the byte-length
#: check alone.
VERIFY_MAX_BYTES = 64 * 1024 * 1024

#: Default trace store directory (relative to the working directory).
DEFAULT_TRACE_DIR = ".repro_traces"

#: Workload-name prefix of imported traces, and of their entry names.
IMPORTED_PREFIX = "imported."

#: Header fields an imported entry carries for the registry (besides
#: ``content_key``, reported as ``key``).
_IMPORTED_FIELDS = ("source", "records", "memory_accesses", "compute_per_access")

#: Bumped whenever the on-disk trace format changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Bumped whenever generator behaviour changes in a way that invalidates
#: previously stored traces (participates in every workload key).
TRACE_SCHEMA_VERSION = 1

#: Column files and their little-endian on-disk dtypes.
_COLUMNS = (
    ("pc", "pc.bin", "<i8"),
    ("vaddr", "vaddr.bin", "<i8"),
    ("kind", "kind.bin", "|u1"),
)

_META_NAME = "meta.json"


class TraceStoreError(RuntimeError):
    """A stored trace cannot be decoded (corrupt, foreign or incompatible)."""


def default_trace_dir() -> Path:
    """Resolve the store directory from the environment or the default."""
    return Path(os.environ.get(TRACE_DIR_ENV) or DEFAULT_TRACE_DIR)


def workload_key(
    workload: str, memory_accesses: int, gap_scale: str = "medium"
) -> str:
    """Content-hash store key of one generated workload trace.

    The key pins everything :func:`repro.sim.engine.build_workload_trace`
    feeds the generators: the workload name, the memory-access budget, the
    graph scale (GAP workloads only -- SPEC-like generators ignore it, so it
    is excluded from their keys and the same trace is shared across scales)
    and the trace schema version.
    """
    payload = {
        "workload": workload,
        "memory_accesses": memory_accesses,
        "gap_scale": None if workload.startswith("spec.") else gap_scale,
        "schema": TRACE_SCHEMA_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Low-level save / load of one entry directory
# ----------------------------------------------------------------------
def save_trace(trace: Trace, directory: Path | str, extra: Optional[dict] = None) -> Path:
    """Write ``trace`` to ``directory`` in the columnar store format.

    The write is atomic: columns land in a sibling temp directory that is
    renamed over ``directory`` (replacing any existing entry).  ``extra``
    is merged into the header for provenance (workload identity, source
    file of an import, ...).
    """
    directory = Path(directory)
    pc, vaddr, kind = trace.columns()
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = directory.parent / f".tmp-{directory.name}-{uuid.uuid4().hex[:8]}"
    tmp_dir.mkdir()
    try:
        columns = {}
        for column_name, file_name, dtype in _COLUMNS:
            data = {"pc": pc, "vaddr": vaddr, "kind": kind}[column_name]
            data = np.ascontiguousarray(data).astype(dtype, copy=False)
            data.tofile(tmp_dir / file_name)
            columns[column_name] = {
                "file": file_name,
                "dtype": dtype,
                # Content digest: the byte-length check catches truncation,
                # this catches in-place corruption (verified on load for
                # entries up to VERIFY_MAX_BYTES).
                "sha256": hashlib.sha256(memoryview(data)).hexdigest(),
            }
        meta = {
            "format_version": TRACE_FORMAT_VERSION,
            "endianness": "little",
            "name": trace.name,
            "records": int(len(pc)),
            "memory_accesses": int(trace.num_memory_accesses),
            "columns": columns,
            "metadata": _json_safe(trace.metadata),
        }
        if extra:
            meta.update(_json_safe(extra))
        with (tmp_dir / _META_NAME).open("w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)
        if directory.exists():
            shutil.rmtree(directory)
        try:
            os.replace(tmp_dir, directory)
        except OSError:
            # A concurrent writer renamed its entry into place between the
            # rmtree and the replace (os.replace cannot overwrite a
            # non-empty directory).  A generated trace's key is a content
            # hash of everything that determines it, so that entry is
            # byte-identical; an imported name is last-writer-wins, and
            # the other import won.  Either way losing the race is success.
            if not (directory / _META_NAME).is_file():
                raise
            shutil.rmtree(tmp_dir, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return directory


def read_meta(directory: Path | str) -> dict:
    """Read and validate the header of one stored trace entry.

    Raises :class:`TraceStoreError` when the header is unreadable, carries
    an unknown format version, or was written on a big-endian machine.
    """
    directory = Path(directory)
    try:
        with (directory / _META_NAME).open("r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise TraceStoreError(f"unreadable trace header in {directory}: {exc}") from exc
    version = meta.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceStoreError(
            f"trace {directory} has format version {version!r}; "
            f"this build reads version {TRACE_FORMAT_VERSION}"
        )
    if meta.get("endianness") != "little":
        raise TraceStoreError(
            f"trace {directory} is {meta.get('endianness')!r}-endian; "
            f"the store format is little-endian"
        )
    for column_name, _, dtype in _COLUMNS:
        described = meta.get("columns", {}).get(column_name, {})
        if described.get("dtype") != dtype:
            raise TraceStoreError(
                f"trace {directory} column {column_name!r} has dtype "
                f"{described.get('dtype')!r}; expected {dtype!r}"
            )
    return meta


def load_trace(
    directory: Path | str, mmap: bool = True, verify: Optional[bool] = None
) -> Trace:
    """Load one stored trace, memory-mapping its columns by default.

    With ``mmap=True`` the returned trace's columns are read-only
    ``numpy.memmap`` views: loading is O(1) regardless of trace length and
    concurrent processes mapping the same entry share the page cache.
    ``mmap=False`` reads private in-memory copies instead (useful when the
    entry is about to be deleted).

    Every column's byte length is validated against the header, so a
    truncated file raises :class:`TraceStoreError` instead of handing the
    simulator a short memmap.  Stored content digests are additionally
    verified when ``verify`` is True or, when None, for entries up to
    64 MiB of columns (the verification read warms the same page cache the
    simulation will use).
    """
    directory = Path(directory)
    meta = read_meta(directory)
    records = int(meta["records"])
    total_bytes = records * sum(
        np.dtype(dtype).itemsize for _, _, dtype in _COLUMNS
    )
    check_digests = (
        verify if verify is not None else total_bytes <= VERIFY_MAX_BYTES
    )
    arrays = {}
    for column_name, _, dtype in _COLUMNS:
        described = meta["columns"][column_name]
        file_name = described["file"]
        path = directory / file_name
        expected = records * np.dtype(dtype).itemsize
        try:
            actual = path.stat().st_size
        except OSError as exc:
            raise TraceStoreError(f"missing column file {path}") from exc
        if actual != expected:
            raise TraceStoreError(
                f"column file {path} is {actual} bytes; header says {expected}"
            )
        if mmap:
            arrays[column_name] = (
                np.memmap(path, dtype=dtype, mode="r", shape=(records,))
                if records
                else np.empty(0, dtype=dtype)
            )
        else:
            arrays[column_name] = np.fromfile(path, dtype=dtype)
        stored_digest = described.get("sha256")
        if check_digests and stored_digest and records:
            actual_digest = hashlib.sha256(
                memoryview(np.ascontiguousarray(arrays[column_name]))
            ).hexdigest()
            if actual_digest != stored_digest:
                raise TraceStoreError(
                    f"column file {path} content digest mismatch "
                    f"({actual_digest[:12]} != stored {stored_digest[:12]}); "
                    f"entry is corrupt"
                )
    # On little-endian hosts the explicit '<' dtypes equal the native column
    # dtypes, so the view keeps the memmaps as-is (zero copy); a big-endian
    # host gets a byte-swapped private copy instead of a mis-decoded map.
    def native(array: np.ndarray, dtype) -> np.ndarray:
        if sys.byteorder == "little":
            return array.view(dtype)
        return array.astype(dtype)

    return Trace.from_columns(
        str(meta.get("name", directory.name)),
        native(arrays["pc"], ADDR_DTYPE),
        native(arrays["vaddr"], ADDR_DTYPE),
        native(arrays["kind"], KIND_DTYPE),
        dict(meta.get("metadata") or {}),
    )


def _json_safe(value):
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class TraceStore:
    """Directory of stored traces: generated workload traces keyed by
    content hash, imported traces by workload name.

    One instance wraps one directory; entries are self-describing
    sub-directories (see the module docstring for the layout), and the
    ``imported.*`` entries are the imported-workload registry -- see
    :mod:`repro.traces.ingest`.
    """

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self.directory = (
            Path(directory) if directory is not None else default_trace_dir()
        )
        #: Entries served from disk by this instance (mmap opens).
        self.hits = 0
        #: Lookups that found no (readable) entry.
        self.misses = 0
        #: Keys whose content digests this instance already verified; a
        #: re-open of the same entry skips the O(n) hash (the threat is
        #: on-disk corruption, checked once per process).
        self._verified: set[str] = set()

    @classmethod
    def default(cls) -> "TraceStore":
        """The store at ``$REPRO_TRACE_DIR`` (or ``.repro_traces``)."""
        return cls()

    # ------------------------------------------------------------------
    # Raw entry access
    # ------------------------------------------------------------------
    def path(self, key: str) -> Path:
        """Directory of the entry stored under ``key``."""
        return self.directory / key

    def contains(self, key: str) -> bool:
        """True when a (complete) entry for ``key`` exists."""
        return (self.path(key) / _META_NAME).is_file()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def get(self, key: str, mmap: bool = True) -> Optional[Trace]:
        """Load the trace stored under ``key``, or None on a miss.

        Corrupt or incompatible entries are *quarantined*: renamed to
        ``<key>.corrupt`` with a warning and counted as a miss, so the
        caller regenerates the trace instead of handing the simulator a
        truncated or bit-rotted memmap -- and the broken bytes stay around
        for a post-mortem instead of being silently overwritten.
        """
        if not self.contains(key):
            self.misses += 1
            return None
        try:
            trace = load_trace(
                self.path(key),
                mmap=mmap,
                verify=False if key in self._verified else None,
            )
        except TraceStoreError as error:
            self._quarantine(key, error)
            self.misses += 1
            return None
        self._verified.add(key)
        self.hits += 1
        return trace

    def _quarantine(self, key: str, reason: Exception) -> None:
        """Rename a corrupt entry aside so the next access regenerates it."""
        entry = self.path(key)
        self._verified.discard(key)
        target = entry.with_name(entry.name + ".corrupt")
        try:
            if target.exists():
                shutil.rmtree(target)
            os.replace(entry, target)
        except OSError:
            return
        logger.warning(
            "quarantined corrupt trace-store entry %s -> %s (%s); %s",
            key,
            target.name,
            reason,
            "import it again"
            if key.startswith(IMPORTED_PREFIX)
            else "the trace will be regenerated",
        )

    def put(self, key: str, trace: Trace, extra: Optional[dict] = None) -> Path:
        """Store ``trace`` under ``key`` (atomically replacing any entry)."""
        self._verified.discard(key)
        return save_trace(trace, self.path(key), extra=extra)

    def remove(self, key: str) -> bool:
        """Delete the entry stored under ``key``; True when one existed."""
        entry = self.path(key)
        self._verified.discard(key)
        if not entry.is_dir():
            return False
        shutil.rmtree(entry)
        return True

    def keys(self) -> list[str]:
        """Keys of every complete entry in the store."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path.name
            for path in self.directory.iterdir()
            if path.is_dir()
            and not path.name.startswith(".")
            and not path.name.endswith(".corrupt")
            and (path / _META_NAME).is_file()
        )

    def quarantined_entries(self) -> list[Path]:
        """Corrupt entries renamed aside by :meth:`get`."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for path in self.directory.iterdir()
            if path.is_dir() and path.name.endswith(".corrupt")
        )

    def info(self, key: str) -> dict:
        """Validated header of one entry plus its on-disk size."""
        meta = read_meta(self.path(key))
        meta["key"] = key
        meta["size_bytes"] = self.entry_size_bytes(key)
        return meta

    def entry_size_bytes(self, key: str) -> int:
        """On-disk size of one entry (all column files + header)."""
        total = 0
        entry = self.path(key)
        if entry.is_dir():
            for path in entry.iterdir():
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def size_bytes(self) -> int:
        """Total on-disk size of every entry."""
        return sum(self.entry_size_bytes(key) for key in self.keys())

    def gc(self, max_bytes: int, dry_run: bool = False) -> tuple[int, int]:
        """Evict the oldest stored traces until the store fits ``max_bytes``.

        Age is the entry header's modification time (headers are written
        once, atomically, when the entry lands).  An evicted imported entry
        leaves the imported-workload registry with it.  With ``dry_run``
        nothing is deleted; the return value reports what a real sweep
        would do.  Returns ``(entries_removed, bytes_freed)``
        -- the mirror of :meth:`repro.sim.result_cache.ResultCache.gc`.
        """
        stamped = []
        total = 0
        for key in self.keys():
            try:
                mtime = (self.path(key) / _META_NAME).stat().st_mtime
            except OSError:
                continue
            size = self.entry_size_bytes(key)
            stamped.append((mtime, size, key))
            total += size
        stamped.sort()
        removed = 0
        freed = 0
        for _, size, key in stamped:
            if total - freed <= max_bytes:
                break
            if not dry_run:
                try:
                    shutil.rmtree(self.path(key))
                except OSError:
                    continue
            removed += 1
            freed += size
        return (removed, freed)

    # ------------------------------------------------------------------
    # Workload fast path
    # ------------------------------------------------------------------
    def get_or_build(
        self,
        key: str,
        builder: Callable[[], Trace],
        extra: Optional[dict] = None,
    ) -> Trace:
        """Return the stored trace for ``key``, building and persisting on miss.

        The cold path stores the freshly built trace, then serves the
        memory-mapped copy so the caller's first use behaves exactly like
        every later warm use.  Writes are atomic, so concurrent builders of
        the same key are safe (last writer wins with identical bytes).
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        trace = builder()
        self.put(key, trace, extra=extra)
        stored = self.get(key)
        return stored if stored is not None else trace

    # ------------------------------------------------------------------
    # Imported workloads
    # ------------------------------------------------------------------
    def imported_workloads(self) -> dict[str, dict]:
        """``{workload name: registry fields}`` of every imported entry.

        ``key`` is the entry's ``content_key`` (the source file's content
        hash, which campaign points fold into their cache keys); the other
        fields are :data:`_IMPORTED_FIELDS`, read from the same header.
        """
        registry = {}
        for name in self.keys():
            if not name.startswith(IMPORTED_PREFIX):
                continue
            try:
                meta = read_meta(self.path(name))
            except TraceStoreError:
                continue
            registry[name] = {
                "key": meta.get("content_key", ""),
                **{field: meta.get(field) for field in _IMPORTED_FIELDS},
            }
        return registry
