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
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.common.entry_store import EntryStore
from repro.obs.logs import get_logger
from repro.traces.trace import ADDR_DTYPE, KIND_DTYPE, Trace

#: Entries at or below this many column bytes are digest-verified on load;
#: larger entries keep the O(1) mmap-open cost and rely on the byte-length
#: check alone.
VERIFY_MAX_BYTES = 64 * 1024 * 1024

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

#: Entries whose content digests this process verified: absolute entry path
#: -> the column files' ``(st_ino, st_size, st_mtime_ns)`` when they were
#: hashed.  A load whose columns still carry that stamp skips the O(n) hash;
#: a replaced entry or a rewritten column has a new stamp and is hashed
#: again.
_VERIFIED: dict[str, tuple] = {}

#: A column modified less than this long before it was hashed is not
#: memoised: a rewrite within the same file-system timestamp tick would keep
#: its stamp (git's "racily clean" rule).  Fresh entries are hashed on every
#: load until they are this old.
_SETTLE_NS = 1_000_000_000


class TraceStoreError(RuntimeError):
    """A stored trace cannot be decoded (corrupt, foreign or incompatible)."""


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
    tmp_dir = directory.parent / f".tmp-{directory.name}-{os.urandom(4).hex()}"
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
    64 MiB of columns, once per process while the column files keep their
    inode, size and modification time, and on every load while they are less
    than a second old (the verification read warms the same page cache the
    simulation will use).
    """
    directory = Path(directory)
    meta = read_meta(directory)
    records = int(meta["records"])
    total_bytes = records * sum(
        np.dtype(dtype).itemsize for _, _, dtype in _COLUMNS
    )
    paths, stamp = {}, []
    for column_name, _, dtype in _COLUMNS:
        path = paths[column_name] = directory / meta["columns"][column_name]["file"]
        expected = records * np.dtype(dtype).itemsize
        try:
            stat = path.stat()
        except OSError as exc:
            raise TraceStoreError(f"missing column file {path}") from exc
        if stat.st_size != expected:
            raise TraceStoreError(
                f"column file {path} is {stat.st_size} bytes; header says {expected}"
            )
        stamp.append((stat.st_ino, stat.st_size, stat.st_mtime_ns))
    memo_key = str(directory.absolute())
    stamp = tuple(stamp)
    check_digests = (
        verify
        if verify is not None
        else total_bytes <= VERIFY_MAX_BYTES and _VERIFIED.get(memo_key) != stamp
    )
    hashed_at = time.time_ns()
    arrays = {}
    for column_name, _, dtype in _COLUMNS:
        path = paths[column_name]
        if mmap:
            arrays[column_name] = (
                np.memmap(path, dtype=dtype, mode="r", shape=(records,))
                if records
                else np.empty(0, dtype=dtype)
            )
        else:
            arrays[column_name] = np.fromfile(path, dtype=dtype)
        stored_digest = meta["columns"][column_name].get("sha256")
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
    if check_digests and all(m < hashed_at - _SETTLE_NS for _, _, m in stamp):
        _VERIFIED[memo_key] = stamp
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


def _forget_verified(directory: Path) -> None:
    """Drop ``directory`` from the process's verified-entry memo."""
    _VERIFIED.pop(str(directory.absolute()), None)


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
class TraceStore(EntryStore):
    """Directory of stored traces: generated workload traces keyed by
    content hash, imported traces by workload name.

    An entry is a column directory whose ``meta.json`` is its header (see
    the module docstring for the layout), installed by :func:`save_trace`;
    the ``imported.*`` entries are the imported-workload registry -- see
    :mod:`repro.traces.ingest`.  Directory, listing, quarantine and ``gc``
    are :class:`~repro.common.entry_store.EntryStore`'s; an evicted or
    quarantined imported entry leaves the registry with it.  Content
    digests are verified once per process per entry, whichever instance
    loads it (:func:`load_trace`); ``put``, ``remove`` and a quarantine
    make the next load hash it again.
    """

    DIR_ENV = "REPRO_TRACE_DIR"
    DEFAULT_DIR = ".repro_traces"
    HEADER = _META_NAME
    NOUN = "trace-store"
    LOGGER = get_logger("traces")

    def _next_step(self, key: str) -> str:
        if key.startswith(IMPORTED_PREFIX):
            return "import it again"
        return "the trace will be regenerated"

    def get(self, key: str, mmap: bool = True) -> Optional[Trace]:
        """Load the trace stored under ``key``, or None on a miss.

        Corrupt or incompatible entries are quarantined and counted as a
        miss, so the caller regenerates the trace instead of handing the
        simulator a truncated or bit-rotted memmap.
        """
        if not self.contains(key):
            self.misses += 1
            return None
        return self._load(key, mmap)

    def _load(
        self, key: str, mmap: bool = True, verify: Optional[bool] = None
    ) -> Optional[Trace]:
        try:
            trace = load_trace(self.path(key), mmap=mmap, verify=verify)
        except TraceStoreError as error:
            self._quarantine(key, error)
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def _quarantine(self, key: str, reason: Exception) -> None:
        _forget_verified(self.path(key))
        super()._quarantine(key, reason)

    def put(self, key: str, trace: Trace, extra: Optional[dict] = None) -> Path:
        """Store ``trace`` under ``key`` (atomically replacing any entry)."""
        _forget_verified(self.path(key))
        return save_trace(trace, self.path(key), extra=extra)

    def remove(self, key: str) -> bool:
        _forget_verified(self.path(key))
        return super().remove(key)

    def info(self, key: str) -> dict:
        """Validated header of one entry plus its on-disk size."""
        meta = read_meta(self.path(key))
        meta["key"] = key
        meta["size_bytes"] = self.entry_size_bytes(key)
        return meta

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
        every later warm use.  The write just digested the columns, so that
        copy is served on the byte-length check alone.  Writes are atomic,
        so concurrent builders of the same key are safe (last writer wins
        with identical bytes).
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        trace = builder()
        self.put(key, trace, extra=extra)
        stored = self._load(key, verify=False)
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
