"""External trace ingestion: ChampSim-style memory traces -> trace store.

The built-in workloads are synthetic; this module opens the door to traces
of real applications.  It parses ChampSim-style *memory* traces -- one
access per line, optionally gzip- (``.gz``) or xz-compressed (``.xz``,
decoded via :mod:`lzma`) -- converts them to the columnar
:class:`~repro.traces.trace.Trace` representation and persists each as
the :class:`~repro.traces.store.TraceStore` entry ``imported.<name>``,
whose header carries its registry fields; the store's listing of those
entries is the registry.  There they become workloads of the
``imported`` suite (``imported.<name>``), which
:func:`repro.sim.engine.build_workload_trace` resolves like a generated
workload, runnable through ``repro sweep`` and ``repro figure`` with
``--include-imported``.

Accepted line format (whitespace separated)::

    <pc> <vaddr> <kind>

* ``pc`` / ``vaddr``: decimal or ``0x``-prefixed hexadecimal integers;
* ``kind``: ``R``/``L``/``LOAD``/``RD`` for loads, ``W``/``S``/``STORE``/
  ``WR`` for stores (case insensitive); a missing kind column means load --
  the common "PC address" two-column dump;
* blank lines and ``#`` comments are skipped.

Because ChampSim memory traces carry no non-memory instructions, an
``instructions-per-access`` expansion (``compute_per_access``) can be
applied at import time so imported workloads exhibit a memory intensity
comparable to the generated ones; the default of 0 keeps the file's exact
access stream.

Importing a name again replaces its entry (last writer wins), and the new
content key changes the result-cache keys of the points that run it.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import lzma
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from repro.traces.store import IMPORTED_PREFIX, TRACE_SCHEMA_VERSION, TraceStore
from repro.traces.synthetic import interleave_columns
from repro.traces.trace import (
    ADDR_DTYPE,
    KIND_DTYPE,
    KIND_LOAD,
    KIND_STORE,
    Trace,
)

#: The workload suite imported traces are registered under.
IMPORTED_SUITE = "imported"

#: Names an imported trace may take: its store entry is ``imported.<name>``.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")

_LOAD_TOKENS = frozenset({"r", "l", "load", "rd", "read", "0"})
_STORE_TOKENS = frozenset({"w", "s", "store", "wr", "write", "1"})


class TraceParseError(ValueError):
    """A trace file line does not match the ChampSim-style format."""


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token, 16) if token.lower().startswith("0x") else int(token)
    except ValueError:
        raise TraceParseError(
            f"line {line_number}: {token!r} is not a decimal or 0x-hex integer"
        ) from None


def parse_champsim_lines(lines: Iterable[str]) -> Iterator[tuple[int, int, int]]:
    """Yield ``(pc, vaddr, kind)`` tuples from ChampSim-style text lines."""
    for line_number, line in enumerate(lines, start=1):
        text = line.partition("#")[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) not in (2, 3):
            raise TraceParseError(
                f"line {line_number}: expected '<pc> <vaddr> [kind]', got {text!r}"
            )
        pc = _parse_int(fields[0], line_number)
        vaddr = _parse_int(fields[1], line_number)
        if len(fields) == 2:
            kind = KIND_LOAD
        else:
            token = fields[2].lower()
            if token in _LOAD_TOKENS:
                kind = KIND_LOAD
            elif token in _STORE_TOKENS:
                kind = KIND_STORE
            else:
                raise TraceParseError(
                    f"line {line_number}: unknown access kind {fields[2]!r} "
                    f"(expected one of {sorted(_LOAD_TOKENS | _STORE_TOKENS)})"
                )
        yield pc, vaddr, kind


def _open_text(path: Path) -> TextIO:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    if path.suffix == ".xz":
        return io.TextIOWrapper(lzma.open(path, "rb"), encoding="utf-8")
    return path.open("r", encoding="utf-8")


def read_champsim_trace(
    path: Path | str,
    name: Optional[str] = None,
    compute_per_access: int = 0,
    max_records: Optional[int] = None,
) -> Trace:
    """Parse a ChampSim-style memory trace file into a columnar trace.

    ``.gz`` and ``.xz`` files are decompressed on the fly.  ``max_records``
    bounds the
    number of *memory* records read; ``compute_per_access`` interleaves that
    many NON_MEM records after each access (see the module docstring).
    """
    path = Path(path)
    if compute_per_access < 0:
        raise ValueError("compute_per_access must be non-negative")
    if max_records is not None and max_records < 1:
        raise ValueError(f"max_records must be at least 1, got {max_records}")
    pcs: list[int] = []
    vaddrs: list[int] = []
    kinds: list[int] = []
    with _open_text(path) as fh:
        for pc, vaddr, kind in parse_champsim_lines(fh):
            pcs.append(pc)
            vaddrs.append(vaddr)
            kinds.append(kind)
            if max_records is not None and len(pcs) >= max_records:
                break
    if not pcs:
        raise TraceParseError(f"{path} contains no trace records")
    trace_name = name if name else _default_name(path)
    pc_col, vaddr_col, kind_col = interleave_columns(
        np.asarray(pcs, dtype=ADDR_DTYPE),
        np.asarray(vaddrs, dtype=ADDR_DTYPE),
        np.asarray(kinds, dtype=KIND_DTYPE),
        # Imported traces carry no code layout; park the synthetic compute
        # PCs in a region no generator uses.
        0x70_0000,
        compute_per_access,
    )
    return Trace.from_columns(
        trace_name,
        pc_col,
        vaddr_col,
        kind_col,
        {
            "suite": IMPORTED_SUITE,
            "source": path.name,
            "format": "champsim-text",
            "compute_per_access": compute_per_access,
        },
    )


def _default_name(path: Path) -> str:
    stem = path.name
    for suffix in (".xz", ".gz", ".trace", ".txt", ".champsim"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    cleaned = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in stem)
    return cleaned or "trace"


def file_content_key(
    path: Path | str,
    compute_per_access: int = 0,
    max_records: Optional[int] = None,
) -> str:
    """Store key of an imported file: content hash + import parameters.

    Every parameter that shapes the imported trace participates, so the
    same file imported with different ``compute_per_access`` or
    ``max_records`` lands in distinct store entries.
    """
    digest = hashlib.sha256()
    digest.update(
        f"import:v{TRACE_SCHEMA_VERSION}:{compute_per_access}:{max_records}:".encode()
    )
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:32]


def import_champsim_trace(
    path: Path | str,
    trace_store: Optional[TraceStore] = None,
    name: Optional[str] = None,
    compute_per_access: int = 0,
    max_records: Optional[int] = None,
) -> tuple[str, str, Trace]:
    """Import one ChampSim-style trace file into the store.

    Parses the file and persists the columnar trace as the store entry of
    imported workload ``imported.<name>``, replacing any earlier import of
    that name.  Returns ``(workload name, content key, memory-mapped
    trace)``; the content key is :func:`file_content_key`.
    """
    path = Path(path)
    if name and not _NAME_PATTERN.fullmatch(name):
        raise ValueError(
            f"imported trace name {name!r} must be letters, digits, '.', '-' or '_'"
        )
    store = trace_store if trace_store is not None else TraceStore()
    trace = read_champsim_trace(
        path, name=name, compute_per_access=compute_per_access,
        max_records=max_records,
    )
    workload = IMPORTED_PREFIX + trace.name
    key = file_content_key(path, compute_per_access, max_records)
    # records and memory_accesses are header fields of every entry.
    store.put(
        workload,
        trace,
        extra={
            "workload": workload,
            "content_key": key,
            "source": str(path),
            "compute_per_access": compute_per_access,
        },
    )
    stored = store.get(workload)
    return workload, key, stored if stored is not None else trace
