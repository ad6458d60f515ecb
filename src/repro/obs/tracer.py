"""Low-overhead process-local tracer writing structured JSONL sinks.

One tracer per process.  Disabled (the default), :func:`span` returns a
shared no-op context manager and :func:`event` is a single-branch early
return, so instrumentation sites cost one global load on the hot path.
Enabled -- ``--telemetry`` on the CLI or ``REPRO_TELEMETRY=<dir>`` in the
environment -- every span and event is buffered and appended to
``<dir>/events-<pid>.jsonl``.  Engine pool workers inherit the
environment variable and write their own sinks into the same directory; :func:`merge_run` folds them into one
time-ordered ``run.jsonl`` for ``repro obs report`` / ``export-chrome``.

Record shapes (one JSON object per line)::

    {"type": "span",  "name": "simulate", "ts": <epoch s>, "dur": <s>,
     "pid": 1234, "proc": "worker-1234", "attrs": {...}}
    {"type": "event", "name": "cache_hit", "ts": <epoch s>,
     "pid": 1234, "proc": "worker-1234", "attrs": {...}}

Timestamps are wall-clock (``time.time``) so sinks from different
processes merge onto one timeline; durations are measured with
``time.perf_counter``.  These records are the only telemetry channel:
counts and durations (cache hits, per-span-name totals) are folded from
them when a run is read (:mod:`repro.obs.analyze`).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

#: Environment variable carrying the telemetry sink directory.  Setting it
#: (the CLI does, before spawning workers) both enables the tracer and
#: points every cooperating process at the same directory.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Buffered records before an incremental flush to the sink file.
_FLUSH_EVERY = 256

_enabled = False
_directory: Optional[Path] = None
_proc: str = ""
_buffer: list[dict] = []
_lock = threading.Lock()
_atexit_registered = False


def enabled() -> bool:
    """True when this process is recording telemetry."""
    return _enabled


def directory() -> Optional[Path]:
    """The sink directory of this process's tracer (None when disabled)."""
    return _directory


def configure(directory_path: Path | str, proc: Optional[str] = None) -> Path:
    """Enable the tracer, appending to a per-process sink under ``dir``.

    Idempotent per process: reconfiguring with the same directory is a
    no-op; a different directory flushes the old sink first.  Registers an
    exit hook that flushes, so cleanly exiting workers always leave
    complete sinks behind.
    """
    global _enabled, _directory, _proc
    target = Path(directory_path)
    with _lock:
        if _enabled and _directory == target:
            # Re-registration matters after a fork: the child's finalizer
            # registry was cleared by multiprocessing's bootstrap *after*
            # the at-fork reset ran, so hooks can only stick when the
            # worker initializer re-configures us here.
            _register_exit_hooks()
            return target
        if _enabled:
            _flush_locked()
        target.mkdir(parents=True, exist_ok=True)
        _directory = target
        _proc = proc or f"{os.uname().nodename}-{os.getpid()}"
        _enabled = True
        _register_exit_hooks()
    return target


def _register_exit_hooks() -> None:
    global _atexit_registered
    if _atexit_registered:
        return
    _atexit_registered = True
    atexit.register(shutdown)
    # Engine pool workers exit through multiprocessing's ``os._exit``
    # path, which skips atexit -- register with its finalizer machinery
    # too (shutdown is idempotent, so both firing in a normal process is
    # harmless).
    try:
        from multiprocessing import util as _mp_util

        _mp_util.Finalize(None, shutdown, exitpriority=10)
    except Exception:
        pass


def _reset_after_fork() -> None:
    """Give a forked child its own tracer identity and exit hooks.

    A fork while the tracer is live inherits the parent's buffered
    records, sink name and exit-hook registration; without this reset a
    pool worker would write the parent's buffered records again, append
    under the parent's identity, and never flush at all.  Exit hooks are
    deliberately *not* re-registered here -- multiprocessing clears its finalizer registry
    after this hook runs, so registration is deferred to the worker
    initializer's ``install_from_env`` (see :func:`configure`).
    """
    global _lock, _proc, _atexit_registered
    _lock = threading.Lock()  # the parent's lock may be held mid-fork
    _buffer.clear()
    if not _enabled:
        return
    _proc = f"{os.uname().nodename}-{os.getpid()}"
    _atexit_registered = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def disable() -> None:
    """Flush and turn the tracer off (tests, explicit teardown)."""
    global _enabled, _directory
    with _lock:
        if _enabled:
            _flush_locked()
        _enabled = False
        _directory = None


def install_from_env() -> bool:
    """Configure the tracer from ``REPRO_TELEMETRY``, if set.

    Called by the CLI and the engine's pool-worker initializer, so any
    process of a telemetry-enabled run records into the shared directory.  Returns whether telemetry is now enabled.
    """
    raw = os.environ.get(TELEMETRY_ENV)
    if raw:
        configure(raw)
        return True
    return False


def _emit(record: dict) -> None:
    with _lock:
        if not _enabled:
            return
        _buffer.append(record)
        if len(_buffer) >= _FLUSH_EVERY:
            _flush_locked()


def _flush_locked() -> None:
    if not _buffer or _directory is None:
        _buffer.clear()
        return
    path = _directory / f"events-{_proc}.jsonl"
    try:
        with path.open("a", encoding="utf-8") as fh:
            for record in _buffer:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        pass  # telemetry must never take a run down
    _buffer.clear()


def flush() -> None:
    """Write any buffered records to this process's sink."""
    with _lock:
        _flush_locked()


def shutdown() -> None:
    """Final flush of this process's buffered records.

    Safe to call multiple times; runs automatically at process exit once
    :func:`configure` has been called.
    """
    if _enabled:
        flush()


def event(name: str, **attrs) -> None:
    """Record one instantaneous event (no-op unless telemetry is enabled)."""
    if not _enabled:
        return
    _emit({
        "type": "event",
        "name": name,
        "ts": time.time(),
        "pid": os.getpid(),
        "proc": _proc,
        "attrs": attrs,
    })


class _NoopSpan:
    """Reusable, reentrant do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


@contextmanager
def _live_span(name: str, attrs: dict) -> Iterator[dict]:
    start_wall = time.time()
    start = time.perf_counter()
    try:
        yield attrs
    finally:
        duration = time.perf_counter() - start
        _emit({
            "type": "span",
            "name": name,
            "ts": start_wall,
            "dur": duration,
            "pid": os.getpid(),
            "proc": _proc,
            "attrs": attrs,
        })


def span(name: str, **attrs):
    """Context manager timing one operation as a structured span.

    Entering a live span yields its ``attrs`` dict, so the body can stamp
    attributes it only learns while running.  Disabled, this returns a
    shared no-op context manager (no allocation) that yields None.
    """
    if not _enabled:
        return _NOOP
    return _live_span(name, attrs)


# ----------------------------------------------------------------------
# Reading sinks back
# ----------------------------------------------------------------------
def read_events(path: Path | str) -> list[dict]:
    """Parse one JSONL sink (or merged run) file, skipping torn lines."""
    records: list[dict] = []
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail of a killed process's sink
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records


def load_run(run: Path | str) -> list[dict]:
    """Load the events of a run, given its directory or a merged JSONL file.

    For a directory, prefers ``run.jsonl`` when present, otherwise reads
    every ``events-*.jsonl`` sink and sorts by timestamp.
    """
    target = Path(run)
    if target.is_file():
        return read_events(target)
    merged = target / "run.jsonl"
    if merged.is_file():
        return read_events(merged)
    return _read_sinks(target)


def _read_sinks(directory: Path) -> list[dict]:
    """Every per-process sink's records, ordered by timestamp."""
    sinks = sorted(directory.glob("events-*.jsonl"))
    records = [record for sink in sinks for record in read_events(sink)]
    return sorted(records, key=lambda record: record.get("ts", 0.0))


def merge_run(
    directory_path: Path | str, out_path: Optional[Path | str] = None
) -> Path:
    """Merge a telemetry directory's per-process sinks into one run file.

    Events are ordered by wall-clock timestamp and written to
    ``<dir>/run.jsonl`` (or ``out_path``).  Idempotent: re-merging after
    more sinks appear simply rewrites the merged view.
    """
    source = Path(directory_path)
    records = _read_sinks(source)
    target = Path(out_path) if out_path is not None else source / "run.jsonl"
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return target
