"""Optional cProfile accumulation around per-point execution.

``--profile cprofile`` sets ``REPRO_PROFILE=cprofile``; every process of
the run (the CLI and its engine pool workers, which inherit the
environment) then accumulates one :class:`cProfile.Profile` across its
points via :func:`profiled_point` and dumps it to
``profile-<proc>.prof`` in the telemetry directory at exit.
:func:`hotspot_table` merges any number of those dumps with
``pstats.Stats.add`` and renders a top-N cumulative-time table for the
CLI.  Profiling is heavyweight by design and is excluded from the <2%
telemetry overhead budget.
"""

from __future__ import annotations

import atexit
import cProfile
import io
import os
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.obs import tracer

#: Environment variable selecting the profiler ("cprofile" or unset).
PROFILE_ENV = "REPRO_PROFILE"

_profiler: Optional[cProfile.Profile] = None
_atexit_registered = False


def enabled() -> bool:
    """True when this process is accumulating a profile."""
    return _profiler is not None


def install_from_env() -> bool:
    """Start per-point profiling if ``REPRO_PROFILE=cprofile`` is set.

    Needs an active telemetry directory to dump into; without one the
    request is ignored (the CLI always enables telemetry alongside
    ``--profile``).  Idempotent per process.
    """
    global _profiler, _atexit_registered
    if os.environ.get(PROFILE_ENV, "").strip().lower() != "cprofile":
        return False
    if tracer.directory() is None:
        return False
    if _profiler is None:
        _profiler = cProfile.Profile()
        _register_exit_hooks()
    return True


def _register_exit_hooks() -> None:
    global _atexit_registered
    if _atexit_registered:
        return
    _atexit_registered = True
    atexit.register(dump)
    # Pool workers exit via ``os._exit`` (no atexit); see tracer.py.
    try:
        from multiprocessing import util as _mp_util

        _mp_util.Finalize(None, dump, exitpriority=10)
    except Exception:
        pass


def _reset_after_fork() -> None:
    """Drop the inherited profiler so a forked child starts fresh.

    The child's ``install_from_env`` (pool initializer) re-creates the
    profiler and registers its dump hook *after* multiprocessing has
    cleared the finalizer registry; registering here would be undone.
    """
    global _profiler, _atexit_registered
    if _profiler is None:
        return
    _profiler = None
    _atexit_registered = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


@contextmanager
def profiled_point() -> Iterator[None]:
    """Accumulate the enclosed point execution into the process profile."""
    if _profiler is None:
        yield
        return
    _profiler.enable()
    try:
        yield
    finally:
        _profiler.disable()


def dump() -> Optional[Path]:
    """Write this process's accumulated profile into the telemetry dir."""
    global _profiler
    if _profiler is None:
        return None
    if not _profiler.getstats():
        # Never enabled (e.g. the pool-mode supervisor, which executes no
        # points itself) -- an empty dump would only break pstats later.
        return None
    directory = tracer.directory()
    if directory is None:
        return None
    target = directory / f"profile-{os.getpid()}.prof"
    try:
        _profiler.dump_stats(str(target))
    except OSError:
        return None
    return target


def profile_files(directory: Path | str) -> list[Path]:
    """The per-process profile dumps recorded under a telemetry dir."""
    return sorted(Path(directory).glob("profile-*.prof"))


def hotspot_table(
    paths: Sequence[Path | str], top: int = 20, sort: str = "cumulative"
) -> str:
    """Merge profile dumps and render the top-N hotspot table as text."""
    out = io.StringIO()
    stats = None
    for path in paths:
        try:
            if stats is None:
                stats = pstats.Stats(str(path), stream=out)
            else:
                stats.add(str(path))
        except (TypeError, ValueError, EOFError, OSError):
            continue  # empty or torn dump (e.g. a killed worker)
    if stats is None:
        return "no profile data recorded\n"
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return out.getvalue()
