"""On-disk result cache for campaign simulations.

The paper's evaluation is a large cross product of (workload, scheme,
prefetcher, budget) points; simulating one point is expensive while its
result is a small bag of counters.  The cache stores one JSON file per
simulated point, keyed by a content hash of everything that determines the
outcome (workload, scenario, system configuration, trace budget, warm-up
split), so that re-running a figure, sweep or example script skips every
point that has already been simulated -- across processes and across runs.

The cache directory defaults to ``.repro_cache`` in the working directory
and can be redirected with the ``REPRO_CACHE_DIR`` environment variable.

Size is bounded by an explicit ``repro cache gc --max-mb N`` sweep, which
evicts the oldest entries (by file modification time) first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import Optional

from repro.obs.logs import get_logger
from repro.sim.multi_core import MultiCoreResult
from repro.sim.results import SingleCoreResult

logger = get_logger("cache")

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment or the default."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON to a uniquely named temp file beside
    ``path``, then ``os.replace`` it into place.

    A reader never observes a torn entry, and two racing writers of one
    path (engine pool workers, overlapping runs) each install a complete
    payload -- last one wins -- instead of colliding on the temp name or
    interleaving bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f".{path.stem}-{uuid.uuid4().hex[:8]}.tmp")
    try:
        tmp_path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
def result_to_dict(result: SingleCoreResult | MultiCoreResult) -> dict:
    """Serialize a simulation result to a JSON-safe dictionary."""
    if isinstance(result, SingleCoreResult):
        kind = "single_core"
    elif isinstance(result, MultiCoreResult):
        kind = "multi_core"
    else:
        raise TypeError(f"unsupported result type {type(result).__name__}")
    return {"kind": kind, "fields": dataclasses.asdict(result)}


def result_from_dict(payload: dict) -> SingleCoreResult | MultiCoreResult:
    """Reconstruct a simulation result serialized by :func:`result_to_dict`."""
    kind = payload.get("kind")
    fields = payload.get("fields", {})
    if kind == "single_core":
        return SingleCoreResult(**fields)
    if kind == "multi_core":
        return MultiCoreResult(**fields)
    raise ValueError(f"unsupported cached result kind {kind!r}")


class ResultCache:
    """One-file-per-result JSON store.

    Writes are atomic (write to a uniquely named temp file, then
    ``os.replace``) so that a crashed or interrupted campaign -- or two
    shard writers racing on the same key -- can never tear an entry.  A
    torn or corrupt entry found on read is *quarantined*: renamed to
    ``<key>.json.corrupt`` (with a warning) and treated as a miss, so the
    point is simply re-simulated and re-committed instead of crashing the
    campaign; ``repro cache gc`` reports the quarantined files.
    """

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Corrupt entries renamed aside by this instance.
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def contains(self, key: str) -> bool:
        """True when an entry for ``key`` exists (does not count hit/miss)."""
        return self._path(key).is_file()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Rename a corrupt entry aside so the next run re-simulates it."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt result-cache entry %s -> %s (%s); "
            "the point will be re-simulated",
            path.name,
            target.name,
            reason,
        )

    def get(self, key: str) -> Optional[SingleCoreResult | MultiCoreResult]:
        """Return the cached result for ``key``, or None on a miss.

        A present-but-undecodable entry (torn write from a crashed process,
        disk corruption) is quarantined with a warning and counts as a
        miss -- reads never raise.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            self._quarantine(path, error)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(
        self,
        key: str,
        result: SingleCoreResult | MultiCoreResult,
        point: Optional[dict] = None,
    ) -> None:
        """Store ``result`` under ``key``.

        ``point`` is the (JSON-safe) description of the simulated point; it
        is stored alongside the result so that cache entries are
        self-describing and debuggable with a text editor.  The write goes
        through :func:`_atomic_write_json` (unique temp file, then
        ``os.replace``), so concurrent writers of the same key
        (two overlapping runs simulating the same point) each replace the
        entry atomically with identical content instead of tearing each
        other's writes.
        """
        payload = {"key": key, "point": point, "result": result_to_dict(result)}
        _atomic_write_json(self._path(key), payload)

    def entries(self) -> list[str]:
        """Return the keys of every stored entry."""
        if not self.directory.is_dir():
            return []
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def quarantined_files(self) -> list[Path]:
        """Corrupt entries renamed aside by :meth:`get` (oldest first)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json.corrupt"))

    def clear(self) -> int:
        """Delete every entry, returning the number removed."""
        removed = 0
        for key in self.entries():
            try:
                self._path(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Size accounting and garbage collection
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Total size of every stored entry, in bytes (directory scan)."""
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def gc(self, max_bytes: int, dry_run: bool = False) -> tuple[int, int]:
        """Evict oldest entries until the cache fits in ``max_bytes``.

        Age is the file modification time.  With
        ``dry_run`` nothing is deleted; the return value reports what a real
        sweep would do.  Returns ``(entries_removed, bytes_freed)``.
        """
        if not self.directory.is_dir():
            return (0, 0)
        stamped = []
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        stamped.sort()
        removed = 0
        freed = 0
        for _, size, path in stamped:
            if total - freed <= max_bytes:
                break
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            freed += size
        return (removed, freed)
