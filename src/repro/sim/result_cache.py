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
from pathlib import Path
from typing import Optional

from repro.common.entry_store import EntryStore
from repro.obs.logs import get_logger
from repro.sim.results import MultiCoreResult, SingleCoreResult


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON to a uniquely named temp file beside
    ``path``, then ``os.replace`` it into place.

    A reader never observes a torn entry, and two racing writers of one
    path (engine pool workers, overlapping runs) each install a complete
    payload -- last one wins -- instead of colliding on the temp name or
    interleaving bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f".{path.stem}-{os.urandom(4).hex()}.tmp")
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


class ResultCache(EntryStore):
    """One JSON file per simulated point, ``<key>.json``: the file is both
    the entry and its header.

    Writes go through :func:`_atomic_write_json`, so a crashed or
    interrupted campaign -- or two pool workers racing on the same key --
    never tears an entry.  A torn or corrupt entry found on read is
    quarantined to ``<key>.json.corrupt`` and treated as a miss, so the
    point is re-simulated and re-committed instead of crashing the
    campaign.  Directory, listing, quarantine and ``gc`` are
    :class:`~repro.common.entry_store.EntryStore`'s.
    """

    DIR_ENV = "REPRO_CACHE_DIR"
    DEFAULT_DIR = ".repro_cache"
    SUFFIX = ".json"
    NOUN = "result-cache"
    LOGGER = get_logger("cache")

    def _next_step(self, key: str) -> str:
        return "the point will be re-simulated"

    def get(self, key: str) -> Optional[SingleCoreResult | MultiCoreResult]:
        """Return the cached result for ``key``, or None on a miss.

        A present-but-undecodable entry (torn write from a crashed process,
        disk corruption) is quarantined with a warning and counts as a
        miss -- reads never raise.
        """
        try:
            with self.path(key).open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
            result = result_from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            self._quarantine(key, error)
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
        _atomic_write_json(self.path(key), payload)
