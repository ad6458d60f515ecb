"""Merged run JSONL -> Chrome trace-event JSON for Perfetto.

The exported object follows the Trace Event Format's "JSON Object
Format": ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.  Each
telemetry process becomes one synthetic pid with a ``process_name``
metadata ("M") record; spans become complete ("X") events with
microsecond timestamps relative to the earliest record, so Perfetto
renders worker occupancy and stragglers on one timeline.  ``sim_sample`` events become counter ("C") tracks (IPC and
LLC MPKI over time); other instantaneous events become instant ("i")
markers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs import tracer


def _micros(seconds: float) -> int:
    return int(round(seconds * 1e6))


def chrome_trace(records: Iterable[dict]) -> dict:
    """Convert telemetry records into a Chrome trace-event object."""
    records = [
        record
        for record in records
        if isinstance(record, dict) and isinstance(record.get("ts"), (int, float))
    ]
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(record["ts"] for record in records)
    pids: dict[str, int] = {}
    events: list[dict] = []
    for record in records:
        proc = str(record.get("proc") or record.get("pid") or "unknown")
        pid = pids.get(proc)
        if pid is None:
            pid = pids[proc] = len(pids) + 1
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": proc},
            })
        ts = _micros(record["ts"] - origin)
        kind = record.get("type")
        name = record.get("name", kind or "record")
        attrs = record.get("attrs") or {}
        if kind == "span":
            events.append({
                "name": name,
                "cat": "span",
                "ph": "X",
                "ts": ts,
                "dur": max(_micros(record.get("dur", 0.0)), 1),
                "pid": pid,
                "tid": 1,
                "args": attrs,
            })
        elif kind == "event" and name == "sim_sample":
            for counter, keys in (
                ("ipc", ("ipc",)),
                ("mpki", ("l1d_mpki", "l2c_mpki", "llc_mpki")),
                ("predictor_accuracy", ("predictor_accuracy",)),
            ):
                series = {
                    key: attrs[key]
                    for key in keys
                    if isinstance(attrs.get(key), (int, float))
                }
                if series:
                    events.append({
                        "name": counter,
                        "cat": "sample",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": 1,
                        "args": series,
                    })
        elif kind == "event":
            events.append({
                "name": name,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": 1,
                "args": attrs,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome(run: Path | str | list[dict], out_path: Path | str) -> dict:
    """Write the Chrome trace file of a run -- a directory, a merged JSONL
    file or the records already loaded from one -- to ``out_path`` and
    return the trace object written."""
    records = run if isinstance(run, list) else tracer.load_run(run)
    trace = chrome_trace(records)
    target = Path(out_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace), encoding="utf-8")
    return trace
