"""Run-level summaries for ``repro obs report``.

Works from the merged telemetry JSONL of a run: per-process busy time
from ``simulate``/``trace_load``/``cache_put`` spans gives worker
utilization over the run's wall span; ``simulate`` span durations give
straggler percentiles; ``cache_hit``/``cache_miss`` events and
``cache_put`` spans give the result-cache summary; every span name gets
its count, summed and longest duration.  All of it is folded from the
span and event records -- there is no second telemetry channel.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Span names counted as "busy" for utilization purposes.
BUSY_SPANS = frozenset({"trace_load", "simulate", "cache_put"})


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def summarize(records: Sequence[dict]) -> dict:
    """Fold a run's telemetry records into the report dictionary."""
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]

    timestamps = [r["ts"] for r in records if isinstance(r.get("ts"), (int, float))]
    ends = timestamps + [
        r["ts"] + r.get("dur", 0.0)
        for r in spans
        if isinstance(r.get("ts"), (int, float))
    ]
    wall_s = (max(ends) - min(timestamps)) if timestamps else 0.0

    procs: dict[str, dict] = {}
    span_totals: dict[str, dict] = {}
    for span in spans:
        name = str(span.get("name", "span"))
        dur = span.get("dur", 0.0) or 0.0
        proc = str(span.get("proc") or span.get("pid") or "unknown")
        entry = procs.setdefault(
            proc, {"busy_s": 0.0, "points": 0, "spans": 0}
        )
        entry["spans"] += 1
        if name in BUSY_SPANS:
            entry["busy_s"] += dur
        if name == "simulate":
            entry["points"] += 1
        total = span_totals.setdefault(
            name, {"count": 0, "sum_s": 0.0, "max_s": 0.0}
        )
        total["count"] += 1
        total["sum_s"] += dur
        total["max_s"] = max(total["max_s"], dur)
    for entry in procs.values():
        entry["busy_s"] = round(entry["busy_s"], 6)
        entry["utilization"] = (
            round(min(entry["busy_s"] / wall_s, 1.0), 4) if wall_s > 0 else 0.0
        )

    simulate_durs = [
        s.get("dur", 0.0) or 0.0 for s in spans if s.get("name") == "simulate"
    ]
    stragglers = {
        "points": len(simulate_durs),
        "p50_s": round(percentile(simulate_durs, 50), 6),
        "p90_s": round(percentile(simulate_durs, 90), 6),
        "p99_s": round(percentile(simulate_durs, 99), 6),
        "max_s": round(max(simulate_durs), 6) if simulate_durs else 0.0,
        "sum_s": round(sum(simulate_durs), 6),
    }

    event_counts: dict[str, int] = {}
    for event in events:
        name = str(event.get("name", "event"))
        event_counts[name] = event_counts.get(name, 0) + 1
    hits = event_counts.get("cache_hit", 0)
    misses = event_counts.get("cache_miss", 0)
    lookups = hits + misses
    cache = {
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        # The engine records each result-cache write as a ``cache_put`` span.
        "puts": span_totals.get("cache_put", {}).get("count", 0),
    }

    return {
        "wall_s": round(wall_s, 6),
        "processes": procs,
        "utilization": (
            round(
                sum(p["busy_s"] for p in procs.values())
                / (wall_s * len(procs)),
                4,
            )
            if wall_s > 0 and procs
            else 0.0
        ),
        "stragglers": stragglers,
        "cache": cache,
        "events": event_counts,
        "samples": event_counts.get("sim_sample", 0),
        "spans": span_totals,
    }


def format_report(summary: dict, title: Optional[str] = None) -> str:
    """Render a summary as the human-readable ``repro obs report`` text."""
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(f"wall time           : {summary['wall_s']:.3f} s")
    lines.append(
        f"overall utilization : {summary['utilization'] * 100:.1f}% "
        f"across {len(summary['processes'])} process(es)"
    )
    lines.append("")
    lines.append("per-process utilization")
    for proc in sorted(summary["processes"]):
        entry = summary["processes"][proc]
        lines.append(
            f"  {proc:<28} busy {entry['busy_s']:>9.3f} s "
            f"({entry['utilization'] * 100:5.1f}%)  "
            f"{entry['points']} point(s)"
        )
    stragglers = summary["stragglers"]
    lines.append("")
    lines.append(f"point durations ({stragglers['points']} simulate span(s))")
    lines.append(
        f"  p50 {stragglers['p50_s']:.3f} s   p90 {stragglers['p90_s']:.3f} s   "
        f"p99 {stragglers['p99_s']:.3f} s   max {stragglers['max_s']:.3f} s"
    )
    cache = summary["cache"]
    lines.append("")
    lines.append(
        f"result cache        : {cache['hits']} hit(s), {cache['misses']} "
        f"miss(es) ({cache['hit_rate'] * 100:.1f}% hit rate), "
        f"{cache['puts']} put(s)"
    )
    if summary["samples"]:
        lines.append(f"sim samples         : {summary['samples']}")
    return "\n".join(lines) + "\n"
