"""Single-line live progress rendering for ``repro figure/sweep --progress``.

On a TTY the line redraws in place via carriage return; piped to a file or
CI log it degrades to occasional plain lines, throttled harder so logs stay
readable.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.sim.engine import CampaignReport


def format_eta(seconds: Optional[float]) -> str:
    """Compact human ETA (``--`` when unknown)."""
    if seconds is None or seconds != seconds or seconds < 0:
        return "--"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


class ProgressLine:
    """Throttled one-line status renderer (TTY redraw / log-friendly lines)."""

    def __init__(
        self,
        stream=None,
        enabled: Optional[bool] = None,
        min_interval_s: Optional[float] = None,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.tty = tty
        #: Default on for interactive terminals, off when piped -- callers
        #: (``--progress/--no-progress``) override explicitly.
        self.enabled = tty if enabled is None else enabled
        # Redraws are cheap on a TTY; plain lines in a CI log are not.
        self.min_interval_s = (
            min_interval_s if min_interval_s is not None
            else (0.2 if tty else 5.0)
        )
        self._last_emit = 0.0
        self._last_text = ""
        self._width = 0

    def update(self, text: str, force: bool = False) -> None:
        """Render ``text`` as the current status (throttled)."""
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last_emit < self.min_interval_s:
            return
        if text == self._last_text and not force:
            return
        self._last_emit = now
        self._last_text = text
        if self.tty:
            pad = max(0, self._width - len(text))
            self.stream.write("\r" + text + " " * pad)
            self._width = len(text)
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def finish(self, text: Optional[str] = None) -> None:
        """Emit a final line and terminate the in-place redraw."""
        if not self.enabled:
            return
        if text is not None:
            self.update(text, force=True)
        if self.tty and self._last_text:
            self.stream.write("\n")
            self.stream.flush()
        self._last_text = ""
        self._width = 0


def campaign_eta_s(
    report: CampaignReport, total: int, workers: int
) -> Optional[float]:
    """Remaining-time estimate: remaining points x median executed wall time
    spread over ``workers`` lanes.  None until an executed sample exists
    (cache hits are excluded -- they predict nothing about simulations)."""
    executed = [o.wall_s for o in report.outcomes if o.status != "cached"]
    if not executed:
        return None
    p50 = report.wall_time_percentiles()["p50"]
    remaining = max(0, total - len(report.outcomes))
    return remaining * p50 / max(1, workers)


def campaign_progress(line: ProgressLine, label: str = "campaign"):
    """An ``engine.run(progress=...)`` callback rendering onto ``line``."""

    def callback(report: CampaignReport, total: int) -> None:
        done = len(report.outcomes)
        parts = [f"{label}: {done}/{total} points"]
        if report.succeeded:
            parts.append(f"{report.succeeded} ok")
        if report.cached:
            parts.append(f"{report.cached} cached")
        if done:
            parts.append(f"hit {report.cached / done:.0%}")
        parts.append(
            f"eta {format_eta(campaign_eta_s(report, total, report.jobs))}"
        )
        line.update(" | ".join(parts), force=done >= total)

    return callback
