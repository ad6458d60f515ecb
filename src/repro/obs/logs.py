"""Named ``repro.*`` loggers behind ``--log-level`` / ``REPRO_LOG``.

All operational diagnostics (result-cache and trace-store quarantine, an
invalid cache size cap, batch-core fallbacks) go through ``repro.*``
loggers such as those from :func:`get_logger`.  Without
:func:`setup_logging`, Python's last-resort handler still prints WARNING
and above to stderr, so converting the old ad-hoc ``warnings.warn``
sites loses nothing for bare library users; the CLI calls
:func:`setup_logging` early so ``--log-level debug`` (or
``REPRO_LOG=debug``) surfaces the full stream with timestamps.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

#: Environment fallback for the CLI's ``--log-level``.
LOG_ENV = "REPRO_LOG"

ROOT_LOGGER = "repro"

_configured = False


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace (``get_logger("cache")``)."""
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def resolve_level(level: Optional[str] = None) -> int:
    """Map a CLI/env level string to a logging level (default WARNING)."""
    raw = level or os.environ.get(LOG_ENV) or "warning"
    resolved = logging.getLevelName(str(raw).strip().upper())
    if not isinstance(resolved, int):
        return logging.WARNING
    return resolved


def setup_logging(level: Optional[str] = None, stream=None) -> logging.Logger:
    """Attach one stderr handler to the ``repro`` root logger.

    ``level`` falls back to ``REPRO_LOG`` then WARNING.  Idempotent:
    repeated calls adjust the level instead of stacking handlers.
    Propagation to the process root logger is left on (the root normally
    has no handlers, so nothing double-prints) so that test harnesses
    capturing at the root still see ``repro.*`` records.  Returns the
    configured logger.
    """
    global _configured
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(resolve_level(level))
    if not _configured or not root.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(handler)
        _configured = True
    return root
