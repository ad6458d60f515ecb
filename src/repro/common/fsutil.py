"""Atomic file writes for the on-disk stores.

Result-cache entries live in a directory that several processes (engine
pool workers, overlapping runs) may write concurrently.  Every writer
follows the same discipline: write to a uniquely named temp file in the
destination directory, then ``os.replace`` it into place.  A reader can
then never observe a torn entry, and two racing writers of the same path
each install a complete payload (last one wins) instead of interleaving
bytes.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path


def atomic_write_json(path: Path | str, payload: dict, *, sort_keys: bool = True) -> int:
    """Atomically write ``payload`` as JSON to ``path``; return bytes written.

    The temp file carries a unique suffix so concurrent writers of the same
    path never collide on the temp name; the final ``os.replace`` is atomic
    on POSIX filesystems (including NFS renames within one directory).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    encoded = json.dumps(payload, sort_keys=sort_keys).encode("utf-8")
    tmp_path = target.with_name(f".{target.stem}-{uuid.uuid4().hex[:8]}.tmp")
    try:
        with tmp_path.open("wb") as fh:
            fh.write(encoded)
        os.replace(tmp_path, target)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return len(encoded)

