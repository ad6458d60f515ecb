"""Keyed on-disk entries: what the result cache and the trace store share.

An :class:`EntryStore` wraps one directory holding one entry per key.  An
entry is a file or a directory that its subclass installs atomically (a
uniquely named temp beside it, then ``os.replace``), so a reader sees a
complete entry or none.  The entry's *header* -- the entry file itself, or
a named file inside the entry directory -- marks it complete and gives its
age.  The directory is the subclass's ``DIR_ENV`` environment variable,
else ``DEFAULT_DIR`` in the working directory.

A corrupt entry found on read is *quarantined*: renamed to ``<entry
name>.corrupt`` with one warning and counted as a miss, so the caller
rebuilds it while the broken bytes stay for a post-mortem.  Quarantined
entries count toward the store's size.  Writes never evict;
:meth:`EntryStore.gc` is the one size bound: it evicts the quarantined
entries first, as they can never be read back, then the oldest entries (by
header modification time).
"""

from __future__ import annotations

import logging
import os
import shutil
from pathlib import Path
from typing import Optional


class EntryStore:
    """Directory of keyed entries; subclasses supply the encoding."""

    #: Environment variable overriding :attr:`DEFAULT_DIR`.
    DIR_ENV: str
    #: Default directory (relative to the working directory).
    DEFAULT_DIR: str
    #: Entry name suffix after the key ("" when the name is the key).
    SUFFIX = ""
    #: Header file inside an entry directory; None when the entry is a file.
    HEADER: Optional[str] = None
    #: What the quarantine warning calls an entry (``"result-cache"``).
    NOUN: str
    LOGGER: logging.Logger

    def __init__(self, directory: Optional[Path | str] = None) -> None:
        self.directory = Path(
            directory
            if directory is not None
            else os.environ.get(self.DIR_ENV) or self.DEFAULT_DIR
        )
        #: Lookups served from disk by this instance.
        self.hits = 0
        #: Lookups that found no (readable) entry.
        self.misses = 0

    def path(self, key: str) -> Path:
        """The entry (file or directory) stored under ``key``."""
        return self.directory / f"{key}{self.SUFFIX}"

    def header(self, key: str) -> Path:
        """The file that marks ``key``'s entry complete and dates it."""
        entry = self.path(key)
        return entry / self.HEADER if self.HEADER else entry

    def contains(self, key: str) -> bool:
        """True when a complete entry for ``key`` exists (one ``is_file``;
        counts neither hit nor miss)."""
        return self.header(key).is_file()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def keys(self) -> list[str]:
        """Keys of every complete entry, sorted; temp (``.``-prefixed) and
        quarantined names are skipped."""
        if not self.directory.is_dir():
            return []
        keys = []
        for path in self.directory.iterdir():
            name = path.name
            if name.startswith(".") or name.endswith(".corrupt"):
                continue
            key = name.removesuffix(self.SUFFIX)
            if name.endswith(self.SUFFIX) and self.contains(key):
                keys.append(key)
        return sorted(keys)

    def remove(self, key: str) -> bool:
        """Delete the entry stored under ``key``; True when one existed."""
        return _delete(self.path(key))

    def _next_step(self, key: str) -> str:
        """What the quarantine warning says happens to ``key`` next."""
        raise NotImplementedError

    def _quarantine(self, key: str, reason: Exception) -> None:
        """Rename a corrupt entry aside so the next access rebuilds it."""
        entry = self.path(key)
        target = entry.with_name(entry.name + ".corrupt")
        try:
            if target.is_dir():
                shutil.rmtree(target)
            os.replace(entry, target)
        except OSError:
            return
        self.LOGGER.warning(
            "quarantined corrupt %s entry %s -> %s (%s); %s",
            self.NOUN,
            entry.name,
            target.name,
            reason,
            self._next_step(key),
        )

    def quarantined(self) -> list[Path]:
        """Corrupt entries renamed aside by a read, sorted by name."""
        if not self.directory.is_dir():
            return []
        suffix = f"{self.SUFFIX}.corrupt"
        return sorted(
            path for path in self.directory.iterdir() if path.name.endswith(suffix)
        )

    def entry_size_bytes(self, key: str) -> int:
        """On-disk size of one entry (every file of an entry directory)."""
        return _size(self.path(key))

    def size_bytes(self) -> int:
        """Total on-disk size of every entry, quarantined ones included."""
        return sum(self.entry_size_bytes(key) for key in self.keys()) + sum(
            _size(path) for path in self.quarantined()
        )

    def gc(self, max_bytes: int, dry_run: bool = False) -> tuple[int, int]:
        """Evict entries until the store fits in ``max_bytes``: the
        quarantined ones first, then the oldest (by header modification
        time).

        With ``dry_run`` nothing is deleted; the return value reports what
        a real sweep would do.  Returns ``(entries_removed, bytes_freed)``,
        quarantined entries included.
        """
        stamped = []
        for key in self.keys():
            try:
                mtime = self.header(key).stat().st_mtime
            except OSError:
                continue
            stamped.append((mtime, key))
        victims = [(path, None) for path in self.quarantined()]
        victims += [(self.path(key), key) for _, key in sorted(stamped)]
        sizes = [_size(path) for path, _ in victims]
        excess = sum(sizes) - max_bytes
        removed = freed = 0
        for (path, key), size in zip(victims, sizes):
            if freed >= excess:
                break
            if not dry_run:
                try:
                    if key is None:
                        _delete(path)
                    else:
                        self.remove(key)
                except OSError:
                    continue
            removed += 1
            freed += size
        return (removed, freed)


def _size(entry: Path) -> int:
    """On-disk size of an entry file, or of every file of an entry directory."""
    total = 0
    for path in entry.iterdir() if entry.is_dir() else (entry,):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def _delete(entry: Path) -> bool:
    """Delete an entry file or directory; True when one existed."""
    try:
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()
    except FileNotFoundError:
        return False
    return True
