"""Build-on-first-use loader of the compiled fused kernel (``_fused.c``).

The batch core's access kernel is a CPython extension compiled from
``_fused.c`` with the installed C compiler the first time a simulation asks
for it (never at import).  The shared object lands in this package's
``__pycache__`` as ``_fused-<key><EXT_SUFFIX>``, where ``key`` hashes the C
source, the interpreter ABI (``EXT_SUFFIX``) and the compiler flags, so an
edited source, another interpreter or other flags build a new file and a
matching one is loaded without looking for a compiler.  Deleting the file
forces a rebuild.  A build writes a private temporary file and publishes it
with :func:`os.replace`, so processes that build at the same time (engine
pool workers) each end up loading a complete file.  After a build, the
files of other keys (earlier sources) are deleted.

:func:`load` returns the module, or raises :class:`NativeUnavailable` saying
why it cannot; :func:`unavailable_reason` memoizes that once per process.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

SOURCE = Path(__file__).with_name("_fused.c")
BUILD_DIR = SOURCE.parent / "__pycache__"
CFLAGS = ("-O2", "-shared", "-fPIC", "-fno-strict-aliasing")
#: Seconds a compile may take before the build counts as failed.
BUILD_TIMEOUT_S = 300


class NativeUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded here."""


def compiler() -> str:
    """Path of the C compiler used for the build."""
    for name in ("gcc", "cc"):
        path = shutil.which(name)
        if path:
            return path
    raise NativeUnavailable("no C compiler (gcc or cc) on PATH")


def artifact_path(build_dir: Optional[Path] = None) -> Path:
    """Where the shared object for this source, ABI and flags lives."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(suffix.encode())
    digest.update(" ".join(CFLAGS).encode())
    return Path(build_dir or BUILD_DIR) / f"_fused-{digest.hexdigest()[:16]}{suffix}"


def build(target: Path) -> None:
    """Compile the kernel to ``target`` through a private temporary file."""
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        raise NativeUnavailable(f"Python.h not found in {include}")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=".fused-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        completed = subprocess.run(
            [compiler(), *CFLAGS, f"-I{include}", str(SOURCE), "-o", temp],
            capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S, check=False,
        )
        if completed.returncode != 0:
            message = (completed.stderr or completed.stdout).strip().splitlines()
            raise NativeUnavailable(
                f"compiler exited {completed.returncode}: "
                + (message[-1] if message else "no output")
            )
        os.replace(temp, target)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def remove_stale(target: Path) -> None:
    """Delete the shared objects of other keys next to ``target``.

    A file another process still has loaded or is replacing may refuse or
    vanish; it is left to a later build.
    """
    for path in target.parent.glob("_fused-*"):
        if path.name != target.name:
            try:
                path.unlink()
            except OSError:
                pass


def load(build_dir: Optional[Path] = None):
    """The kernel module, built into ``build_dir`` when no cached file fits."""
    try:
        target = artifact_path(build_dir)
        if not target.is_file():
            build(target)
            remove_stale(target)
        spec = importlib.util.spec_from_file_location("repro.sim._fused", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except NativeUnavailable:
        raise
    except (OSError, ImportError, subprocess.SubprocessError) as error:
        raise NativeUnavailable(f"{type(error).__name__}: {error}") from error
    return module


_KERNEL = None
_REASON: Optional[str] = None


def kernel():
    """The loaded kernel module (None when unavailable; see the reason)."""
    unavailable_reason()
    return _KERNEL


def unavailable_reason() -> Optional[str]:
    """Why the kernel cannot run in this process, or None once it is loaded.

    The first call loads (and if needed builds) the kernel; the outcome is
    kept for the life of the process.
    """
    global _KERNEL, _REASON
    if _KERNEL is None and _REASON is None:
        try:
            _KERNEL = load()
        except NativeUnavailable as error:
            _REASON = str(error)
    return _REASON


def main() -> int:
    """Build or load the kernel; 1 with the reason on stderr when it cannot."""
    reason = unavailable_reason()
    if reason is not None:
        print(f"native kernel unavailable: {reason}", file=sys.stderr)
        return 1
    print(f"native kernel loaded from {kernel().__file__}")
    return 0
