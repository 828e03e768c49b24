"""Atomic, crash-safe file replacement with a last-good backup.

Every durable artifact in this package (statistics bundles, model
files, WAL truncation markers) goes through :func:`atomic_write_bytes`:

1. the new bytes are written to a ``<name>.tmp`` sibling and fsynced;
2. the current file (if any) is hard-linked to ``<name>.bak`` — a
   constant-time snapshot of the last good generation (falls back to a
   byte copy on filesystems without hard links);
3. ``os.replace`` swaps the temp file in — the POSIX-atomic step;
4. the directory entry is fsynced so the rename itself is durable.

At *every* crash point the target path therefore holds either the old
bytes or the new bytes, never a mixture, and ``<name>.bak`` holds the
previous generation for corruption fallback
(:func:`repro.storage.stats_io.recover_statistics_bundle`).

All filesystem touches go through an injectable :class:`FileIO`
backend. Production uses the module default; the fault-injection
harness (:mod:`repro.storage.faults`) substitutes a backend that
crashes deterministically at any operation or byte offset, which is how
the kill-point sweep proves the guarantee above instead of asserting
it. Reads of durable artifacts use :func:`read_with_retry`, which
retries transient ``EIO``/``EINTR`` with capped exponential backoff.
"""

from __future__ import annotations

import errno
import os
import time
from pathlib import Path

from repro.errors import StorageError

_TRANSIENT_ERRNOS = (errno.EIO, errno.EINTR)


class FileIO:
    """Real-filesystem backend; the seam the fault injector replaces.

    Handles returned by :meth:`open` are plain binary file objects;
    subclasses may return anything their own ``write``/``fsync``/
    ``close`` understand.
    """

    def open(self, path: str | Path, mode: str):
        return open(path, mode)

    def write(self, handle, data: bytes) -> None:
        handle.write(data)

    def fsync(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def link_or_copy(self, src: str | Path, dst: str | Path) -> None:
        """Hard-link ``src`` to ``dst`` (constant time), copying if not
        supported; ``dst`` must not exist."""
        try:
            os.link(src, dst)
        except OSError:
            Path(dst).write_bytes(Path(src).read_bytes())

    def fsync_dir(self, path: str | Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directories
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def exists(self, path: str | Path) -> bool:
        return os.path.exists(path)

    def unlink(self, path: str | Path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


DEFAULT_IO = FileIO()


def temp_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def backup_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".bak")


def atomic_write_bytes(
    path: str | Path,
    data: bytes,
    *,
    io: FileIO | None = None,
    keep_backup: bool = True,
) -> None:
    """Replace ``path`` with ``data`` atomically (see module docstring).

    On any failure the target is untouched (old bytes or absent) and the
    temp sibling is removed best-effort; ``OSError`` is re-raised as
    :class:`StorageError` with the failing step named.
    """
    io = io or DEFAULT_IO
    path = Path(path)
    tmp = temp_path(path)
    try:
        handle = io.open(tmp, "wb")
        try:
            io.write(handle, data)
            io.fsync(handle)
        finally:
            io.close(handle)
        if keep_backup and io.exists(path):
            bak = backup_path(path)
            bak_tmp = Path(str(bak) + ".tmp")
            io.unlink(bak_tmp)
            io.link_or_copy(path, bak_tmp)
            io.replace(bak_tmp, bak)
        io.replace(tmp, path)
        io.fsync_dir(path.parent)
    except OSError as error:
        io.unlink(tmp)
        raise StorageError(
            f"atomic write of {path} failed: {error}"
        ) from error


def read_with_retry(
    path: str | Path,
    *,
    io: FileIO | None = None,
    retries: int = 4,
    backoff: float = 0.01,
    max_backoff: float = 0.25,
) -> bytes:
    """Read a file, retrying transient ``EIO``/``EINTR`` with capped
    exponential backoff; other ``OSError`` values propagate immediately.
    """
    io = io or DEFAULT_IO
    delay = backoff
    for attempt in range(retries + 1):
        try:
            return io.read_bytes(path)
        except OSError as error:
            if error.errno not in _TRANSIENT_ERRNOS or attempt == retries:
                raise
            io.sleep(delay)
            delay = min(delay * 2, max_backoff)
    raise AssertionError("unreachable")  # pragma: no cover


def cleanup_stale_temps(path: str | Path, *, io: FileIO | None = None) -> None:
    """Remove leftover ``.tmp`` siblings of ``path`` from crashed writes."""
    io = io or DEFAULT_IO
    io.unlink(temp_path(path))
    io.unlink(Path(str(backup_path(path)) + ".tmp"))
