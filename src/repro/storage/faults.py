"""Deterministic fault injection for the durability plane.

:class:`FaultyIO` is a drop-in :class:`~repro.storage.atomic.FileIO`
backend that models a machine which can die at any moment:

* **kill points** — every mutating filesystem operation (write, fsync,
  rename, link, unlink, truncation) increments an operation counter;
  ``crash_at_op=k`` raises :class:`SimulatedCrash` *before* operation
  ``k`` executes. Run once with a plain recording backend to learn the
  operation count, then sweep ``k`` over the whole range: that
  enumerates every crash point of a save/append/checkpoint exactly once.
* **torn writes** — ``crash_after_bytes=n`` (and ``enospc_after_bytes``)
  cut a write mid-buffer: the first ``n`` bytes land, the rest never do.
* **lost page cache** — written bytes live in a per-handle buffer until
  ``fsync``; a crash discards everything unsynced. A missing fsync
  before a rename therefore *loses data in the test*, exactly as it
  would on a real power cut — fsync placement is verified, not assumed.
* **bit-rot** — ``flip_byte_at=offset`` silently XORs one bit of the
  byte at that cumulative write offset, modeling storage that lies.
* **sick reads** — ``fail_reads=k`` makes the first ``k``
  ``read_bytes`` calls raise ``EIO`` (exercising the retry path);
  ``sleep`` is recorded, not slept.

The model is intentionally conservative about renames: ``os.replace``
is treated as immediately durable (journalled-metadata behavior). The
writer still fsyncs the directory, but the sweep does not enumerate a
lost-rename outcome.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

from repro.storage.atomic import FileIO


class SimulatedCrash(BaseException):
    """The injected machine death.

    Derives from ``BaseException`` so no library ``except Exception``
    can swallow it — after a crash nothing else runs, as in life.
    """


class _BufferedHandle:
    """A file handle whose writes are volatile until fsynced."""

    __slots__ = ("path", "mode", "pending", "synced_base")

    def __init__(self, path: Path, mode: str) -> None:
        self.path = path
        self.mode = mode
        self.pending = bytearray()
        if "a" in mode and path.exists():
            self.synced_base = path.read_bytes()
        elif "w" in mode:
            self.synced_base = b""
        else:
            self.synced_base = path.read_bytes() if path.exists() else b""


class FaultyIO(FileIO):
    """Fault-injecting, durability-modeling filesystem backend."""

    def __init__(
        self,
        *,
        crash_at_op: int | None = None,
        crash_after_bytes: int | None = None,
        enospc_after_bytes: int | None = None,
        flip_byte_at: int | None = None,
        fail_reads: int = 0,
        torn_rename: bool = False,
    ) -> None:
        self.crash_at_op = crash_at_op
        self.crash_after_bytes = crash_after_bytes
        self.enospc_after_bytes = enospc_after_bytes
        self.flip_byte_at = flip_byte_at
        self.fail_reads = fail_reads
        self.torn_rename = torn_rename
        self.ops_done = 0
        self.bytes_written = 0
        self.reads_failed = 0
        self.sleeps: list[float] = []
        self.crashed = False
        self._open_handles: list[_BufferedHandle] = []

    # -- fault machinery ----------------------------------------------------

    def _crash(self) -> None:
        self.crashed = True
        raise SimulatedCrash(f"simulated crash at op {self.ops_done}")

    def _op(self, name: str) -> None:
        """Count a mutating operation; crash before it if scheduled."""
        if self.crash_at_op is not None and self.ops_done == self.crash_at_op:
            self._crash()
        self.ops_done += 1

    def _durable_prefix(self, data: bytes) -> bytes:
        """How much of ``data`` lands, honoring byte-level faults."""
        cut = len(data)
        for limit in (self.crash_after_bytes, self.enospc_after_bytes):
            if limit is not None:
                cut = min(cut, max(0, limit - self.bytes_written))
        landed = bytearray(data[:cut])
        if self.flip_byte_at is not None:
            offset = self.flip_byte_at - self.bytes_written
            if 0 <= offset < len(landed):
                landed[offset] ^= 0x40
        return bytes(landed)

    # -- FileIO interface ---------------------------------------------------

    def open(self, path, mode: str):
        handle = _BufferedHandle(Path(path), mode)
        self._open_handles.append(handle)
        return handle

    def write(self, handle: _BufferedHandle, data: bytes) -> None:
        self._op("write")
        landed = self._durable_prefix(data)
        handle.pending.extend(landed)
        self.bytes_written += len(landed)
        if len(landed) < len(data):
            if (
                self.enospc_after_bytes is not None
                and self.bytes_written >= self.enospc_after_bytes
            ):
                # ENOSPC is an error the process survives: flush what
                # landed so the partial file is visible, as it would be.
                self._flush(handle)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)) from None
            # A byte-level crash models the worst case: the torn prefix
            # made it to disk (page cache written back) before the power
            # cut, so recovery must cope with a visible partial write.
            self._flush(handle)
            self._crash()
        if (
            self.crash_after_bytes is not None
            and self.bytes_written >= self.crash_after_bytes
        ):
            self._flush(handle)
            self._crash()

    def _flush(self, handle: _BufferedHandle) -> None:
        mode = "ab" if "a" in handle.mode else "wb"
        with open(handle.path, mode) as real:
            if mode == "wb":
                real.write(handle.synced_base + handle.pending)
                handle.synced_base += bytes(handle.pending)
            else:
                real.write(bytes(handle.pending))
        handle.pending.clear()

    def fsync(self, handle: _BufferedHandle) -> None:
        self._op("fsync")
        self._flush(handle)

    def close(self, handle: _BufferedHandle) -> None:
        # Unsynced bytes at close survive a clean exit (page cache) but
        # not a crash — the discard models the power cut.
        if not self.crashed:
            self._flush(handle)
        if handle in self._open_handles:
            self._open_handles.remove(handle)

    def replace(self, src, dst) -> None:
        self._op("replace")
        if self.torn_rename:
            # The "torn rename" kill point: the crash lands exactly at
            # the rename boundary; the rename itself never happens.
            self._crash()
        os.replace(src, dst)

    def link_or_copy(self, src, dst) -> None:
        self._op("link")
        super().link_or_copy(src, dst)

    def unlink(self, path) -> None:
        self._op("unlink")
        super().unlink(path)

    def fsync_dir(self, path) -> None:
        self._op("fsync_dir")
        super().fsync_dir(path)

    def read_bytes(self, path) -> bytes:
        if self.reads_failed < self.fail_reads:
            self.reads_failed += 1
            raise OSError(errno.EIO, "injected EIO")
        return super().read_bytes(path)

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)  # recorded, never slept


def count_ops(action) -> int:
    """Run ``action(io)`` against a pure recorder; return its op count.

    The returned count is the sweep bound for ``crash_at_op`` — crash
    indices ``0..count-1`` cover every before-op point, and the clean
    run covers completion.
    """
    recorder = FaultyIO()
    action(recorder)
    return recorder.ops_done


def sweep_kill_points(action, check, *, ops: int | None = None) -> int:
    """Crash ``action`` before every operation; ``check`` after each.

    ``action(io)`` performs the durable mutation under test;
    ``check(io)`` asserts the recovered state is consistent. Returns the
    number of kill points exercised. Each iteration gets a fresh
    :class:`FaultyIO`, so faults do not compound across points.
    """
    total = ops if ops is not None else count_ops(action)
    for kill in range(total):
        io = FaultyIO(crash_at_op=kill)
        try:
            action(io)
        except SimulatedCrash:
            pass
        else:  # pragma: no cover - sweep bound drifted
            raise AssertionError(
                f"kill point {kill} never fired ({io.ops_done} ops)"
            )
        check(io)
    return total
