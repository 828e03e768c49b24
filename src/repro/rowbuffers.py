"""Append-only arrays: prefix views of buffers with spare rows.

Everything that grows by whole partitions — a table's columns, the
columnar index's per-partition rows and its histograms' probe arrays,
the feature builder's static block, the picker's normalized copy of it,
the fused view's row ids and dictionary codes — is held as views
``buffer[:used]`` of buffers with spare rows behind them. An append
writes its own rows into the spare and takes longer views; the arrays
are copied only when the spare runs out, with :data:`_SPARE_SHARE` of
their length spare again, so an append costs its rows, not the rows it
joins.

Rows below ``used`` are never rewritten, so whoever holds shorter views
— an older generation — keeps reading exactly its own rows. Only the
holder of the views of length ``used`` (the newest generation) may
extend in place; growing an older generation, or arrays that are no
views of these buffers (a cold-loaded bundle's, frozen or not), copies
as if there were no spare.
"""

from __future__ import annotations

import threading

import numpy as np

#: Spare rows allocated behind arrays when an append has to copy them,
#: as a share of their length; later appends write into the spare.
_SPARE_SHARE = 0.5
_LOCK = threading.Lock()


class RowBuffers:
    """Buffers, by name, whose first ``used`` rows are taken."""

    def __init__(self, buffers: dict[str, np.ndarray], used: int) -> None:
        self.buffers = buffers
        self.used = used

    def claim(
        self, held: dict[str, np.ndarray], stop: int, new: dict[str, np.ndarray]
    ) -> bool:
        """Reserve rows ``used:stop`` for the caller when ``held`` are the
        newest views, the rows fit, and ``new`` stores losslessly in the
        buffers' dtypes and row shapes."""
        with _LOCK:
            fits = all(
                held[name].base is buffer
                and len(held[name]) == self.used
                and stop <= len(buffer)
                and new[name].shape[1:] == buffer.shape[1:]
                and (
                    new[name].dtype == buffer.dtype
                    or np.result_type(buffer, new[name]) == buffer.dtype
                )
                for name, buffer in self.buffers.items()
            )
            if fits:
                self.used = stop
            return fits


def grow(
    held: dict[str, np.ndarray],
    new: dict[str, np.ndarray],
    buffers: RowBuffers | None,
) -> tuple[dict[str, np.ndarray], RowBuffers]:
    """``held`` with ``new``'s rows below, as views of ``buffers``.

    ``held`` and ``new`` name the same arrays, of equal lengths each and
    equal shapes past the first axis. Returns the longer views and the
    buffers they view: ``buffers`` when ``held`` are its newest views
    and the rows fit, else fresh ones holding a copy of ``held``.
    """
    start = len(next(iter(held.values())))
    stop = start + len(next(iter(new.values())))
    if buffers is None or not buffers.claim(held, stop, new):
        size = stop + int(stop * _SPARE_SHARE)
        fresh = {}
        for name, rows in new.items():
            old = held[name]
            fresh[name] = np.empty(
                (size, *old.shape[1:]), dtype=np.result_type(old, rows)
            )
            fresh[name][:start] = old
        buffers = RowBuffers(fresh, stop)
    for name, rows in new.items():
        buffers.buffers[name][start:stop] = rows
    return {name: buffer[:stop] for name, buffer in buffers.buffers.items()}, buffers
