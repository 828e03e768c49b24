"""Measures sketch: min, max, first and second moments.

Stored per numeric (and date) column per partition. For columns whose
values are always positive, the same moments are also tracked on the
log-transformed column (paper section 3.1), which is what lets PS3 handle
multiplicative aggregates "in some cases" (footnote 2).

Construction is a single O(R) pass; storage is O(1) (Table 1). The sketch
is mergeable: moments add, extrema take min/max.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

_FORMAT = "<Q10d?"  # count, 10 doubles, has_log flag


@dataclass
class MeasuresSketch:
    """Streaming moments/extrema, optionally with log-domain variants."""

    track_log: bool = False
    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = field(default=np.inf)
    maximum: float = field(default=-np.inf)
    log_total: float = 0.0
    log_total_sq: float = 0.0
    log_minimum: float = field(default=np.inf)
    log_maximum: float = field(default=-np.inf)

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of values into the sketch (one pass, vectorized)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.total_sq += float(np.square(values).sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))
        if self.track_log:
            if float(values.min()) <= 0.0:
                # The column was declared positive but is not; disable the
                # log channel rather than produce NaNs.
                self.track_log = False
            else:
                logs = np.log(values)
                self.log_total += float(logs.sum())
                self.log_total_sq += float(np.square(logs).sum())
                self.log_minimum = min(self.log_minimum, float(logs.min()))
                self.log_maximum = max(self.log_maximum, float(logs.max()))

    def merge(self, other: MeasuresSketch) -> None:
        """Fold another sketch into this one (partition-parallel builds)."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        if self.track_log and other.track_log:
            self.log_total += other.log_total
            self.log_total_sq += other.log_total_sq
            self.log_minimum = min(self.log_minimum, other.log_minimum)
            self.log_maximum = max(self.log_maximum, other.log_maximum)
        else:
            self.track_log = False

    # -- derived statistics (the feature values of Table 2) ---------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def mean_sq(self) -> float:
        return self.total_sq / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if not self.count:
            return 0.0
        var = max(self.mean_sq - self.mean**2, 0.0)
        return float(np.sqrt(var))

    @property
    def log_mean(self) -> float:
        if not (self.track_log and self.count):
            return 0.0
        return self.log_total / self.count

    @property
    def log_mean_sq(self) -> float:
        if not (self.track_log and self.count):
            return 0.0
        return self.log_total_sq / self.count

    def min_value(self) -> float:
        return self.minimum if self.count else 0.0

    def max_value(self) -> float:
        return self.maximum if self.count else 0.0

    def log_min_value(self) -> float:
        return self.log_minimum if (self.track_log and self.count) else 0.0

    def log_max_value(self) -> float:
        return self.log_maximum if (self.track_log and self.count) else 0.0

    def table2(self) -> tuple[float, ...]:
        """The nine measure statistics of paper Table 2, in feature order."""
        return (
            self.mean,
            self.mean_sq,
            self.std,
            self.min_value(),
            self.max_value(),
            self.log_mean,
            self.log_mean_sq,
            self.log_min_value(),
            self.log_max_value(),
        )

    # -- batch construction ------------------------------------------------

    @classmethod
    def build_segmented(
        cls, values: np.ndarray, offsets: np.ndarray, track_log: bool | list = False
    ) -> list[MeasuresSketch]:
        """Per-partition measures over a fused column in one chunked pass.

        ``values`` is the concatenation of every partition's column and
        ``offsets`` the partition boundaries (``offsets[p]:offsets[p+1]``
        is partition ``p``; segments must be non-empty). ``track_log`` is
        one flag for every segment or one per segment. Matches
        ``MeasuresSketch(track_log=...).update(slice)`` bit for bit:
        sums reuse ``ndarray.sum`` on the same slices so the pairwise
        summation chains are identical, extrema come from vectorized
        ``reduceat``, and the log channel applies the same
        disable-on-nonpositive guard per partition.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        if n == 0:
            return []
        values = np.asarray(values, dtype=np.float64)
        mins = np.minimum.reduceat(values, offsets[:-1])
        maxs = np.maximum.reduceat(values, offsets[:-1])
        # reduceat propagates NaN, but the scalar plane's
        # min(default, float(nan)) keeps the default (NaN comparisons are
        # False) and its nonpositive guard `nan <= 0.0` keeps the log
        # channel *enabled* (log moments go NaN, log extrema keep their
        # defaults). Replay all of that exactly for NaN segments.
        nan_seg = np.isnan(mins)
        squares = np.square(values)
        track = np.broadcast_to(np.asarray(track_log, dtype=bool), n)
        logs = log_squares = None
        if track.all() and bool((mins > 0.0).all()):
            logs = np.log(values)
            log_squares = np.square(logs)
        out = []
        for p in range(n):
            sketch = cls(track_log=bool(track[p]))
            lo, hi = int(offsets[p]), int(offsets[p + 1])
            if hi == lo:  # update() is a no-op on empty batches
                out.append(sketch)
                continue
            has_nan = bool(nan_seg[p])
            sketch.count = hi - lo
            # 0.0 + x replays the scalar accumulation from the default.
            sketch.total = 0.0 + float(values[lo:hi].sum())
            sketch.total_sq = 0.0 + float(squares[lo:hi].sum())
            if not has_nan:
                sketch.minimum = float(mins[p])
                sketch.maximum = float(maxs[p])
            if track[p]:
                if not has_nan and float(mins[p]) <= 0.0:
                    sketch.track_log = False
                elif has_nan:
                    # Scalar: np.log over a NaN-bearing slice -> NaN sums;
                    # extrema keep their inf/-inf defaults.
                    sketch.log_total = float("nan")
                    sketch.log_total_sq = float("nan")
                else:
                    if logs is None:  # some other segment was nonpositive
                        logs = np.log(
                            np.where(values > 0.0, values, 1.0)
                        )
                        log_squares = np.square(logs)
                    sketch.log_total = 0.0 + float(logs[lo:hi].sum())
                    sketch.log_total_sq = 0.0 + float(log_squares[lo:hi].sum())
                    sketch.log_minimum = float(np.log(mins[p]))
                    sketch.log_maximum = float(np.log(maxs[p]))
            out.append(sketch)
        return out

    # -- serialization -----------------------------------------------------

    def size_bytes(self) -> int:
        return struct.calcsize(_FORMAT)

    def to_bytes(self) -> bytes:
        return struct.pack(
            _FORMAT,
            self.count,
            self.total,
            self.total_sq,
            self.minimum,
            self.maximum,
            self.log_total,
            self.log_total_sq,
            self.log_minimum,
            self.log_maximum,
            0.0,  # reserved
            0.0,  # reserved
            self.track_log,
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> MeasuresSketch:
        if len(payload) != struct.calcsize(_FORMAT):
            raise ConfigError("corrupt MeasuresSketch payload")
        (count, total, total_sq, mn, mx, lt, lts, lmn, lmx, __, ___, track) = (
            struct.unpack(_FORMAT, payload)
        )
        sketch = cls(track_log=bool(track))
        sketch.count = count
        sketch.total = total
        sketch.total_sq = total_sq
        sketch.minimum = mn
        sketch.maximum = mx
        sketch.log_total = lt
        sketch.log_total_sq = lts
        sketch.log_minimum = lmn
        sketch.log_maximum = lmx
        return sketch
