"""Exact value dictionaries for low-cardinality string columns.

Paper section 3.2: "if a string column has a small number of distinct
values, all distinct values and their frequencies are stored exactly; this
can support regex-style textual filters" (e.g. ``'%promo%'``). The
dictionary tracks value -> count up to a configurable cap; if the column
exceeds the cap the dictionary disables itself and downstream selectivity
estimation falls back to histogram/heavy-hitter paths.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class ExactDictionary:
    """Exact (value, count) dictionary with a cardinality cap."""

    limit: int = 256
    total: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    overflowed: bool = False
    # Memoized value -> fraction table: rebuilt lazily after update/merge,
    # shared by the per-clause estimators and the columnar exporter.
    _fraction_cache: dict[str, float] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ConfigError("dictionary limit must be positive")

    @classmethod
    def build(cls, values: np.ndarray, limit: int = 256) -> ExactDictionary:
        dictionary = cls(limit=limit)
        dictionary.update(values)
        return dictionary

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.size == 0:
            return
        self._fraction_cache = None
        self.total += int(values.size)
        if self.overflowed:
            return
        uniques, counts = np.unique(values, return_counts=True)
        for value, count in zip(uniques, counts):
            self.counts[str(value)] = self.counts.get(str(value), 0) + int(count)
        if len(self.counts) > self.limit:
            self.counts.clear()
            self.overflowed = True

    def merge(self, other: ExactDictionary) -> None:
        self._fraction_cache = None
        self.total += other.total
        if self.overflowed or other.overflowed:
            self.counts.clear()
            self.overflowed = True
            return
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count
        if len(self.counts) > self.limit:
            self.counts.clear()
            self.overflowed = True

    # -- queries -------------------------------------------------------------

    @property
    def usable(self) -> bool:
        return not self.overflowed

    def fractions(self) -> dict[str, float]:
        """Exact value -> fraction-of-rows table (empty when unusable)."""
        if not self.usable or self.total == 0:
            return {}
        if self._fraction_cache is None:
            self._fraction_cache = {
                value: count / self.total for value, count in self.counts.items()
            }
        return self._fraction_cache

    def fraction_eq(self, value: str) -> float:
        """Exact fraction of rows equal to ``value`` (0 when unusable)."""
        if not self.usable or self.total == 0:
            return 0.0
        return self.fractions().get(value, 0.0)

    def fraction_containing(self, text: str) -> float:
        """Exact fraction of rows whose value contains ``text``."""
        if not self.usable or self.total == 0:
            return 0.0
        hit = sum(count for value, count in self.counts.items() if text in value)
        return hit / self.total

    # -- serialization -----------------------------------------------------

    def size_bytes(self) -> int:
        size = struct.calcsize("<IQ?I")
        for value in self.counts:
            size += struct.calcsize("<IQ") + len(value.encode("utf-8"))
        return size

    def to_bytes(self) -> bytes:
        out = [struct.pack("<IQ?I", self.limit, self.total, self.overflowed,
                           len(self.counts))]
        for value, count in self.counts.items():
            encoded = value.encode("utf-8")
            out.append(struct.pack("<IQ", len(encoded), count))
            out.append(encoded)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, payload: bytes) -> ExactDictionary:
        header_size = struct.calcsize("<IQ?I")
        limit, total, overflowed, size = struct.unpack("<IQ?I", payload[:header_size])
        dictionary = cls(limit=int(limit))
        dictionary.total = int(total)
        dictionary.overflowed = bool(overflowed)
        offset = header_size
        for __ in range(size):
            length, count = struct.unpack_from("<IQ", payload, offset)
            offset += struct.calcsize("<IQ")
            value = payload[offset : offset + length].decode("utf-8")
            offset += length
            dictionary.counts[value] = int(count)
        return dictionary
