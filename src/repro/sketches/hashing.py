"""Stable 64-bit hashing for sketch inputs.

Every hash here is stable across processes (python's builtin ``hash`` is
salted) and close to uniform on [0, 2^64). Two functions produce them:

* **Numbers that feed an AKMV sketch** (numeric and date columns, as
  float64) take :func:`mix64`, one splitmix64 step over the value's
  float64 bits: a bijection, so distinct bit patterns never collide, and
  a handful of in-place ``uint64`` numpy ops instead of one digest call
  per distinct value. AKMV only needs uniformity, and nothing probes an
  AKMV sketch with a key, so these bits stay inside the sketch.
* **Everything a query probes, and strings** take :func:`hash_value`'s
  blake2b-64: heavy-hitter and exact-dictionary lookup keys, hashed
  (categorical) histograms, occurrence bitmaps and compiled ``InSet``
  probes. Their bits are persisted in statistics bundles and recomputed
  per probe, so they must never change.

Arrays are hashed per *distinct* value (via ``np.unique``) and broadcast
back, so ``0.0`` and ``-0.0`` (equal values, different bits) hash alike.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_UINT64_MAX_PLUS_1 = float(2**64)
_MIX_BLOCK = 1 << 15  # values mixed per in-place block (256 KiB)


def hash_value(value: object) -> int:
    """Stable 64-bit blake2b hash of a single value (string or float)."""
    if isinstance(value, (np.str_, str)):
        payload = str(value).encode("utf-8")
    else:
        payload = struct.pack("<d", float(value))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def mix64(values: np.ndarray) -> np.ndarray:
    """Splitmix64 of each value's float64 bits (a bijection on uint64).

    Mixed in place a block at a time, so the shift temporaries stay
    cache-sized and the peak is the output plus one block.
    """
    out = np.asarray(values, dtype=np.float64).view(np.uint64) + np.uint64(
        0x9E3779B97F4A7C15
    )
    for start in range(0, len(out), _MIX_BLOCK):
        z = out[start : start + _MIX_BLOCK]
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return out


def hash_distinct(uniques: np.ndarray) -> np.ndarray:
    """Hash already-distinct values: numbers by :func:`mix64`, the rest
    (strings, bytes) by :func:`hash_value` one at a time."""
    if uniques.dtype.kind in "biuf":
        return mix64(uniques)
    return np.fromiter(
        (hash_value(v) for v in uniques), dtype=np.uint64, count=len(uniques)
    )


def hash_array(values: np.ndarray) -> np.ndarray:
    """Stable element-wise 64-bit hashes of an array of values."""
    uniques, inverse = np.unique(values, return_inverse=True)
    return hash_distinct(uniques)[inverse]


def normalize_hashes(hashes: np.ndarray) -> np.ndarray:
    """Map uint64 hashes into [0, 1) floats (for KMV-style estimators)."""
    return hashes.astype(np.float64) / _UINT64_MAX_PLUS_1
