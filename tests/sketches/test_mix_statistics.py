"""AKMV over ``mix64`` estimates distinct counts as well as over blake2b.

AKMV needs a hash that is uniform on the values a column holds, and
``kdd``'s numeric columns are far from random bit patterns: small
integers stored as floats (only the top mantissa bits vary), rates
``k/100``, heavy-tailed byte counts, and columns with ``±0.0`` and NaN
that the seal hands to its scalar fallback. For each such family this
seals a few hundred partitions and compares the relative error of
``distinct_estimate`` with the error of the same sketch built over
blake2b-64 digests computed here from ``hashlib``.

With k = 128 the estimator's relative error has a standard deviation
near ``1/sqrt(k - 2) = 0.089``; over 160 partitions per family the
median and p90 of its absolute value carry sampling errors near 0.006
and 0.011, so ``TOLERANCE`` is about 5 and 2.6 standard errors of the
gap between two sound hashes. A mix without its multiplies fails it.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.engine.layout import partition_evenly
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.akmv import AKMVSketch
from repro.sketches.builder import build_dataset_statistics
from repro.sketches.hashing import mix64

PARTITIONS, ROWS = 160, 1500
#: Allowed gap, in relative-error units, between the mix's and
#: blake2b's median (and p90) absolute relative error.
TOLERANCE = 0.04


def _families(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Each family's rows, partition after partition.

    Every partition draws from its own shifted domain: partitions that
    shared one set of distinct values would share the sketch's k-th
    minimum hash too, and their errors would count as one sample.
    """
    shifts = np.repeat(rng.integers(0, 10**6, PARTITIONS), ROWS).astype(np.float64)
    n = PARTITIONS * ROWS
    signed_zero = shifts + rng.integers(-300, 300, n)
    signed_zero[rng.random(n) < 0.2] = -0.0
    signed_zero[rng.random(n) < 0.05] = np.nan
    return {
        "small_ints": shifts + rng.integers(0, 2000, n),
        "rates": rng.integers(0, 101, n) / 100.0,
        "byte_counts": shifts + np.floor(rng.pareto(1.1, n) * 200.0),
        "signed_zero_nan": signed_zero,
    }


def _blake2b_estimate(values: np.ndarray) -> float:
    uniques = np.unique(values)
    digests = [
        hashlib.blake2b(struct.pack("<d", v), digest_size=8).digest()
        for v in uniques.tolist()
    ]
    hashes = np.sort(np.frombuffer(b"".join(digests), "<u8").astype(np.uint64))
    counts = np.ones(len(hashes), dtype=np.int64)  # only the hashes matter here
    return AKMVSketch.from_hash_counts(hashes, counts).distinct_estimate()


@pytest.fixture(scope="module")
def sealed():
    columns = _families(np.random.default_rng(38))
    schema = Schema.of(*(Column(name, ColumnKind.NUMERIC) for name in columns))
    ptable = partition_evenly(Table(schema, columns), PARTITIONS)
    return ptable, build_dataset_statistics(ptable)


@pytest.mark.parametrize(
    "family", ["small_ints", "rates", "byte_counts", "signed_zero_nan"]
)
def test_estimate_error_matches_blake2b(sealed, family):
    ptable, stats = sealed
    truths, mixed, blake = [], [], []
    for p in range(PARTITIONS):
        values = ptable[p].columns[family]
        truths.append(len(np.unique(values)))
        mixed.append(stats.index.column(family).stats[p, 9])  # the AKMV estimate
        blake.append(_blake2b_estimate(values))
        if family == "signed_zero_nan":  # sealed one partition at a time
            assert np.isnan(values).any() and np.signbit(values[values == 0]).any()
    truths = np.array(truths)
    mix_err = np.abs(np.array(mixed) - truths) / truths
    blake_err = np.abs(np.array(blake) - truths) / truths
    for q in (50, 90):
        gap = np.percentile(mix_err, q) - np.percentile(blake_err, q)
        assert abs(gap) <= TOLERANCE, (family, q, gap)
    if family != "rates":  # at most 101 distinct: AKMV is exact there
        assert np.median(truths) > 128
        assert np.median(blake_err) > 0.0


def _distinct(values: np.ndarray) -> np.ndarray:
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def test_distinct_bit_patterns_never_collide():
    rng = np.random.default_rng(7)
    structured = np.concatenate(
        [
            np.arange(-(2**20), 2**20, dtype=np.float64),
            np.arange(100_001, dtype=np.float64) / 100.0,
            np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
            np.uint64([0x7FF8000000000001, 0xFFF0000000000002]).view(np.float64),
        ]
    ).view(np.uint64)
    bits = _distinct(
        np.concatenate([structured, rng.integers(0, 2**64, 2**21, dtype=np.uint64)])
    )
    assert len(_distinct(mix64(bits.view(np.float64)))) == len(bits)
