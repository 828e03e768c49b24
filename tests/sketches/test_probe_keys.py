"""Every key a query probes keeps its blake2b-64 bits.

Numbers that feed an AKMV sketch are hashed by ``mix64``; nothing probes
an AKMV sketch. The keys below are different: bundles persist them and
a compiled plan recomputes its probes per query, so moving either side
onto the mix would make every lookup into a bundle written before miss.
Each is compared with a blake2b reference computed here from
``hashlib``, after a build and after two appends.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.datasets.registry import get_dataset
from repro.engine.layout import append_rows
from repro.engine.predicates import InSet
from repro.engine.table import PartitionedTable, Table
from repro.sketches.builder import (
    append_partition_statistics,
    build_dataset_statistics,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.hashing import hash_value
from repro.sketches.histogram import EquiDepthHistogram
from repro.stats.plan import PredicatePlan


def blake2b64(value) -> int:
    """The probe-key hash: utf-8 for text, the packed float64 otherwise."""
    if isinstance(value, str):
        payload = value.encode("utf-8")
    else:
        payload = struct.pack("<d", float(value))
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@pytest.fixture(scope="module", params=["built", "appended"])
def sealed(request):
    """(table, statistics, index) of 8 kdd partitions, built whole or as
    6 built + 2 appended."""
    ptable = get_dataset("kdd").build(8 * 400, 8, seed=9)
    if request.param == "built":
        stats = build_dataset_statistics(ptable)
        return ptable, stats, ColumnarSketchIndex.build(stats)
    bounds, columns = ptable.boundaries, ptable.table.columns
    grown = PartitionedTable(
        Table(ptable.schema, {n: a[: bounds[6]] for n, a in columns.items()}),
        bounds[:7],
    )
    stats = build_dataset_statistics(grown)
    index = ColumnarSketchIndex.build(stats)
    for p in (6, 7):
        grown = append_rows(
            grown, {n: a[bounds[p] : bounds[p + 1]] for n, a in columns.items()}
        )
        append_partition_statistics(stats, grown[p])
        index.extend(stats)
    return grown, stats, index


def test_heavy_hitter_lookup_keys(sealed):
    __, stats, index = sealed
    for column in stats.schema:
        expected = [
            blake2b64(value)
            for pstats in stats.partitions
            for value in pstats.columns[column.name].heavy_hitter.frequencies()
        ]
        keys = index.column(column.name).hh_lookup.keys
        assert len(keys) > 0, column.name
        assert keys.tolist() == sorted(expected), column.name


def test_exact_dictionary_lookup_keys(sealed):
    __, stats, index = sealed
    checked = 0
    for column in stats.schema:
        expected = []
        for pstats in stats.partitions:
            dictionary = pstats.columns[column.name].exact_dict
            if dictionary is not None and dictionary.usable:
                expected += [blake2b64(value) for value in dictionary.fractions()]
        keys = index.column(column.name).ed_lookup.keys
        assert keys.tolist() == sorted(expected), column.name
        checked += len(expected)
    assert checked > 0


def test_categorical_histograms_are_over_blake2b(sealed):
    ptable, stats, __ = sealed
    buckets = stats.config.histogram_buckets
    for column in stats.schema:
        if not column.is_categorical:
            continue
        for p, pstats in enumerate(stats.partitions):
            rows = ptable[p].columns[column.name]
            expected = EquiDepthHistogram.build(
                np.array([float(blake2b64(str(v))) for v in rows]),
                buckets=buckets,
                hashed=True,
            )
            histogram = pstats.columns[column.name].histogram
            assert histogram.to_bytes() == expected.to_bytes(), (column.name, p)


def test_inset_probes(sealed):
    __, stats, __ = sealed
    for column in stats.schema:
        if not column.is_categorical:
            continue
        members = {"absent-value"}
        for pstats in stats.partitions:
            members.update(pstats.columns[column.name].heavy_hitter.frequencies())
        plan = PredicatePlan.compile(InSet(column.name, members))
        (op,) = plan.ops
        assert op.probes == tuple(
            (blake2b64(v), blake2b64(v), float(blake2b64(v))) for v in sorted(members)
        )


def test_hash_value_is_the_reference():
    for value in ("tcp", "", "é", 0.0, -0.0, 1.5, 2**53, np.float64(7.25), b"3"):
        assert hash_value(value) == blake2b64(value), value
