"""Shared differential harness: the scalar oracle vs the executor.

Every (query, table) case can be answered two ways — the scalar
per-partition ``execute_on_partition`` loop (the reference oracle) and
:meth:`BatchExecutor.partition_answers`, whose
:class:`~repro.engine.batch_executor.QueryAnswerBlock` is read through
both of its views: iterated as per-partition dicts, and as the raw
``keys`` / ``live`` / ``totals`` / ``cuts`` arrays training consumes.
All must agree *bit for bit*: same per-partition dicts, same key
iteration order, byte-identical component vectors. The fixtures here are
the single place that contract is encoded; executor tests (regression
pins, edge cases, workload suites) run their cases through
``oracle_parity`` / ``answers_via`` instead of hand-rolling comparisons.
"""

from __future__ import annotations

import numpy as np
import pytest
from scalar_oracle import execute_on_partition

from repro.engine.batch_executor import BatchExecutor

#: Parametrization ids for tests that pin one path at a time.
EXECUTION_PATHS = ("scalar", "batch", "indexed")


def _answers_via(path: str, ptable, query):
    """Per-partition ``ComponentAnswer`` sequence through one named path."""
    if path == "scalar":
        return [execute_on_partition(p, query) for p in ptable]
    block = BatchExecutor.for_table(ptable).partition_answers(query)
    if path == "batch":  # the block, iterated by whoever consumes it
        return block
    if path == "indexed":  # the block's other dict builder, ``block[p]``
        return [block[p] for p in range(len(block))]
    raise ValueError(f"unknown execution path {path!r}")


def _assert_answers_bitwise_equal(actual, expected, context: str = ""):
    """Same per-partition dicts: key order and vector bytes identical."""
    assert len(actual) == len(expected), context
    for p, (a, e) in enumerate(zip(actual, expected)):
        assert list(a.keys()) == list(e.keys()), (context, p)
        for key in e:
            assert a[key].tobytes() == e[key].tobytes(), (
                context,
                p,
                key,
                a[key],
                e[key],
            )


def _assert_block_arrays_equal(block, expected, context: str = ""):
    """The block's arrays spell the same answers as ``expected`` dicts."""
    groups = max(block.num_groups, 1)
    assert np.all(np.diff(block.live) > 0), context  # sorted, no duplicate
    assert np.array_equal(block.live, block.live_parts * groups + block.live_groups)
    assert block.cuts[0] == 0 and block.cuts[-1] == len(block.live), context
    assert block.totals.shape == (len(block.live), block.query.num_components)
    for p, answer in enumerate(expected):
        run = slice(block.cuts[p], block.cuts[p + 1])
        assert np.all(block.live_parts[run] == p), (context, p)
        assert [block.keys[g] for g in block.live_groups[run]] == list(answer), (
            context,
            p,
        )
        stacked = b"".join(vec.tobytes() for vec in answer.values())
        assert block.totals[run].tobytes() == stacked, (context, p)


def _assert_oracle_parity(ptable, queries):
    """The executor's blocks equal the scalar oracle, through both views.

    Returns the blocks (one per query) so callers can make additional
    assertions on them.
    """
    blocks = []
    for qi, query in enumerate(queries):
        scalar = _answers_via("scalar", ptable, query)
        block = _answers_via("batch", ptable, query)
        label = f"query[{qi}] {query.label()}"
        _assert_answers_bitwise_equal(block, scalar, f"dicts vs scalar: {label}")
        indexed = _answers_via("indexed", ptable, query)
        _assert_answers_bitwise_equal(indexed, scalar, f"[p] vs scalar: {label}")
        _assert_block_arrays_equal(block, scalar, f"arrays vs scalar: {label}")
        blocks.append(block)
    return blocks


@pytest.fixture
def answers_via():
    """``answers_via(path, ptable, query)`` for path in EXECUTION_PATHS."""
    return _answers_via


@pytest.fixture
def assert_bitwise_equal():
    """``assert_bitwise_equal(actual, expected, context='')``."""
    return _assert_answers_bitwise_equal


@pytest.fixture
def oracle_parity():
    """The oracle-vs-executor differential checker (returns the blocks)."""
    return _assert_oracle_parity
