"""Unit tests for lossy-counting heavy hitters.

The array kernel is pinned against a textbook dict-based lossy counter
kept here (:class:`DictLossyCounter`): entries, order, totals, reported
items and serialized bytes must match for segmented builds, successive
updates and merge chains.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sketches.heavy_hitter import HeavyHitterSketch, segmented_hitters


def skewed_values(n: int = 10_000, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # 'big' ~ 40%, 'mid' ~ 10%, the rest spread over 1000 rare values.
    return rng.choice(
        np.array(["big", "mid"] + [f"rare{i}" for i in range(1000)]),
        size=n,
        p=[0.4, 0.1] + [0.5 / 1000] * 1000,
    )


class TestDetection:
    def test_finds_true_heavy_hitters(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        found = sketch.frequencies()
        assert found["big"] == pytest.approx(0.4, abs=0.03)
        assert found["mid"] == pytest.approx(0.1, abs=0.03)

    def test_rare_values_not_reported(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        assert all(not str(v).startswith("rare") for v in sketch.items())

    def test_dictionary_bounded_by_support(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        assert len(sketch.items()) <= 100 + 1  # 1/support plus epsilon slack

    def test_undercount_bounded_by_epsilon(self):
        values = skewed_values()
        sketch = HeavyHitterSketch.build(values, support=0.01)
        true_count = int((values == "big").sum())
        estimated = sketch.items()["big"]
        assert estimated <= true_count
        assert true_count - estimated <= sketch.epsilon * len(values)

    def test_numeric_values_supported(self):
        values = np.array([1.0] * 500 + [2.0] * 400 + list(range(100)), dtype=float)
        sketch = HeavyHitterSketch.build(values, support=0.05)
        assert 1.0 in sketch.items() and 2.0 in sketch.items()

    def test_empty_input(self):
        sketch = HeavyHitterSketch(support=0.01)
        assert sketch.items() == {}
        assert sketch.stats() == (0.0, 0.0, 0.0)


class TestStats:
    def test_stats_tuple(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        count, avg, mx = sketch.stats()
        assert count == len(sketch.frequencies())
        assert 0.0 < avg <= mx
        assert mx == pytest.approx(0.4, abs=0.03)


class TestMerge:
    def test_merge_combines_counts(self):
        left = HeavyHitterSketch.build(skewed_values(seed=1), support=0.01)
        right = HeavyHitterSketch.build(skewed_values(seed=2), support=0.01)
        total_before = left.items()["big"] + right.items()["big"]
        left.merge(right)
        assert left.total == 20_000
        assert left.items()["big"] == pytest.approx(total_before, rel=0.05)


class TestValidationAndSerialization:
    def test_bad_support_rejected(self):
        with pytest.raises(ConfigError):
            HeavyHitterSketch(support=0.0)
        with pytest.raises(ConfigError):
            HeavyHitterSketch(support=1.5)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            HeavyHitterSketch(support=0.01, epsilon=0.5)

    def test_roundtrip(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        restored = HeavyHitterSketch.from_bytes(sketch.to_bytes())
        assert restored.items() == sketch.items()
        assert restored.total == sketch.total

    def test_size_matches_encoding(self):
        sketch = HeavyHitterSketch.build(skewed_values(), support=0.01)
        assert sketch.size_bytes() == len(sketch.to_bytes())


class TestNaNIsOneValue:
    """The NaN rule: one entry, counts add across blocks and merges."""

    STREAM = np.tile(np.r_[np.full(600, np.nan), np.arange(400.0)], 3)

    def test_nan_heavy_hitter_is_not_split_per_block(self):
        # width 1000: three blocks, each with 600 NaNs. The parent made a
        # new dict key per block ({nan: 600, nan: 600, nan: 600}).
        sketch = HeavyHitterSketch.build(self.STREAM)
        ((value, count),) = sketch.items().items()
        assert value != value and count == 1800.0
        assert sketch.stats() == (1.0, 0.6, 0.6)

    def test_answer_does_not_depend_on_the_block_count(self):
        one_block = HeavyHitterSketch.build(self.STREAM, support=0.001)
        assert one_block._width > self.STREAM.size
        many_blocks = HeavyHitterSketch.build(self.STREAM)
        assert one_block.stats()[2] == many_blocks.stats()[2] == 0.6

    def test_roundtrip_and_merge_keep_one_nan(self):
        sketch = HeavyHitterSketch.build(self.STREAM)
        restored = HeavyHitterSketch.from_bytes(sketch.to_bytes())
        assert list(restored.items().values()) == [1800.0]
        restored.merge(sketch)
        restored.update(np.full(400, np.nan))
        assert list(restored.items().values()) == [4000.0]
        assert restored.total == 6400

    def test_bundle_written_before_the_rule_folds_its_nan_entries(self):
        import struct

        nan = b"f" + struct.pack("<d", float("nan"))
        one = b"f" + struct.pack("<d", 1.0)
        payload = struct.pack("<ddQI", 0.01, 0.001, 3000, 4) + b"".join(
            struct.pack("<Id", len(value), count) + value
            for value, count in ((nan, 600.0), (one, 700.0), (nan, 600.0), (nan, 500.0))
        )
        restored = HeavyHitterSketch.from_bytes(payload)
        (nan_key, nan_count), (key, count) = restored.items().items()
        assert nan_key != nan_key and nan_count == 1700.0
        assert (key, count) == (1.0, 700.0)

    def test_signed_zeros_stay_one_key(self):
        block = np.r_[np.full(300, -0.0), np.full(300, 0.0), np.arange(1.0, 401.0)]
        sketch = HeavyHitterSketch.build(np.tile(block, 3))
        assert sketch.items() == {0.0: 1800.0}


# -- reference oracle ---------------------------------------------------------


class DictLossyCounter:
    """Textbook dict-based lossy counting: the oracle for the array kernel.

    One ``[count, delta]`` per distinct value in a dict (whose iteration
    order *is* the insertion-order rule), one ``np.unique`` per block of
    ``width`` rows, blocks restarting at every ``update`` call.
    """

    def __init__(self, support: float, epsilon: float) -> None:
        self.support, self.epsilon = support, epsilon
        self.width = max(int(math.ceil(1.0 / epsilon)), 1)
        self.total = 0
        self.bucket = 1
        self.entries: dict[object, list[float]] = {}

    def update(self, values: np.ndarray) -> None:
        for start in range(0, len(values), self.width):
            uniques, counts = np.unique(
                values[start : start + self.width], return_counts=True
            )
            for value, count in zip(uniques, counts):
                entry = self.entries.get(value.item())
                if entry is None:
                    self.entries[value.item()] = [float(count), float(self.bucket - 1)]
                else:
                    entry[0] += float(count)
            self.total += int(counts.sum())
            if self.total // self.width + 1 != self.bucket:
                self.bucket = self.total // self.width + 1
                self._prune()

    def merge(self, other: DictLossyCounter) -> None:
        for key, (count, delta) in other.entries.items():
            mine = self.entries.get(key)
            if mine is None:
                self.entries[key] = [count, delta]
            else:
                mine[0] += count
                mine[1] = max(mine[1], delta)
        self.total += other.total
        self.bucket = self.total // self.width + 1
        self._prune()

    def _prune(self) -> None:
        for key in [k for k, (c, d) in self.entries.items() if c + d <= self.bucket]:
            del self.entries[key]

    def items(self) -> list[tuple[object, float]]:
        cutoff = (self.support - self.epsilon) * self.total
        return [(k, c) for k, (c, __) in self.entries.items() if c >= cutoff]

    def to_bytes(self) -> bytes:
        items = self.items()
        out = [struct.pack("<ddQI", self.support, self.epsilon, self.total, len(items))]
        for key, count in items:
            encoded = (
                b"s" + key.encode("utf-8")
                if isinstance(key, str)
                else b"f" + struct.pack("<d", float(key))
            )
            out.append(struct.pack("<Id", len(encoded), count) + encoded)
        return b"".join(out)


def assert_matches_oracle(sketch: HeavyHitterSketch, oracle: DictLossyCounter):
    """Entries (value, type, count, delta, order), total, bucket, items
    order and serialized bytes."""
    expected = [(k, c, d) for k, (c, d) in oracle.entries.items()]
    actual = sketch.entries()
    assert actual == expected
    assert [type(v) for v, __, __ in actual] == [type(v) for v, __, __ in expected]
    assert all(type(c) is float and type(d) is float for __, c, d in actual)
    assert (sketch.total, sketch.bucket) == (oracle.total, oracle.bucket)
    assert list(sketch.items().items()) == (oracle.items() if oracle.total else [])
    assert sketch.to_bytes() == oracle.to_bytes()


#: (support, epsilon) with block widths 4, 10 and 7.
_PARAMS = st.sampled_from([(0.3, 0.25), (0.1, 0.1), (0.5, 0.15)])
_KINDS = st.sampled_from(["int", "float", "str"])
_STRINGS = np.array(["", "a", "b", "ab", "b ", "ü", "zz", "aé", "B", "0"])


def _width(epsilon: float) -> int:
    return max(int(math.ceil(1.0 / epsilon)), 1)


@st.composite
def _streams(draw, width: int, kind: str, skew: int):
    """One stream whose length sits on or around a block boundary."""
    k = draw(st.integers(min_value=2, max_value=4))
    length = draw(
        st.one_of(
            st.sampled_from(
                [0, 1, width - 1, width, width + 1, k * width, k * width + 1]
            ),
            st.integers(min_value=0, max_value=5 * width),
        )
    )
    draws = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=skew),
                min_size=length,
                max_size=length,
            )
        ),
        dtype=np.int64,
    )
    if kind == "int":
        return draws - 3
    if kind == "float":
        return draws * 0.5 - 1.0
    return _STRINGS[draws % len(_STRINGS)]


@st.composite
def _cases(draw, min_streams: int, max_streams: int):
    support, epsilon = draw(_PARAMS)
    kind = draw(_KINDS)
    # Few distinct values make heavy hitters; many make pruning churn.
    skew = draw(st.sampled_from([2, 9, 40]))
    streams = draw(
        st.lists(
            _streams(_width(epsilon), kind, skew),
            min_size=min_streams,
            max_size=max_streams,
        )
    )
    return support, epsilon, streams


def _oracle(support, epsilon, *streams) -> DictLossyCounter:
    oracle = DictLossyCounter(support, epsilon)
    for stream in streams:
        oracle.update(stream)
    return oracle


class TestAgainstDictOracle:
    @given(_cases(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_segmented_build_equals_the_oracle_per_partition(self, case):
        support, epsilon, partitions = case
        column = np.concatenate(partitions)
        offsets = np.concatenate(([0], np.cumsum([len(p) for p in partitions])))
        uniques, inverse = np.unique(column, return_inverse=True)
        hitters, (codes, counts, bounds) = segmented_hitters(
            uniques, inverse, offsets, support=support, epsilon=epsilon
        )
        sketches = hitters.sketches(uniques, support, epsilon)
        assert len(sketches) == len(partitions)
        for p, rows in enumerate(partitions):
            assert_matches_oracle(sketches[p], _oracle(support, epsilon, rows))
            # The distincts counted on the way are np.unique per slice.
            values, expected = np.unique(rows, return_counts=True)
            mine = slice(bounds[p], bounds[p + 1])
            np.testing.assert_array_equal(uniques[codes[mine]], values)
            np.testing.assert_array_equal(counts[mine], expected)

    @given(_cases(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_successive_updates_equal_the_oracle(self, case):
        support, epsilon, streams = case
        sketch = HeavyHitterSketch(support=support, epsilon=epsilon)
        oracle = DictLossyCounter(support, epsilon)
        for stream in streams:
            sketch.update(stream)
            oracle.update(stream)
            assert_matches_oracle(sketch, oracle)

    @given(_cases(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_merge_chains_equal_the_oracle(self, case):
        """Left-to-right merges into a fresh sketch: the global-HH automaton."""
        support, epsilon, streams = case
        sketches = [
            HeavyHitterSketch.build(s, support=support, epsilon=epsilon)
            for s in streams
        ]
        stepwise = HeavyHitterSketch(support=support, epsilon=epsilon)
        oracle = DictLossyCounter(support, epsilon)
        for sketch, stream in zip(sketches, streams):
            stepwise.merge(sketch)
            oracle.merge(_oracle(support, epsilon, stream))
            assert_matches_oracle(stepwise, oracle)
        chained = HeavyHitterSketch(support=support, epsilon=epsilon)
        chained.merge(*sketches)
        assert_matches_oracle(chained, oracle)

    @given(_cases(2, 2))
    @settings(max_examples=100, deadline=None)
    def test_merge_into_unpruned_state_equals_the_oracle(self, case):
        """``a.merge(b)`` with ``a`` mid-block: its count-1 entries of the
        open bucket must face the merge's unconditional prune."""
        support, epsilon, (left, right) = case
        sketch = HeavyHitterSketch.build(left, support=support, epsilon=epsilon)
        sketch.merge(HeavyHitterSketch.build(right, support=support, epsilon=epsilon))
        oracle = _oracle(support, epsilon, left)
        oracle.merge(_oracle(support, epsilon, right))
        assert_matches_oracle(sketch, oracle)
