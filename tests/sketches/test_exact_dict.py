"""Unit tests for exact low-cardinality dictionaries."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sketches.exact_dict import ExactDictionary


class TestExactCounts:
    def test_fraction_eq(self):
        values = np.array(["a"] * 6 + ["b"] * 4)
        dictionary = ExactDictionary.build(values)
        assert dictionary.fraction_eq("a") == 0.6
        assert dictionary.fraction_eq("b") == 0.4
        assert dictionary.fraction_eq("zzz") == 0.0

    def test_fraction_containing(self):
        values = np.array(["promo_x", "promo_y", "plain", "promo_x"])
        dictionary = ExactDictionary.build(values)
        assert dictionary.fraction_containing("promo") == 0.75
        assert dictionary.fraction_containing("zzz") == 0.0


class TestOverflow:
    def test_overflow_disables_dictionary(self):
        values = np.array([f"v{i}" for i in range(300)])
        dictionary = ExactDictionary.build(values, limit=256)
        assert dictionary.overflowed
        assert not dictionary.usable
        assert dictionary.fraction_eq("v0") == 0.0

    def test_merge_propagates_overflow(self):
        small = ExactDictionary.build(np.array(["a", "b"]))
        big = ExactDictionary.build(np.array([f"v{i}" for i in range(300)]))
        small.merge(big)
        assert small.overflowed

    def test_merge_adds_counts(self):
        left = ExactDictionary.build(np.array(["a", "a", "b"]))
        right = ExactDictionary.build(np.array(["a", "c"]))
        left.merge(right)
        assert left.counts == {"a": 3, "b": 1, "c": 1}
        assert left.total == 5


class TestValidationAndSerialization:
    def test_bad_limit_rejected(self):
        with pytest.raises(ConfigError):
            ExactDictionary(limit=0)

    def test_roundtrip(self):
        dictionary = ExactDictionary.build(np.array(["a", "b", "a"]))
        restored = ExactDictionary.from_bytes(dictionary.to_bytes())
        assert restored.counts == dictionary.counts
        assert restored.total == dictionary.total
        assert restored.overflowed == dictionary.overflowed

    def test_size_matches_encoding(self):
        dictionary = ExactDictionary.build(np.array(["alpha", "beta"]))
        assert dictionary.size_bytes() == len(dictionary.to_bytes())
