"""Unit tests for occurrence bitmaps: the scalar oracle's, and the
index's signature codes held to it."""

import numpy as np
from sketch_oracle import bitmap_signature, occurrence_bitmap, occurrence_bitmaps


class TestOccurrenceBitmap:
    def test_bitmap_width_matches_global_hitters(self, tiny_oracle):
        width = len(tiny_oracle.global_heavy_hitters["cat"])
        bits = occurrence_bitmap(tiny_oracle, 0, "cat")
        assert bits.shape == (width,)

    def test_bits_reflect_local_heavy_hitters(self, tiny_oracle):
        global_hitters = tiny_oracle.global_heavy_hitters["cat"]
        bits = occurrence_bitmap(tiny_oracle, 2, "cat")
        local = set(tiny_oracle.partitions[2].columns["cat"].heavy_hitter.items())
        for j, value in enumerate(global_hitters):
            assert bits[j] == (1.0 if value in local else 0.0)

    def test_matrix_stacks_partitions(self, tiny_oracle):
        matrix = occurrence_bitmaps(tiny_oracle, "cat")
        assert matrix.shape[0] == tiny_oracle.num_partitions
        for p in range(tiny_oracle.num_partitions):
            np.testing.assert_array_equal(
                matrix[p], occurrence_bitmap(tiny_oracle, p, "cat")
            )

    def test_high_cardinality_column_has_sparse_bitmap(self, tiny_oracle):
        # 'tag' has 300 distinct values in 100-row partitions: few heavy
        # hitters anywhere, so the bitmap is narrow and mostly zero.
        matrix = occurrence_bitmaps(tiny_oracle, "tag")
        assert matrix.shape[1] <= tiny_oracle.config.bitmap_k
        if matrix.size:
            assert matrix.mean() < 0.5


class TestSignature:
    def test_signature_concatenates_columns(self, tiny_oracle):
        sig = bitmap_signature(tiny_oracle, 0, ("cat", "tag"))
        w = len(tiny_oracle.global_heavy_hitters["cat"]) + len(
            tiny_oracle.global_heavy_hitters["tag"]
        )
        assert len(sig) == w
        assert all(bit in (0, 1) for bit in sig)

    def test_signature_hashable_and_stable(self, tiny_oracle):
        first = bitmap_signature(tiny_oracle, 1, ("cat",))
        second = bitmap_signature(tiny_oracle, 1, ("cat",))
        assert first == second
        assert hash(first) == hash(second)


class TestSignatureCodes:
    """The index's per-column codes must group exactly as the scalar loop."""

    def test_codes_number_scalar_signatures_by_first_appearance(
        self, tiny_stats, tiny_oracle
    ):
        index = tiny_stats.index
        for column in ("cat", "tag"):
            hitters = tiny_stats.global_heavy_hitters[column]
            codes, distinct = index.signature_codes(column, hitters)
            seen = {}
            expected = [
                seen.setdefault(bitmap_signature(tiny_oracle, p, (column,)), len(seen))
                for p in range(tiny_stats.num_partitions)
            ]
            assert codes.tolist() == expected
            assert distinct == len(seen)

    def test_codes_are_kept_until_the_hitters_change(self, tiny_stats):
        index = tiny_stats.index
        hitters = tiny_stats.global_heavy_hitters["cat"]
        first, __ = index.signature_codes("cat", hitters)
        again, __ = index.signature_codes("cat", hitters)
        assert again is first
        fewer, __ = index.signature_codes("cat", hitters[:1])
        bits = index.column("cat").occurrence_matrix(hitters[:1])[:, 0]
        assert fewer is not first
        assert (fewer == fewer[0]).tolist() == (bits == bits[0]).tolist()
