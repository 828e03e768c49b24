"""``SubstringTable.extended`` merges dictionaries; it must equal a rebuild.

Appends extend the columnar index by looking the new values up in the
sorted string dictionary — merging a value it lacks into a fresh union
and remapping the old codes into it — instead of re-deduplicating every
entry. The result must be indistinguishable from deduplicating the
concatenated values, parts and weights at once (``substring_table`` in
``tests/sketch_oracle.py``) — same dictionary (``<U`` width included),
codes, parts and weights, dtypes included — since those arrays are
persisted and featurized.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketch_oracle import substring_table

from repro.sketches.columnar import SubstringTable

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=7)
pools = st.lists(texts, min_size=1, max_size=6)


@st.composite
def sides(draw, count=2):
    """Entry lists that overlap through a shared value pool."""
    pool = draw(pools)
    values = st.one_of(st.sampled_from(pool), texts)
    out = []
    for __ in range(count):
        size = draw(st.integers(0, 12))
        out.append(
            (
                draw(st.lists(values, min_size=size, max_size=size)),
                draw(st.lists(st.integers(0, 40), min_size=size, max_size=size)),
                draw(st.lists(st.floats(0.0, 1e6), min_size=size, max_size=size)),
            )
        )
    return out


def _concatenated(*entries):
    return tuple(sum((list(side[i]) for side in entries), []) for i in range(3))


def _extend(table: SubstringTable, side) -> SubstringTable:
    values, parts, weights = side
    return table.extended(
        values, np.asarray(parts, dtype=np.intp), np.asarray(weights, dtype=float)
    )


def assert_same_table(got: SubstringTable, want: SubstringTable) -> None:
    for field in ("unique_values", "codes", "parts", "weights"):
        ours, theirs = getattr(got, field), getattr(want, field)
        assert ours.dtype == theirs.dtype, field
        np.testing.assert_array_equal(ours, theirs, err_msg=field)


@given(sides())
@example([([], [], []), ([], [], [])])
@example([([], [], []), (["b", "ü"], [1, 2], [1.0, 2.0])])
@example([(["b", "ü"], [1, 2], [1.0, 2.0]), ([], [], [])])
@example([(["a"], [0], [1.0]), (["a", "wider", "a"], [1, 1, 2], [2.0, 3.0, 4.0])])
@example([([""], [0], [1.0]), (["ω\x00x", ""], [1, 2], [2.0, 3.0])])
@settings(max_examples=200, deadline=None)
def test_extend_equals_build_over_the_concatenation(entries):
    left = substring_table(*entries[0])
    before = [arr.copy() for arr in vars(left).values()]
    merged = _extend(left, entries[1])
    assert_same_table(merged, substring_table(*_concatenated(*entries)))
    # Nothing is written in place: the extended table reads as it did.
    after = list(vars(left).values())
    for old, new in zip(before, after):
        assert old.dtype == new.dtype
        np.testing.assert_array_equal(old, new)


@given(sides(count=3))
@settings(max_examples=100, deadline=None)
def test_a_chain_of_appends_equals_one_build(entries):
    chained = substring_table(*entries[0])
    for side in entries[1:]:
        chained = _extend(chained, side)
    assert_same_table(chained, substring_table(*_concatenated(*entries)))
