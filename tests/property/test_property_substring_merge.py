"""``SubstringTable.concat`` merges dictionaries; it must equal a rebuild.

Appends extend the columnar index by merging the two sorted string
dictionaries and remapping both code vectors into the union, instead of
re-deduplicating every entry. The merge must be indistinguishable from
``SubstringTable.build`` over the concatenated values, parts and weights
— same dictionary (``<U`` width included), codes, parts and weights,
dtypes included — since those arrays are persisted and featurized.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
def test_concat_equals_build_over_the_concatenation(entries):
    left, right = (SubstringTable.build(*side) for side in entries)
    before = [arr.copy() for table in (left, right) for arr in vars(table).values()]
    merged = left.concat(right)
    assert_same_table(merged, SubstringTable.build(*_concatenated(*entries)))
    # Nothing is written in place: both inputs read as they did.
    after = [arr for table in (left, right) for arr in vars(table).values()]
    for old, new in zip(before, after):
        assert old.dtype == new.dtype
        np.testing.assert_array_equal(old, new)


@given(sides(count=3))
@settings(max_examples=100, deadline=None)
def test_a_chain_of_appends_equals_one_build(entries):
    tables = [SubstringTable.build(*side) for side in entries]
    chained = tables[0].concat(tables[1]).concat(tables[2])
    assert_same_table(chained, SubstringTable.build(*_concatenated(*entries)))
