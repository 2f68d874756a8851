"""``repro.net.vectorops.group_sort``: the packed-key grouping sort.

One ``np.sort`` over ``label << b | row`` must return exactly what the
stable reference returns — ``(np.argsort(v, kind="stable"), np.sort(v))``
— for every input width, every round size, and on both sides of the
62-bit packing limit (past it the function falls back to the stable
argsort).  The optional ``rows`` argument carries caller row numbers in
the low bits instead of ``arange(m)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import sanitize
from repro.net.vectorops import group_argsort, group_sort

INT32_MAX = int(np.iinfo(np.int32).max)


def packing_limit(m: int) -> int:
    """Largest bound that still takes the packed path for ``m`` rows."""
    return (1 << 62) >> max(m - 1, 0).bit_length()


@st.composite
def labelled_rounds(draw):
    """``(values, bound)``: int32 or int64 labels in ``[0, bound)``, with
    ``m`` in {0, 1, many} and ``bound`` small, at the packing limit, or
    one past it (the fallback path)."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    m = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 300)))
    limit = packing_limit(m)
    bound = draw(
        st.one_of(st.integers(1, 2 * m + 2), st.just(limit), st.just(limit + 1))
    )
    top = min(bound, INT32_MAX + 1 if dtype is np.int32 else bound) - 1
    # Few distinct labels (many ties) or labels near the top of the range.
    low = draw(st.sampled_from([0, max(top - 3, 0)]))
    values = draw(st.lists(st.integers(low, top), min_size=m, max_size=m))
    return np.asarray(values, dtype=dtype), bound


class TestGroupSortProperty:
    @given(labelled_rounds())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_reference(self, case):
        values, bound = case
        order, sorted_values = group_sort(values, bound)
        assert np.array_equal(order, np.argsort(values, kind="stable"))
        assert np.array_equal(sorted_values, np.sort(values))
        assert sorted_values.dtype == np.int64
        assert np.array_equal(group_argsort(values, bound), order)

    @given(labelled_rounds(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_ride_in_the_low_bits(self, case, data):
        values, bound = case
        m = values.shape[0]
        gaps = data.draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
        rows = np.cumsum(np.asarray(gaps, dtype=np.int64)) - 1
        order, sorted_values = group_sort(values, bound, rows)
        assert np.array_equal(order, rows[np.argsort(values, kind="stable")])
        assert np.array_equal(sorted_values, np.sort(values))


class TestGroupSortEdges:
    def test_both_paths_seen(self):
        values = np.array([3, 1, 3, 0, 1], dtype=np.int64)
        limit = packing_limit(values.shape[0])
        for bound in (4, limit, limit + 1, 1 << 62):
            order, sorted_values = group_sort(values, bound)
            assert order.tolist() == [3, 1, 4, 0, 2]
            assert sorted_values.tolist() == [0, 1, 1, 3, 3]

    def test_int32_labels_do_not_wrap(self):
        # 2**31 - 1 shifted by 3 bits overflows int32; the cast to int64
        # keeps the labels intact.
        values = np.array([INT32_MAX, 0, INT32_MAX, 5, 1, 0, 2, 7], dtype=np.int32)
        order, sorted_values = group_sort(values, INT32_MAX + 1)
        assert np.array_equal(order, np.argsort(values, kind="stable"))
        assert np.array_equal(sorted_values, np.sort(values).astype(np.int64))

    def test_input_is_not_written(self):
        values = np.array([2, 0, 1], dtype=np.int64)
        group_sort(values, 3, np.array([4, 7, 9]))
        assert values.tolist() == [2, 0, 1]


class TestGroupSortSanitize:
    @pytest.fixture
    def armed(self, monkeypatch):
        monkeypatch.setattr(sanitize, "ENABLED", True)

    @pytest.mark.parametrize("values", [[0, 4], [-1, 2]])
    def test_out_of_range_labels_raise(self, armed, values):
        with pytest.raises(sanitize.SanitizeError, match=r"outside \[0, 4\)"):
            group_sort(np.asarray(values, dtype=np.int64), 4)

    def test_in_range_labels_pass(self, armed):
        order, _ = group_sort(np.array([3, 0, 3], dtype=np.int64), 4)
        assert order.tolist() == [1, 0, 2]
