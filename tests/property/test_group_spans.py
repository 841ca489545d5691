"""The grouping helper's narrow sort is invisible: same permutation,
same groups, in the same order, at every label bound.

:func:`repro.core.fastpath.group_spans` sorts labels below ``2**8`` as
``uint8`` and below ``2**16`` as ``uint16`` (NumPy's radix path); wider
bounds sort the int64 labels as given.  The bounds drawn here sit on
both sides of the ``uint16`` edge.  The oracle is the int64 stable
argsort and the per-group ``np.split`` iterator the helper replaced.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.fastpath import group_spans, stable_order

BOUNDS = (1 << 8, 1 << 16, (1 << 16) + 1, 1 << 20)


def split_groups(labels):
    """The replaced iterator: ``(label, positions)`` per distinct label."""
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    return [(int(labels[span[0]]), span.tolist())
            for span in np.split(order, boundaries) if span.size]


@st.composite
def bounded_labels(draw):
    """``(labels, bound)``: labels in ``[0, bound)``, crowded at both
    ends so duplicates and the widest label show up."""
    bound = draw(st.sampled_from(BOUNDS))
    labels = draw(st.lists(
        st.one_of(st.integers(0, 3), st.integers(bound - 4, bound - 1),
                  st.integers(0, bound - 1)),
        max_size=200))
    return np.array(labels, dtype=np.int64), bound


@settings(deadline=None, max_examples=200)
@given(case=bounded_labels())
@example(case=(np.array([], dtype=np.int64), 1 << 8))
@example(case=(np.array([255, 0, 255, 1], dtype=np.int64), 1 << 8))
@example(case=(np.array([65_535, 0, 65_535], dtype=np.int64), 1 << 16))
@example(case=(np.array([65_536, 0, 65_536], dtype=np.int64),
               (1 << 16) + 1))
def test_narrow_sort_groups_like_the_int64_sort(case):
    labels, bound = case
    expected_order = np.argsort(labels.astype(np.int64), kind="stable")

    assert np.array_equal(stable_order(labels, bound), expected_order)
    order, spans = group_spans(labels, bound)
    assert np.array_equal(order, expected_order)
    assert [(label, order[start:stop].tolist())
            for label, start, stop in spans] == split_groups(labels)
