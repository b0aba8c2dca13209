"""Percentile rule and span self-time arithmetic."""

import pytest

from perfbench import stats


def test_percentile_interpolates_and_orders():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, q, beyond",
    [(100, 90, 10), (101, 90, 10), (1000, 99, 10), (999, 99, 10), (20, 50, 10), (11, 0, 10)],
)
def test_samples_beyond(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond


@pytest.mark.parametrize(
    "n, tail",
    [(2000, 99.0), (1000, 99.0), (900, 95.0), (200, 95.0), (100, 90.0),
     (40, 75.0), (21, 50.0), (20, 50.0), (19, None)],
)
def test_highest_tail_keeps_ten_samples_beyond(n, tail):
    assert stats.highest_tail(n) == tail
    if tail is not None:
        assert stats.samples_beyond(n, tail) >= stats.MIN_BEYOND


def _span(sid, parent, t0, t1, name="x", rid=None):
    return (sid, parent, name, rid, t0, t1, None)


def test_self_time_of_nested_spans_adds_up():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 2, 2.0, 3.0, "b"),
        _span(4, 1, 5.0, 9.0, "a"),
    ]
    own = stats.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)  # self times partition the root
    assert stats.self_time_by_name(spans) == pytest.approx(
        {"root": 3.0, "a": 6.0, "b": 1.0}
    )


def test_overlapping_children_are_covered_once():
    # two executor threads working for one waiting handler span
    spans = [
        _span(1, None, 0.0, 10.0, "wait"),
        _span(2, 1, 1.0, 6.0, "work"),
        _span(3, 1, 4.0, 8.0, "work"),
    ]
    assert stats.self_times(spans)[0] == pytest.approx(3.0)


def test_child_outside_parent_is_clipped():
    spans = [_span(1, None, 0.0, 2.0), _span(2, 1, 1.5, 5.0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.5)


def test_union_length():
    assert stats.union_length([(0, 1), (0.5, 2), (3, 4)], 0, 10) == pytest.approx(3.0)
    assert stats.union_length([], 0, 10) == 0.0


def test_root_names_follow_parents():
    spans = [
        _span(1, None, 0, 5, "train.inputs"),
        _span(2, 1, 1, 2, "inputs.build"),
        _span(3, None, 6, 7, "train.forward"),
    ]
    assert stats.root_names(spans) == ["train.inputs", "train.inputs", "train.forward"]

