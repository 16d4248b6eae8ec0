"""Span recording and self-time arithmetic for nested spans."""

import pytest

from perfbench.layers import self_time_table
from perfbench.spans import END, NAME, OP, PARENT, SpanRecorder, self_times, within


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _nested():
    # outer [0, 10] holds mid [1, 4] (holding leaf [2, 3]) and tail [5, 9]
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    rec.next_op()
    outer = rec.begin("outer")
    mid = rec.begin("mid")
    leaf = rec.begin("leaf")
    rec.end(leaf)
    rec.end(mid)
    rec.next_op()
    tail = rec.begin("tail")
    rec.end(tail)
    rec.end(outer)
    return rec


def test_spans_record_parent_and_operation():
    spans = _nested().spans
    assert [s[NAME] for s in spans] == ["outer", "mid", "leaf", "tail"]
    assert [s[PARENT] for s in spans] == [-1, 0, 1, 0]
    assert [s[OP] for s in spans] == [1, 1, 1, 2]
    assert spans[0][END] == 10


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested().spans) == [10 - 3 - 4, 3 - 1, 1, 4]


def test_self_times_sum_to_top_level_duration():
    spans = _nested().spans
    assert sum(self_times(spans)) == spans[0][END] - spans[0][1]


def test_within_marks_descendants():
    assert within(_nested().spans, frozenset({"mid"})) == [False, True, True, False]


def test_out_of_order_end_is_an_error():
    rec = SpanRecorder(clock=FakeClock(range(10)))
    first = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(first)


def test_self_time_table_is_per_block_and_sorted_by_self_time():
    table = self_time_table(_nested().spans, blocks=2)
    assert table[0] == ("tail", 0.5, 2.0, 2.0)
    assert dict((name, own) for name, _, _, own in table) == {
        "outer": 1.5, "mid": 1.0, "leaf": 0.5, "tail": 2.0}
