"""Tests for the machine's per-kind traffic counters."""

from __future__ import annotations

from repro.machine.trace import Trace


class TestRecording:
    def test_records_events(self):
        tr = Trace()
        tr.record("msg", messages=1, nbytes=100)
        tr.record("phase")
        assert tr.total_messages("msg") == 1
        assert tr.total_bytes("msg") == 100
        assert tr.total_messages("phase") == 0
        assert tr.total_bytes("phase") == 0


class TestAggregates:
    def test_totals_by_kind(self):
        tr = Trace()
        tr.record("msg", messages=2, nbytes=10)
        tr.record("msg", messages=3, nbytes=20)
        tr.record("bundle", messages=1, nbytes=5)
        assert tr.total_messages("msg") == 5
        assert tr.total_bytes("msg") == 30
        assert tr.total_messages() == 6
        assert tr.total_bytes() == 35

    def test_unknown_kind_is_zero(self):
        tr = Trace()
        assert tr.total_messages("nope") == 0
        assert tr.total_bytes("nope") == 0


class TestMarkRewind:
    def test_rewind_forgets_what_came_after_the_mark(self):
        tr = Trace()
        tr.record("msg", messages=2, nbytes=10)
        mark = tr.mark()
        tr.record("msg", messages=3, nbytes=20)
        tr.record("alltoall", messages=6, nbytes=60)
        tr.rewind(mark)
        assert (tr.total_messages("msg"), tr.total_bytes("msg")) == (2, 10)
        assert (tr.total_messages("alltoall"), tr.total_bytes("alltoall")) == (0, 0)
        assert (tr.total_messages(), tr.total_bytes()) == (2, 10)

    def test_a_mark_is_not_moved_by_later_records(self):
        tr = Trace()
        mark = tr.mark()
        tr.record("msg", messages=1, nbytes=1)
        tr.rewind(mark)
        tr.record("msg", messages=4, nbytes=8)
        tr.rewind(mark)
        assert (tr.total_messages(), tr.total_bytes()) == (0, 0)

    def test_counting_resumes_after_a_rewind(self):
        tr = Trace()
        tr.record("msg", messages=1, nbytes=5)
        mark = tr.mark()
        tr.record("msg", messages=7, nbytes=70)
        tr.rewind(mark)
        tr.record("msg", messages=2, nbytes=3)
        assert (tr.total_messages("msg"), tr.total_bytes("msg")) == (3, 8)
