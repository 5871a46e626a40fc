"""Tests for the span tracer and its disabled fast path."""

import pytest

from repro.sim import Simulator
from repro.telemetry import (
    NULL_TRACER,
    LabeledMetricsRegistry,
    NullTracer,
    Tracer,
    attach_tracer,
)
from repro.telemetry.tracer import (
    PHASE_COLD_START,
    PHASE_EXECUTE,
    PHASE_JOB,
    PHASE_UPLOAD,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class TestSpanRecording:
    def test_span_ids_are_sequential_from_one(self):
        tracer = Tracer(FakeClock())
        spans = [tracer.start_span(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]

    def test_parenting_links_span_ids(self):
        tracer = Tracer(FakeClock())
        root = tracer.start_span("job", category=PHASE_JOB)
        child = tracer.start_span("upload", category=PHASE_UPLOAD, parent=root)
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_times_come_from_the_clock(self):
        clock = FakeClock(5.0)
        tracer = Tracer(clock)
        span = tracer.start_span("s")
        clock.now = 8.5
        tracer.end_span(span)
        assert span.start == 5.0
        assert span.end == 8.5
        assert span.duration == 3.5

    def test_end_span_is_idempotent(self):
        clock = FakeClock(1.0)
        tracer = Tracer(clock)
        span = tracer.start_span("s", category=PHASE_EXECUTE)
        clock.now = 2.0
        tracer.end_span(span)
        clock.now = 9.0
        tracer.end_span(span, late="attr")  # no-op on a closed span
        assert span.end == 2.0
        assert "late" not in span.attributes

    def test_attributes_from_start_end_and_annotate(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("s", a=1)
        span.annotate(b=2)
        tracer.end_span(span, c=3)
        assert span.attributes == {"a": 1, "b": 2, "c": 3}

    def test_ended_span_feeds_labeled_summary(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("cs", category=PHASE_COLD_START)
        clock.now = 2.0
        tracer.end_span(span)
        snap = tracer.metrics.snapshot()
        assert snap['span_seconds_count{category="cold_start"}'] == 1
        assert snap['span_seconds_sum{category="cold_start"}'] == 2.0

    def test_replaced_registry_receives_later_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        old = tracer.metrics
        tracer.end_span(tracer.start_span("a", category=PHASE_COLD_START))
        tracer.metrics = LabeledMetricsRegistry()
        tracer.end_span(tracer.start_span("b", category=PHASE_COLD_START))
        tracer.record_span("c", PHASE_COLD_START, 0.0, 1.0)
        key = 'span_seconds_count{category="cold_start"}'
        assert old.snapshot()[key] == 1
        assert tracer.metrics.snapshot()[key] == 2

    def test_record_span_with_explicit_times(self):
        tracer = Tracer(FakeClock(100.0))
        span = tracer.record_span("outage", "fault", 5.0, 25.0, target="uplink")
        assert (span.start, span.end) == (5.0, 25.0)
        assert span.closed
        assert span.attributes == {"target": "uplink"}

    def test_record_span_rejects_backwards_interval(self):
        with pytest.raises(ValueError, match="precedes"):
            Tracer(FakeClock()).record_span("bad", "fault", 10.0, 5.0)

    def test_instant_attaches_to_parent(self):
        clock = FakeClock(3.0)
        tracer = Tracer(clock)
        parent = tracer.start_span("job")
        tracer.instant("attempt_failed", parent=parent, cause="Boom")
        # Listener-free instants buffer in the write ring; any flush
        # point (here an explicit flush) materialises them.
        tracer.flush()
        assert parent.events == [(3.0, "attempt_failed", {"cause": "Boom"})]

    def test_parentless_instant_gets_synthetic_span(self):
        tracer = Tracer(FakeClock(4.0))
        tracer.instant("orphan", note="x")
        (span,) = tracer.spans
        assert span.start == span.end == 4.0
        assert span.events == [(4.0, "orphan", {"note": "x"})]

    def test_ring_preserves_span_id_order_across_flush_points(self):
        # A buffered parentless instant must claim its synthetic span id
        # *before* any span started later — even though the Span object
        # is only built at the flush point start_span() triggers.
        clock = FakeClock(1.0)
        tracer = Tracer(clock)
        tracer.instant("first")
        clock.now = 2.0
        later = tracer.start_span("job")
        spans = tracer.spans
        assert [s.name for s in spans] == ["first", "job"]
        assert spans[0].span_id < later.span_id
        assert spans[0].start == spans[0].end == 1.0

    def test_ring_captures_clock_at_write_time(self):
        clock = FakeClock(1.0)
        tracer = Tracer(clock)
        parent = tracer.start_span("job")
        tracer.instant("tick", parent=parent)
        clock.now = 9.0  # advances before the flush
        tracer.flush()
        assert parent.events == [(1.0, "tick", {})]

    def test_ring_wraps_past_capacity(self):
        from repro.telemetry.tracer import _RING_CAPACITY

        tracer = Tracer(FakeClock(0.0))
        parent = tracer.start_span("job")
        total = _RING_CAPACITY * 2 + 7
        for index in range(total):
            tracer.instant("tick", parent=parent, i=index)
        tracer.flush()
        assert len(parent.events) == total
        assert [attrs["i"] for _, _, attrs in parent.events] == list(range(total))

    def test_subscribe_flushes_buffered_instants(self):
        tracer = Tracer(FakeClock(0.0))
        tracer.instant("before")
        seen = []

        class Listener:
            def on_span_end(self, span):
                seen.append(("end", span.name))

            def on_instant(self, at, name, attributes, parent):
                seen.append(("instant", name))

        tracer.subscribe(Listener())
        tracer.instant("after")
        # The pre-subscribe instant was materialised (not replayed to the
        # listener); the post-subscribe one took the direct path.
        assert seen == [("instant", "after")]
        assert [s.name for s in tracer.spans] == ["before", "after"]

    def test_end_subtree_closes_open_descendants_only(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        job = tracer.start_span("job", category=PHASE_JOB)
        comp = tracer.start_span("comp", parent=job)
        transfer = tracer.start_span("xfer", parent=comp)
        other = tracer.start_span("other_job", category=PHASE_JOB)
        clock.now = 5.0
        tracer.end_subtree(job, error="Boom")
        for span in (job, comp, transfer):
            assert span.end == 5.0
            assert span.attributes["error"] == "Boom"
        assert not other.closed  # unrelated tree untouched
        tracer.end_subtree(NULL_TRACER.start_span("null"))  # no-op

    def test_open_spans_and_category_queries(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        a = tracer.start_span("a", category=PHASE_UPLOAD)
        tracer.start_span("b", category=PHASE_EXECUTE)
        tracer.end_span(a)
        assert [s.name for s in tracer.open_spans()] == ["b"]
        assert [s.name for s in tracer.spans_by_category(PHASE_UPLOAD)] == ["a"]
        assert len(tracer) == 2


class TestNullTracer:
    def test_disabled_flag_is_class_attribute(self):
        assert NullTracer.enabled is False
        assert Tracer.enabled is True

    def test_all_operations_are_no_ops(self):
        null = NullTracer()
        span = null.start_span("s", category="x", parent=None, attr=1)
        assert span.span_id == 0
        assert span.annotate(more=2) is span
        null.end_span(span, attr=3)
        assert null.record_span("r", "c", 0.0, 1.0).span_id == 0
        assert null.instant("i", cause="x") is None
        assert null.spans == []
        assert null.metrics.snapshot() == {}

    def test_simulator_carries_null_tracer_by_default(self):
        assert Simulator().tracer is NULL_TRACER

    def test_real_tracer_ignores_null_span_end(self):
        tracer = Tracer(FakeClock())
        null_span = NULL_TRACER.start_span("x")
        tracer.end_span(null_span)  # must not raise or record
        assert len(tracer) == 0


class TestAttachTracer:
    def test_attach_installs_on_simulator(self):
        class Env:
            pass

        env = Env()
        env.sim = Simulator()
        tracer = attach_tracer(env)
        assert env.sim.tracer is tracer
        assert tracer.enabled

    def test_attach_accepts_prebuilt_tracer(self):
        class Env:
            pass

        env = Env()
        env.sim = Simulator()
        mine = Tracer(env.sim)
        assert attach_tracer(env, mine) is mine
        assert env.sim.tracer is mine
