"""Span-based tracing on the simulated clock.

A :class:`Span` is one named interval of simulated time — a job's whole
lifetime, one upload, one cold start — with attributes, nested children
(via ``parent``), and instant events.  A :class:`Tracer` records spans
against a clock (anything with a ``now`` attribute, normally the
:class:`~repro.sim.kernel.Simulator`) and owns a
:class:`~repro.telemetry.registry.LabeledMetricsRegistry` that every
ended span feeds, so phase timings are queryable as labeled summaries
without re-walking the span list.

Determinism is a hard contract: span ids are sequential, attributes keep
insertion order, and nothing here reads a wall clock or draws
randomness — two same-seed runs record byte-identical traces.

The **disabled fast path** is :class:`NullTracer` (singleton
:data:`NULL_TRACER`), which every :class:`~repro.sim.kernel.Simulator`
carries by default.  Instrumented sites hoist the ``enabled`` flag::

    tracer = sim.tracer
    if tracer.enabled:
        span = tracer.start_span("upload", category=PHASE_UPLOAD)

so a run without telemetry pays one attribute read per instrumented
operation and nothing per kernel event (verified by ``bench_o1``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.collectors import Summary
from repro.telemetry.registry import LabeledMetricsRegistry

#: Canonical phase categories, in the order a job experiences them.
PHASE_JOB = "job"
PHASE_PLAN = "plan"
PHASE_SCHEDULE = "schedule"
PHASE_UPLOAD = "upload"
PHASE_QUEUE = "queue"
PHASE_COLD_START = "cold_start"
PHASE_EXECUTE = "execute"
PHASE_RETRY = "retry"
PHASE_DOWNLOAD = "download"
PHASE_STAGE = "stage"
PHASE_TRANSFER = "transfer"
PHASE_FAULT = "fault"
PHASE_COMPONENT = "component"

#: Every category a tracer may emit (exporters validate against this).
ALL_CATEGORIES = (
    PHASE_JOB,
    PHASE_PLAN,
    PHASE_SCHEDULE,
    PHASE_UPLOAD,
    PHASE_QUEUE,
    PHASE_COLD_START,
    PHASE_EXECUTE,
    PHASE_RETRY,
    PHASE_DOWNLOAD,
    PHASE_STAGE,
    PHASE_TRANSFER,
    PHASE_FAULT,
    PHASE_COMPONENT,
)


class Span:
    """One named interval of simulated time.

    ``end`` is ``None`` while the span is open.  ``events`` holds
    ``(time, name, attributes)`` instants recorded inside the span.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "start",
        "end",
        "attributes",
        "events",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start: float,
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        #: Taken as given (not copied): the tracer passes its fresh
        #: ``**attributes`` dict.
        self.attributes: Dict[str, Any] = {} if attributes is None else attributes
        self.events: List[Tuple[float, str, Dict[str, Any]]] = []

    @property
    def duration(self) -> float:
        """Seconds the span covered (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        """True once the span has been ended."""
        return self.end is not None

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.start:.3f}..{self.end:.3f}" if self.closed else "open"
        return f"<Span #{self.span_id} {self.category}:{self.name} {state}>"


class _NullSpan:
    """The do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    duration = 0.0
    closed = True
    attributes: Dict[str, Any] = {}
    events: List[Tuple[float, str, Dict[str, Any]]] = []

    def annotate(self, **attributes: Any) -> "_NullSpan":
        return self


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is a class attribute so the hot-path guard is a plain
    attribute load.  All methods accept the recording tracer's full
    signatures, so instrumentation never needs an isinstance check.
    """

    __slots__ = ()
    enabled = False

    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span: Any, **attributes: Any) -> None:
        return None

    def end_subtree(self, root: Any, **attributes: Any) -> None:
        return None

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def instant(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> None:
        return None

    def subscribe(self, listener: Any) -> None:
        raise RuntimeError(
            "cannot subscribe to the disabled tracer; attach a recording "
            "Tracer (attach_tracer) before attaching listeners"
        )

    @property
    def spans(self) -> List[Span]:
        return []

    @property
    def metrics(self) -> LabeledMetricsRegistry:
        # A fresh empty registry: callers may snapshot it, but nothing
        # instrumented ever writes through the null tracer.
        return LabeledMetricsRegistry()

    def __repr__(self) -> str:
        return "NULL_TRACER"


_NULL_SPAN = _NullSpan()

#: Shared disabled tracer; the default on every Simulator.
NULL_TRACER = NullTracer()


class _InstantSlot:
    """One preallocated record slot in the tracer's write ring."""

    __slots__ = ("at", "name", "parent", "attributes")

    def __init__(self) -> None:
        self.at = 0.0
        self.name = ""
        self.parent: Optional[Span] = None
        self.attributes: Optional[Dict[str, Any]] = None


#: Slots preallocated per tracer; bounds the ring's constant footprint.
_RING_CAPACITY = 512


class _SpanSeconds(dict):
    """category → its ``span_seconds{category}`` summary in ``registry``,
    resolved on first use."""

    def __init__(self, registry: LabeledMetricsRegistry) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, category: str) -> Summary:
        summary = self[category] = self.registry.summary(
            "span_seconds", category=category
        )
        return summary


class Tracer:
    """Records spans against a simulated clock.

    Parameters
    ----------
    clock:
        Any object with a float ``now`` attribute — normally the
        :class:`~repro.sim.kernel.Simulator` the traced world runs on.
    """

    __slots__ = (
        "clock",
        "_spans",
        "_next_id",
        "_metrics",
        "_span_seconds",
        "_listeners",
        "_ring",
        "_ring_len",
    )

    enabled = True

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self._spans: List[Span] = []
        self._next_id = 1
        self.metrics = LabeledMetricsRegistry()
        self._listeners: List[Any] = []
        #: Zero-allocation write path (O3): listener-free ``instant()``
        #: calls write into these preallocated slots and materialise the
        #: canonical ``(time, name, attributes)`` records in bulk at the
        #: next flush point — any operation that allocates a span id or
        #: reads the trace.  The flush discipline keeps span-id order
        #: (and therefore golden traces) byte-identical to the direct
        #: path.
        self._ring: List[_InstantSlot] = [
            _InstantSlot() for _ in range(_RING_CAPACITY)
        ]
        self._ring_len = 0

    @property
    def metrics(self) -> LabeledMetricsRegistry:
        """The labeled registry every ended span feeds."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry: LabeledMetricsRegistry) -> None:
        self._metrics = registry
        self._span_seconds = _SpanSeconds(registry)

    # -- listeners ---------------------------------------------------------

    def subscribe(self, listener: Any) -> None:
        """Register a listener for finished spans and instant events.

        A listener implements ``on_span_end(span)`` (called when a span
        closes via :meth:`end_span` or arrives pre-closed via
        :meth:`record_span`) and ``on_instant(at, name, attributes,
        parent)`` (called for every :meth:`instant`; ``parent`` is the
        owning span or ``None``).  Listeners are notified in subscription
        order, synchronously, on the simulated clock — they must never
        mutate the span or schedule simulator events from the callback,
        or determinism (and golden fixtures) break.
        """
        self.flush()
        self._listeners.append(listener)

    # -- ring ---------------------------------------------------------------

    def flush(self) -> None:
        """Materialise ring-buffered instants into canonical records.

        Called automatically by every operation that allocates a span id
        or reads the trace, so callers only need it when handing the raw
        ``_spans`` list to out-of-band consumers.  Idempotent and cheap
        when the ring is empty (one int compare).
        """
        count = self._ring_len
        if not count:
            return
        self._ring_len = 0
        ring = self._ring
        spans = self._spans
        for index in range(count):
            slot = ring[index]
            attributes = slot.attributes
            record = (slot.at, slot.name, {} if attributes is None else attributes)
            target = slot.parent
            # Drop references so flushed slots never pin spans or dicts.
            slot.parent = None
            slot.attributes = None
            if target is not None:
                target.events.append(record)
            else:
                # Parentless instants live on a synthetic zero-length
                # span (same shape as the direct path); ids are handed
                # out here, which the flush discipline keeps in creation
                # order.
                span = Span(self._next_id, slot.name, "", slot.at)
                self._next_id += 1
                span.end = slot.at
                span.events.append(record)
                spans.append(span)

    # -- recording ---------------------------------------------------------

    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span at the current simulated time."""
        if self._ring_len:
            self.flush()
        span = Span(
            self._next_id,
            name,
            category,
            self.clock.now,
            parent.span_id if parent is not None else None,
            attributes,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def end_span(self, span: Span, **attributes: Any) -> None:
        """Close ``span`` at the current simulated time.

        Ending an already-closed span (or the null span) is a no-op, so
        error paths may end defensively.
        """
        if span.end is not None or span.span_id == 0:
            return
        if self._ring_len:
            # Buffered instants on this span must land before listeners
            # (or later readers) see it closed.
            self.flush()
        end = span.end = self.clock.now
        if attributes:
            span.attributes.update(attributes)
        category = span.category
        if category:
            self._span_seconds[category].observe(end - span.start)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_end(span)

    def end_subtree(self, root: Span, **attributes: Any) -> None:
        """End ``root`` and every still-open descendant at the current time.

        The error path of a traced operation: when a job dies mid-flight,
        whatever spans its subprocesses had open (a component, a transfer,
        a queue wait) are closed here with the failure's attributes, so no
        span leaks open and exporters see a complete trace.
        """
        if root.span_id == 0:
            return
        if self._ring_len:
            self.flush()
        parents = {span.span_id: span.parent_id for span in self._spans}

        def under_root(span: Span) -> bool:
            parent_id = span.parent_id
            while parent_id is not None:
                if parent_id == root.span_id:
                    return True
                parent_id = parents.get(parent_id)
            return False

        # Deepest-first (reverse creation order) so children close before
        # their parents.
        for span in reversed(self._spans):
            if not span.closed and under_root(span):
                self.end_span(span, **attributes)
        self.end_span(root, **attributes)

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Record a span with explicit times (fault windows, backfills)."""
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        if self._ring_len:
            self.flush()
        span = Span(
            self._next_id,
            name,
            category,
            start,
            parent.span_id if parent is not None else None,
            attributes,
        )
        self._next_id += 1
        span.end = end
        self._spans.append(span)
        if category:
            self._span_seconds[category].observe(end - start)
        if self._listeners:
            for listener in self._listeners:
                listener.on_span_end(span)
        return span

    def instant(
        self, name: str, parent: Optional[Span] = None, **attributes: Any
    ) -> None:
        """Record an instant event, attached to ``parent`` when given.

        With no listeners subscribed, the write lands in a preallocated
        ring slot — no tuples, dicts or spans are built per call — and
        materialises at the next flush point.  Listeners force the
        direct path because they observe instants synchronously.
        """
        target = parent if parent is not None and parent.span_id != 0 else None
        if not self._listeners:
            index = self._ring_len
            if index == _RING_CAPACITY:
                self.flush()
                index = 0
            slot = self._ring[index]
            slot.at = self.clock.now
            slot.name = name
            slot.parent = target
            # The kwargs dict is fresh per call (callers cannot alias
            # it), so it is stored as-is; None marks the empty case so
            # attribute-free instants write zero objects.
            slot.attributes = attributes if attributes else None
            self._ring_len = index + 1
            return
        record = (self.clock.now, name, dict(attributes))
        if target is not None:
            target.events.append(record)
        else:
            # Parentless instants live on a synthetic zero-length span so
            # exporters need only one representation.
            span = self.start_span(name, category="")
            span.end = span.start
            span.events.append(record)
        for listener in self._listeners:
            listener.on_instant(record[0], name, record[2], target)

    # -- reading -----------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All recorded spans, in creation order."""
        if self._ring_len:
            self.flush()
        return list(self._spans)

    def open_spans(self) -> List[Span]:
        """Spans not yet ended (useful for leak assertions in tests)."""
        if self._ring_len:
            self.flush()
        return [s for s in self._spans if not s.closed]

    def spans_by_category(self, category: str) -> List[Span]:
        """Recorded spans of one category, in creation order."""
        if self._ring_len:
            self.flush()
        return [s for s in self._spans if s.category == category]

    def __len__(self) -> int:
        if self._ring_len:
            self.flush()
        return len(self._spans)


def attach_tracer(env: Any, tracer: Optional[Tracer] = None) -> Tracer:
    """Install a (new) tracer on an environment's simulator.

    The tracer rides on ``env.sim.tracer``, where every instrumented
    subsystem (controller, platform, links, fault injector) looks for
    it.  Attach before planning/execution so plan spans are captured.
    """
    if tracer is None:
        tracer = Tracer(env.sim)
    env.sim.tracer = tracer
    return tracer


__all__ = [
    "ALL_CATEGORIES",
    "NULL_TRACER",
    "NullTracer",
    "PHASE_COLD_START",
    "PHASE_COMPONENT",
    "PHASE_DOWNLOAD",
    "PHASE_EXECUTE",
    "PHASE_FAULT",
    "PHASE_JOB",
    "PHASE_PLAN",
    "PHASE_QUEUE",
    "PHASE_RETRY",
    "PHASE_SCHEDULE",
    "PHASE_STAGE",
    "PHASE_TRANSFER",
    "PHASE_UPLOAD",
    "Span",
    "Tracer",
    "attach_tracer",
]
