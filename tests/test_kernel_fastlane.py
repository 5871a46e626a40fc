"""Differential test: fast-lane kernel vs the reference heap-only kernel.

The :class:`~repro.sim.Simulator` splits pending work between an
immediate FIFO fast lane and the time heap; its correctness claim is
that dispatch order is *byte-identical* to the single-global-heap kernel
it replaced (same ``(time, sequence)`` contract).  This suite runs
randomly generated process programs — same-time and future timeouts,
immediate succeeds, spawns, joins, interrupts (including one queued
before a fresh process's first dispatch), ``call_at`` callbacks —
on both kernels and requires identical execution logs, clocks, and
event counts.

:class:`ReferenceSimulator` is the old kernel reconstructed by adapter:
it replaces ``_fast`` with a falsy shim whose ``append`` pushes straight
onto the heap at ``(now, next_sequence)``.  Because the shim is always
falsy, the inherited ``step``/``run``/``peek`` take their heap-only
branches, and because the shim assigns sequences in scheduling order it
reproduces the pre-fast-lane global ordering exactly.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim._core import CKERNEL
from repro.sim.events import Interrupt


class _HeapLaneAdapter:
    """A ``_fast`` stand-in that reroutes every append onto the heap."""

    __slots__ = ("sim",)

    def __init__(self, sim: "ReferenceSimulator") -> None:
        self.sim = sim

    def append(self, item) -> None:
        sim = self.sim
        sim._sequence += 1
        heapq.heappush(sim._heap, [sim._now, sim._sequence, item])

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def popleft(self):  # pragma: no cover - falsy, so never drained
        raise AssertionError("reference kernel must never read the fast lane")


class ReferenceSimulator(Simulator):
    """The pre-fast-lane kernel: one global ``(time, sequence)`` heap."""

    def __init__(self, start: float = 0.0) -> None:
        super().__init__(start)
        self._fast = _HeapLaneAdapter(self)


if CKERNEL is not None:

    class CompiledLoopSimulator(Simulator):
        """A simulator that dispatches through the compiled batched loop.

        ``run()`` engages the C core whenever the fast lane is a
        ``_ckernel.FastLane``, so this opts in per-instance without
        touching ``REPRO_SIM_CORE`` — the differential suite then fuzzes
        the compiled loop in the same process as the pure reference.
        """

        def __init__(self, start: float = 0.0) -> None:
            super().__init__(start)
            self._fast = CKERNEL.FastLane()

    SIM_CLASSES = [Simulator, CompiledLoopSimulator]
    SIM_CLASS_IDS = ["pure-loop", "compiled-loop"]
else:  # pragma: no cover - compiled core not built in this environment
    SIM_CLASSES = [Simulator]
    SIM_CLASS_IDS = ["pure-loop"]


# Each op is (kind, arg); arg's meaning depends on the kind.
OPS = st.tuples(
    st.sampled_from(
        [
            "t0", "t0", "delay", "succeed", "spawn", "interrupt", "call_at",
            "fresh_interrupt",
        ]
    ),
    st.integers(min_value=0, max_value=5),
)
PROGRAMS = st.lists(
    st.lists(OPS, max_size=6), min_size=1, max_size=5
)


def _execute(sim_class, program):
    """Run ``program`` on a fresh kernel, returning its execution log.

    The log records every resume point with the process id, step index
    and clock — any divergence in dispatch order between two kernels
    shows up as reordered or re-timed entries.
    """
    sim = sim_class()
    log = []
    roots = []

    def body(pid, ops):
        for index, (kind, arg) in enumerate(ops):
            log.append(("step", pid, index, kind, sim.now))
            try:
                if kind == "t0":
                    yield sim.timeout(0.0, value=index)
                elif kind == "delay":
                    yield sim.timeout(0.5 * arg, value=index)
                elif kind == "succeed":
                    event = sim.event()
                    event.succeed((pid, index))
                    got = yield event
                    log.append(("value", pid, index, got, sim.now))
                elif kind == "spawn":
                    child_ops = [("t0", 0)] if arg % 2 else [("delay", arg)]
                    result = yield sim.spawn(body((pid, index), child_ops))
                    log.append(("join", pid, index, result, sim.now))
                elif kind == "interrupt":
                    roots[arg % len(roots)].interrupt(cause=(pid, index))
                    yield sim.timeout(0.0)
                elif kind == "fresh_interrupt":
                    # A process is its own start record: the interrupt
                    # queues behind it, before its first dispatch.
                    child_ops = [("delay", arg + 1)] if arg % 2 else [("t0", 0)]
                    child = sim.spawn(body((pid, index), child_ops))
                    child.interrupt(cause=(pid, index))
                    result = yield child
                    log.append(("join", pid, index, result, sim.now))
                elif kind == "call_at":
                    sim.call_at(
                        sim.now + 0.5 * arg,
                        lambda pid=pid, index=index: log.append(
                            ("call", pid, index, sim.now)
                        ),
                    )
                    yield sim.timeout(0.0)
            except Interrupt as interrupt:
                log.append(("intr", pid, index, interrupt.cause, sim.now))
        return pid

    for pid, ops in enumerate(program):
        roots.append(sim.spawn(body(pid, ops)))
    sim.run()
    log.append(("end", sim.now, sim.events_processed))
    return log


@pytest.mark.parametrize("sim_class", SIM_CLASSES, ids=SIM_CLASS_IDS)
@given(program=PROGRAMS)
@settings(max_examples=120, deadline=None)
def test_fast_lane_matches_reference_kernel(sim_class, program):
    assert _execute(sim_class, program) == _execute(
        ReferenceSimulator, program
    )


@pytest.mark.parametrize("checked_class", SIM_CLASSES, ids=SIM_CLASS_IDS)
@given(
    delays=st.lists(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]), min_size=1, max_size=30
    )
)
@settings(max_examples=80, deadline=None)
def test_same_time_insertion_order_matches_reference(checked_class, delays):
    """Dense same-timestamp traffic: the contract's hardest case."""

    def run(sim_class):
        sim = sim_class()
        order = []

        def waiter(tag, delay):
            yield sim.timeout(delay)
            order.append((tag, sim.now))
            yield sim.timeout(0.0)
            order.append((tag, "again", sim.now))

        for tag, delay in enumerate(delays):
            sim.spawn(waiter(tag, delay))
        sim.run()
        return order, sim.now, sim.events_processed

    assert run(checked_class) == run(ReferenceSimulator)


@pytest.mark.parametrize("checked_class", SIM_CLASSES, ids=SIM_CLASS_IDS)
@given(
    spawns=st.integers(min_value=2, max_value=10),
    kinds=st.lists(
        st.sampled_from(["t0", "t0", "interrupt", "succeed"]),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_same_time_homogeneous_bursts_match_reference(checked_class, spawns, kinds):
    """Same-time homogeneous bursts: the batching boundary's hardest case.

    ``spawns`` children all land at one timestamp and execute the same
    op mix — zero-delay timeouts, immediate succeeds, and interrupts
    aimed at the next sibling — so whole bursts flow through ``run()``'s
    batch drain, interleaved with mid-batch lane growth and mid-batch
    process death.  The heap-only reference must see the identical
    dispatch order.
    """

    def run(sim_class):
        sim = sim_class()
        log = []
        children = []

        def child(tag):
            try:
                for index, kind in enumerate(kinds):
                    log.append(("c", tag, index, kind, sim.now))
                    if kind == "t0":
                        yield sim.timeout(0.0)
                    elif kind == "interrupt":
                        victim = children[(tag + 1) % len(children)]
                        victim.interrupt(cause=tag)
                        yield sim.timeout(0.0)
                    else:
                        event = sim.event()
                        event.succeed(tag)
                        got = yield event
                        log.append(("v", tag, got, sim.now))
            except Interrupt as interrupt:
                log.append(("intr", tag, interrupt.cause, sim.now))

        def root():
            yield sim.timeout(1.0)
            # One spawn burst at t=1.0: every bootstrap occupies the
            # same-time lane before any child body runs.
            for tag in range(spawns):
                children.append(sim.spawn(child(tag)))

        sim.spawn(root())
        sim.run()
        log.append(("end", sim.now, sim.events_processed))
        return log

    assert run(checked_class) == run(ReferenceSimulator)


def test_reference_kernel_never_uses_fast_lane():
    sim = ReferenceSimulator()

    def proc(sim):
        yield sim.timeout(0.0)
        return "done"

    root = sim.spawn(proc(sim))
    assert len(sim._fast) == 0
    assert sim.run(until=root) == "done"
    assert len(sim._heap) == 0
