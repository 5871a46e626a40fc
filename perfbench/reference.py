"""Host-speed reference: a fixed pure-Python discrete-event loop.

On a shared VM the speed of the host drifts by 15-40% over minutes as
neighbours come and go, so raw host seconds of two runs minutes apart
are not comparable.  The benchmark times this loop right before every
batch and reports the batch's host time at reference speed, ``wall *
REFERENCE_S / reference_s``: the time the batch would have taken on a
host where this loop takes exactly :data:`REFERENCE_S`.  Measured over
16 fresh 20 s runs of ``offload_run``, that cut the spread (quartile
distance over median) of jobs per second from 0.15 raw to 0.03.

The loop shares the simulator's instruction mix (generator resumes,
heap operations, small-object allocation, dict stores) but none of its
code, so a change to ``repro`` cannot move it.  It must not be changed
itself without re-measuring the baseline.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from time import perf_counter

#: Seconds the loop takes on the 2-core VM the benchmark was tuned on;
#: only a unit: it scales every normalised time by the same constant.
REFERENCE_S = 0.06

_PROCESSES = 800
_STEPS = 20
_STORE_SLOTS = 20000


class _Event:
    def __init__(self, at: float, owner: int, payload: tuple) -> None:
        self.at = at
        self.owner = owner
        self.payload = payload
        self.callbacks: list = []


def _process(i: int):
    t = float(i % 97)
    state = {"id": i, "n": 0}
    for k in range(_STEPS):
        t += (i * 7 + k * 13) % 17 + 1
        state["n"] += 1
        yield _Event(t, i, (i, k, t))


def _loop() -> int:
    processes = [_process(i) for i in range(_PROCESSES)]
    heap: list = []
    store: dict = {}
    out: list = []
    seq = 0
    for process in processes:
        event = next(process)
        heappush(heap, (event.at, seq, event))
        seq += 1
    while heap:
        _at, _seq, event = heappop(heap)
        store[(event.owner * 31 + seq) % _STORE_SLOTS] = event
        event.callbacks.append(len(out))
        out.append(event.payload)
        try:
            following = next(processes[event.owner])
        except StopIteration:
            continue
        heappush(heap, (following.at, seq, following))
        seq += 1
    return seq


def reference_seconds() -> float:
    """Host seconds of one pass of the reference loop, from a clean heap."""
    gc.collect()
    started = perf_counter()
    _loop()
    return perf_counter() - started
