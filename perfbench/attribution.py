"""Per-layer attribution, installed from outside the program.

Two mechanisms, neither of which edits ``repro``:

* **Boundary wrappers.**  :class:`Attribution` replaces a handful of
  public functions (one or two per layer) with wrappers that count
  calls and record a span — name, start, end, parent — in memory.  The
  counts are exact and machine independent; the spans give the
  inclusive host time of the synchronous calls (planning, estimates,
  SLO evaluation, the fleet merge) and are written out when the run
  ends.  ``Simulator.spawn`` is only counted: it runs ~100 times per
  job and its span would be the cost of building a generator.
* **A sampling profiler.**  :class:`LayerSampler` takes a ``SIGALRM``
  sample every :data:`SAMPLE_INTERVAL_S` of wall time and charges
  it to the innermost ``repro.<package>`` frame on the stack.  Frames of
  the standard library and third-party packages (networkx) are skipped,
  and C builtins have no frame, so both are charged to the ``repro``
  layer that called them.  Samples landing in the wrappers above are
  charged to ``bench`` (the instrumentation itself).  Unlike
  ``cProfile``, the cost does not grow with the number of calls.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
import repro.fleet.sharded as sharded
from repro.core.controller import OffloadController
from repro.monitor.slo import SLOEngine
from repro.network.link import NetworkPath
from repro.remediate.engine import RemediationEngine
from repro.serverless.platform import ServerlessPlatform
from repro.sim.kernel import Simulator

SAMPLE_INTERVAL_S = 0.001

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: (owner, attribute, span name or None for count-only).
_BOUNDARIES: Tuple[Tuple[Any, str, Optional[str]], ...] = (
    (Simulator, "spawn", None),
    (OffloadController, "plan", "plan"),
    (OffloadController, "estimate_completion", "estimate"),
    (ServerlessPlatform, "invoke", "invoke"),
    (NetworkPath, "transfer", "transfer"),
    (SLOEngine, "evaluate", "slo_eval"),
    (RemediationEngine, "poll", "poll"),
    (sharded, "shard_run", "shard"),
    (sharded, "merge_group_records", "merge"),
)


def layer_of(filename: str) -> str:
    """``repro.<package>`` name for a source file; ``bench`` for this
    benchmark's own files; ``""`` for anything else (skipped)."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_DIR):
        head, sep, _rest = path[len(_REPRO_DIR):].partition(os.sep)
        return head if sep else "repro"
    if path.startswith(_BENCH_DIR):
        return "bench"
    return ""


class LayerSampler:
    """``SIGALRM`` sampler rolling the stack up to one layer per sample."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: Counter = Counter()
        self._layers: Dict[str, str] = {}
        self._previous: Any = None

    def _sample(self, _signum: int, frame: Any) -> None:
        layers = self._layers
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = layers.get(filename)
            if layer is None:
                layer = layers[filename] = layer_of(filename)
            if layer:
                self.samples[layer] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


class Attribution:
    """Counting and span-recording wrappers around the layer boundaries.

    Use as a context manager; the originals are restored on exit.  Spans
    are ``(name, start_s, end_s, parent_index)`` tuples, parent ``-1``
    for a root.  :meth:`begin_batch` starts a batch's tallies and
    :meth:`take` reads them.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.shard_s: List[float] = []
        self.plan_results: set = set()
        self._stack: List[int] = []
        #: Index of each batch's first span: spans of one batch share
        #: the batch as their trace identifier.
        self.batch_starts: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Attribution":
        for owner, attr, span in _BOUNDARIES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapper = (self._counted(attr, original) if span is None
                       else self._spanned(span, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *_exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name: str, fn: Callable) -> Callable:
        counts, spans, stack = self.counts, self.spans, self._stack
        after = {"plan": self._after_plan, "shard": self._after_shard}.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, started, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args[0], spans[index])
            return result

        return wrapper

    def _after_plan(self, controller: OffloadController, _span: Tuple) -> None:
        self.plan_results.add((
            tuple(sorted(controller.partition.cloud)),
            tuple(sorted((name, decision.memory_mb)
                         for name, decision in controller.allocation.items())),
        ))

    def _after_shard(self, _config: Any, span: Tuple) -> None:
        self.shard_s.append(span[2] - span[1])

    # -- per-batch readout --------------------------------------------------

    def begin_batch(self) -> None:
        self.counts.clear()
        self.plan_results.clear()
        self.shard_s.clear()
        self.batch_starts.append(len(self.spans))

    def take(self) -> Dict[str, Any]:
        """Counts and span time of the batch since :meth:`begin_batch`."""
        span_s: Counter = Counter()
        for name, started, ended, _parent in self.spans[self.batch_starts[-1]:]:
            span_s[name] += ended - started
        return {
            "counts": dict(self.counts),
            "span_s": dict(span_s),
            "plan_distinct": len(self.plan_results),
            "shard_s": list(self.shard_s),
        }
