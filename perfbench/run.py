"""End-to-end simulator benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload offload_run --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` adds a traced run and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.

``--record`` recomputes the outcome digests and work counts of the
recorded seeds into ``perfbench/expected.json``; only a change that is
meant to alter simulated outcomes may do that.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from reference import REFERENCE_S, reference_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("offload_run", "fleet_sharded", "monitored_remediated")
#: The default seed and one held-out seed, whose outcomes are recorded.
RECORDED_SEEDS = (0, 1)
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
MIN_BATCHES = 3

#: Hermetic runs: no run ledger and no bench history may be written.
HERMETIC_ENV = {"REPRO_LEDGER": "", "REPRO_BENCH_HISTORY": ""}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# -- measurement ------------------------------------------------------------


@dataclass
class Timed:
    """One checked batch: host seconds of its run and of the reference
    loop timed just before it."""

    wall_s: float
    reference_s: float
    outcome: Any
    tallies: Optional[Dict[str, Any]]

    @property
    def scale(self) -> float:
        """Factor from host seconds to seconds at reference speed."""
        return REFERENCE_S / self.reference_s

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.scale


class Run:
    """Batches of one workload and seed, checked as they complete."""

    def __init__(self, name: str, seed: int, expected: Optional[Dict]) -> None:
        self.name = name
        self.seed = seed
        #: Recorded ``{"digest", "counts"}`` for this seed, if any; other
        #: seeds are checked against the first batch of the run.
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Context printed beside the result (raw host figures).
        self.info: Dict[str, Any] = {}

    def batch(self, attribution=None, sampler=None) -> Optional[Timed]:
        """Set up, run and check one batch; ``None`` if it raised.

        Only ``run()`` is timed, right after one pass of the reference
        loop.
        """
        from workloads import setup

        if attribution is not None:
            attribution.begin_batch()
        try:
            batch = setup(self.name, self.seed)
        except Exception:  # noqa: BLE001 - a broken program is a result
            self.error(traceback.format_exc(), 0)
            return None
        reference_s = reference_seconds()
        gc.collect()
        if sampler is not None:
            sampler.start()
        started = perf_counter()
        try:
            batch.run()
        except Exception:  # noqa: BLE001 - a broken program is a result
            self.error(traceback.format_exc(), batch.jobs)
            return None
        finally:
            if sampler is not None:
                sampler.stop()
        wall = perf_counter() - started
        outcome = batch.outcome()
        tallies = attribution.take() if attribution is not None else None
        self.attempted += outcome.jobs
        self.failed += outcome.failed
        if self.expected is None:
            self.expected = {"digest": outcome.digest}
        if outcome.digest != self.expected["digest"]:
            self.failed += outcome.jobs - outcome.failed
            self.errors.append(
                f"batch digest {outcome.digest[:16]} != "
                f"expected {self.expected['digest'][:16]}"
            )
        if tallies is not None:
            counts = work_counts(outcome, tallies)
            if "counts" not in self.expected:
                self.expected["counts"] = counts
            elif counts != self.expected["counts"]:
                self.errors.append(
                    f"work counts {counts} != expected "
                    f"{self.expected['counts']}"
                )
        return Timed(wall, reference_s, outcome, tallies)

    def error(self, text: str, jobs: int) -> None:
        self.attempted += jobs
        self.failed += jobs
        self.errors.append(text.strip().splitlines()[-1])
        print(text, file=sys.stderr)

    def timed(self, seconds: float, attribution=None, sampler=None
              ) -> List[Timed]:
        """Batches until ``seconds`` have passed (at least MIN_BATCHES)."""
        deadline = perf_counter() + seconds
        batches: List[Timed] = []
        while len(batches) < MIN_BATCHES or perf_counter() < deadline:
            timed = self.batch(attribution, sampler)
            if timed is None:
                break
            batches.append(timed)
        return batches

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


def work_counts(outcome, tallies: Dict[str, Any]) -> Dict[str, int]:
    """Every exact per-batch count: wrapped calls plus program counters."""
    counts = dict(outcome.counts)
    counts["events"] = outcome.events
    counts.update(tallies["counts"])
    counts["plan_distinct"] = tallies["plan_distinct"]
    return dict(sorted(counts.items()))


def setup_seconds(name: str, seed: int) -> List[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another."""
    env = dict(os.environ, **HERMETIC_ENV)
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe, name, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(name: str, seed: int) -> Dict[str, Any]:
    from repro.sim import _core

    return {
        "workload": name,
        "seed": seed,
        "sim_core": _core.ACTIVE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


# -- the two modes ----------------------------------------------------------


def end_to_end(run: Run, seconds: float) -> Dict[str, Any]:
    from attribution import Attribution

    setup = setup_seconds(run.name, run.seed)
    # Warm-up batch, untimed: lazy set-up finishes and the wrapped-call
    # counts are checked; the timed batches below run unwrapped.
    with Attribution() as attribution:
        run.batch(attribution)
    batches = run.timed(seconds)
    run.info["raw_jobs_per_s"] = statistics.median(
        t.outcome.jobs / t.wall_s for t in batches)
    run.info["reference_s"] = statistics.median(
        t.reference_s for t in batches)
    return {
        "jobs_per_s": statistics.median(
            t.outcome.jobs / t.norm_wall_s for t in batches),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run, seconds: float) -> Dict[str, Any]:
    from attribution import Attribution, LayerSampler

    with Attribution() as attribution:
        run.batch(attribution)
    plain = run.timed(seconds / 2)
    sampler = LayerSampler()
    with Attribution() as attribution:
        traced = run.timed(seconds / 2, attribution, sampler)
    write_spans(run, attribution, sampler)
    if not plain or not traced:
        return {}

    jobs = traced[0].outcome.jobs
    counts = run.expected["counts"]
    traced_wall = statistics.median(t.norm_wall_s for t in traced)
    total_samples = sum(sampler.samples.values()) or 1

    def self_s(layer: str) -> float:
        return sampler.samples[layer] / total_samples * traced_wall

    def span_s(name: str) -> float:
        return statistics.fmean(
            t.tallies["span_s"].get(name, 0.0) * t.scale for t in traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    shard_imbalance = statistics.median(
        ratio(max(t.tallies["shard_s"]), statistics.fmean(t.tallies["shard_s"]))
        if t.tallies["shard_s"] else 0.0
        for t in traced
    )
    return {
        "sim.self_s": self_s("sim"),
        "sim.events_per_job": counts["events"] / jobs,
        "sim.spawns_per_job": counts.get("spawn", 0) / jobs,
        "sim.events_per_s": statistics.median(
            t.outcome.events / t.norm_wall_s for t in plain),
        "core.self_s": self_s("core"),
        "core.plan_calls": counts.get("plan", 0),
        "core.plan_s": span_s("plan"),
        "core.plan_distinct_ratio": ratio(counts["plan_distinct"],
                                          counts.get("plan", 0)),
        "core.estimates_per_job": counts.get("estimate", 0) / jobs,
        "core.estimate_s": span_s("estimate"),
        "serverless.self_s": self_s("serverless"),
        "serverless.invocations_per_job": counts.get("invoke", 0) / jobs,
        "serverless.useful_invocation_ratio": ratio(
            counts["invocations_ok"], counts.get("invoke", 0)),
        "network.self_s": self_s("network"),
        "network.transfers_per_job": counts.get("transfer", 0) / jobs,
        "telemetry.self_s": self_s("telemetry"),
        "telemetry.spans_per_job": counts.get("spans", 0) / jobs,
        "monitor.self_s": self_s("monitor"),
        "monitor.slo_evals": counts.get("slo_eval", 0),
        "monitor.alerts": counts.get("alerts", 0),
        "remediate.self_s": self_s("remediate"),
        "remediate.polls": counts.get("poll", 0),
        "remediate.actions": counts.get("actions", 0),
        "faults.self_s": self_s("faults"),
        "fleet.merge_s": span_s("merge"),
        "fleet.merge_bytes": counts.get("merge_bytes", 0),
        "fleet.shard_imbalance": shard_imbalance,
        "sweep.self_s": self_s("sweep"),
        "device.self_s": self_s("device"),
        "metrics.self_s": self_s("metrics"),
        "apps.self_s": self_s("apps"),
        "trace_overhead_x": traced_wall / statistics.median(
            t.norm_wall_s for t in plain),
    }


def write_spans(run: Run, attribution, sampler) -> None:
    """Write the traced run's spans and samples once the run is over."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{run.name}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump({
            "provenance": provenance(run.name, run.seed),
            "samples": dict(sampler.samples),
            "sample_interval_s": sampler.interval_s,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "batch_starts": attribution.batch_starts,
            "spans": attribution.spans,
        }, out)


#: Units follow the metric name's suffix (first match wins).
SUFFIX_UNITS = (("_per_s", "1/s"), ("_per_job", "1/job"), ("_s", "s"),
                ("_mb", "MB"), ("_bytes", "bytes"), ("_ratio", "ratio"),
                ("_imbalance", "ratio"), ("_x", "ratio"))


def unit_of(metric: str) -> str:
    for suffix, unit in SUFFIX_UNITS:
        if metric.endswith(suffix):
            return unit
    return "count"


# -- recording --------------------------------------------------------------


def record() -> int:
    from attribution import Attribution

    expected: Dict[str, Dict[str, Any]] = {}
    for name in WORKLOAD_NAMES:
        for seed in RECORDED_SEEDS:
            run = Run(name, seed, None)
            with Attribution() as attribution:
                run.batch(attribution)
            if not run.correct:
                print(f"{name} seed {seed}: {run.errors}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = run.expected
    with open(EXPECTED, "w", encoding="utf-8") as out:
        json.dump(expected, out, indent=2, sort_keys=True)
        out.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(HERMETIC_ENV)
    sys.path.insert(0, SRC)
    if args.record:
        return record()

    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload].get(str(args.seed))
    run = Run(args.workload, args.seed, expected)
    measure = per_layer if args.trace else end_to_end
    try:
        values = measure(run, args.seconds)
    except Exception:  # noqa: BLE001 - report, never crash silently
        run.error(traceback.format_exc(), 0)
        values = {}
    print(json.dumps({"provenance": provenance(run.name, run.seed),
                      "info": run.info, "errors": run.errors}))
    metrics = {
        key: {"value": value, "unit": unit_of(key)}
        for key, value in values.items()
    }
    print(json.dumps({
        "correct": run.correct and bool(values),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
