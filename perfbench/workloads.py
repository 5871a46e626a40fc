"""The three benchmark workloads, each a seeded batch of simulated jobs.

A workload is set up by :func:`setup` (untimed) and returns a
:class:`Batch`; ``Batch.run()`` is the timed region and
``Batch.outcome()`` reduces what the simulation produced to a digest
plus the counts the benchmark checks for exact equality.

Importing this module imports ``repro``; the set-up probe times that
import, so nothing here may run work at import time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.apps.catalog import CATALOG
from repro.apps.jobs import Job
from repro.core import (
    EagerScheduler,
    Environment,
    ObjectiveWeights,
    OffloadController,
)
from repro.faults import (
    DegradationPolicy,
    FaultKind,
    FaultSchedule,
    FaultWindow,
    inject_faults,
)
from repro.fleet.sharded import ShardedFleetSpec, run_sharded
from repro.fleet.topology import FleetTopology
from repro.remediate import attach_remediation
from repro.telemetry import attach_tracer

APP = "photo_backup"
CONNECTIVITY = "4g"
INPUT_MB = 4.0
SPACING_S = 60.0
SLACK_S = 3600.0

#: Jobs per batch.  Each batch takes roughly 0.3-0.7 s of host time on a
#: 2-core VM, so one run times a few dozen batches and reports their
#: median: on a shared host single batches vary by +-20%.
OFFLOAD_JOBS = 500
MONITORED_JOBS = 200
FLEET_ZONES = 8
FLEET_UES_PER_ZONE = 16
FLEET_JOBS_PER_UE = 2
FLEET_SHARDS = 2

#: The uplink outage of ``monitored_remediated`` covers this share of
#: the release span, the same shape as the fleet ``uplink-outage`` chaos.
OUTAGE_SPAN = (0.20, 0.55)


@dataclass
class Outcome:
    """What one batch produced, reduced for comparison."""

    digest: str
    jobs: int
    failed: int
    events: int
    #: Exact work counts read from the program after the batch
    #: (``run.py`` adds the wrapped-call counts).
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class Batch:
    """One set-up batch: ``run()`` is the timed region."""

    jobs: int
    run: Callable[[], None]
    outcome: Callable[[], Outcome]


def _result_lines(report) -> List[str]:
    """Every simulated per-job statistic, as exact text."""
    lines = []
    for r in report.results:
        lines.append(repr((
            r.job.job_id, r.started_at, r.finished_at, r.ue_energy_j,
            r.cloud_cost_usd, sorted(r.component_finish_times.items()),
            sorted(r.energy_breakdown.items()),
        )))
    for f in report.failures:
        lines.append(repr((f.job.job_id, f.failed_at, type(f.error).__name__)))
    return lines


def _sha(parts: List[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _controller(env: Environment, degradation=None) -> OffloadController:
    controller = OffloadController(
        env,
        CATALOG[APP](),
        scheduler=EagerScheduler(),
        weights=ObjectiveWeights.non_time_critical(),
        degradation=degradation,
    )
    controller.profile_offline()
    controller.plan(input_mb=INPUT_MB)
    return controller


def _jobs(app, n: int) -> List[Job]:
    # Explicit ids: the default id is a process-global counter, which
    # would make a batch's output depend on how many batches ran before.
    return [
        Job(app, input_mb=INPUT_MB, released_at=SPACING_S * i,
            deadline=SPACING_S * i + SLACK_S, job_id=i)
        for i in range(n)
    ]


def _controller_batch(controller, jobs, finish=None, logs=None) -> Batch:
    env = controller.env
    box: Dict[str, Any] = {}

    def run() -> None:
        box["report"] = controller.run_workload(jobs)
        if finish is not None:
            finish()

    def outcome() -> Outcome:
        report = box["report"]
        events = env.sim.meter.events_dispatched
        parts = _result_lines(report) + [f"events={events}"]
        counts = {"plans_computed": env.sim.meter.plans_computed,
                  "invocations_ok": len(env.platform.invocations)}
        if env.sim.tracer.enabled:
            counts["spans"] = len(env.sim.tracer)
        if logs is not None:
            alert_log, action_log, n_alerts, n_actions = logs()
            parts += [alert_log, action_log]
            counts["alerts"] = n_alerts
            counts["actions"] = n_actions
        return Outcome(
            digest=_sha(parts),
            jobs=len(jobs),
            failed=len(report.failures),
            events=events,
            counts=counts,
        )

    return Batch(jobs=len(jobs), run=run, outcome=outcome)


def offload_run(seed: int) -> Batch:
    """One controller, eager scheduler, fixed input, null tracer."""
    env = Environment.build(seed=seed, connectivity=CONNECTIVITY)
    controller = _controller(env)
    return _controller_batch(controller, _jobs(controller.app, OFFLOAD_JOBS))


def monitored_remediated(seed: int) -> Batch:
    """``offload_run`` wired like ``repro run --remediate``, plus an
    uplink outage over part of the release span."""
    env = Environment.build(seed=seed, connectivity=CONNECTIVITY)
    attach_tracer(env)
    span = SPACING_S * MONITORED_JOBS
    inject_faults(env, FaultSchedule([
        FaultWindow(FaultKind.LINK_OUTAGE, OUTAGE_SPAN[0] * span,
                    OUTAGE_SPAN[1] * span, target="uplink"),
    ]))
    controller = _controller(env, DegradationPolicy(
        outage_aware_backoff=True, hedge_after_s=None, fallback_local=True,
    ))
    plane = attach_remediation(env, [controller])

    def logs():
        return (plane.engine.alert_log(), plane.remediation.action_log(),
                len(plane.engine.alerts), len(plane.remediation.actions))

    return _controller_batch(
        controller,
        _jobs(controller.app, MONITORED_JOBS),
        finish=lambda: plane.engine.finalize(float(env.sim.now)),
        logs=logs,
    )


def fleet_sharded(seed: int) -> Batch:
    """A sharded fleet run in-process: per-UE planning dominates."""
    spec = ShardedFleetSpec(topology=FleetTopology.uniform(
        FLEET_ZONES, FLEET_UES_PER_ZONE, jobs_per_ue=FLEET_JOBS_PER_UE,
        couple="pairs", seed=seed,
    ))
    box: Dict[str, Any] = {}

    def run() -> None:
        box["result"] = run_sharded(
            spec, n_shards=FLEET_SHARDS, workers=1, cache_dir=None
        )

    def outcome() -> Outcome:
        result = box["result"]
        text = result.merged_json()
        aggregates = result.aggregates
        meter = result.meter
        jobs = aggregates["jobs_submitted"]
        return Outcome(
            digest=_sha([text]),
            jobs=jobs,
            failed=jobs - aggregates["jobs_completed"],
            events=aggregates["sim_events"],
            counts={"plans_computed": meter.plans_computed,
                    "invocations_ok": aggregates["invocations"],
                    "merge_bytes": meter.merge_bytes},
        )

    return Batch(jobs=spec.topology.total_jobs, run=run, outcome=outcome)


WORKLOADS: Dict[str, Callable[[int], Batch]] = {
    "offload_run": offload_run,
    "fleet_sharded": fleet_sharded,
    "monitored_remediated": monitored_remediated,
}


def setup(name: str, seed: int) -> Batch:
    return WORKLOADS[name](seed)


__all__ = ["Batch", "Outcome", "WORKLOADS", "setup"]
