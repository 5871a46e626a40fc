"""The golden-trace scenario: one pinned run, rendered bit-for-bit.

The simulator's determinism contract — same seed, same schedule, same
floats — is what lets every benchmark regenerate identically and every
refactor prove itself harmless.  This module turns that contract into a
regression test: :func:`run_golden_scenario` executes a fixed end-to-end
offloading workload (optionally under a fixed fault schedule) and renders
an ordered trace of everything observable — per-job outcomes, failures,
and the full metric snapshot — with ``repr`` floats, so the smallest
numeric drift flips the digest.

Fixtures live in ``tests/golden/``; regenerate them *intentionally* with
``python tools/regen_golden.py`` after a change that is supposed to alter
behaviour, and let the diff document exactly what moved.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.run import RunSpec, assemble

#: Root seed of the golden scenario; never change it casually — every
#: fixture line depends on it.
GOLDEN_SEED = 20260805

#: Bump when the *trace format* changes (not when traced values change).
TRACE_SCHEMA = 1


def golden_fault_schedule() -> FaultSchedule:
    """The pinned fault campaign of the faulted golden variant.

    One window of every kind the injector supports, placed so each
    actually bites the workload (verified via the trace's counters): the
    zone outage spans the second job's submission, the reclaim and
    straggler windows cover the post-outage cloud executions, the
    degraded uplink squeezes an upload, the downlink outage stalls a
    result download, and the brownout fires while the device is active.
    The run exercises outage waits, hedges, reclamations, straggler
    slowdowns, and local fallbacks; outage *rejections* cannot occur
    because outage-aware backoff keeps attempts out of the dead zone.
    """
    return FaultSchedule(
        [
            FaultWindow(FaultKind.ZONE_OUTAGE, 95.0, 200.0),
            FaultWindow(
                FaultKind.LINK_DEGRADED, 30.0, 120.0, target="uplink", magnitude=0.35
            ),
            FaultWindow(FaultKind.LINK_OUTAGE, 205.0, 216.0, target="downlink"),
            FaultWindow(
                FaultKind.SANDBOX_RECLAIM, 198.0, 240.0, magnitude=0.9
            ),
            FaultWindow(FaultKind.STRAGGLER, 198.0, 320.0, magnitude=3.0),
            FaultWindow(FaultKind.BATTERY_BROWNOUT, 50.0, 51.0, magnitude=0.08),
        ]
    )


def golden_run_spec(
    seed: int = GOLDEN_SEED, faults=(), trace: bool = False
) -> RunSpec:
    """The pinned workload every variant shares."""
    return RunSpec(
        seed=seed,
        links={
            "uplink_bandwidth": 2.0e6,
            "access_latency_s": 0.030,
            "wan_latency_s": 0.045,
        },
        input_mb=3.0,
        jobs=4,
        spacing_s=90.0,
        slack_s=600.0,
        # Explicit job ids keep the trace independent of the process-global
        # job counter (i.e. of whatever ran earlier in the same interpreter).
        first_job_id=1000,
        degradation={
            "outage_aware_backoff": True,
            "hedge_after_s": 90.0,
            "fallback_local": True,
            "fallback_slack_fraction": 0.5,
        },
        faults=faults,
        trace=trace,
    )


def run_golden_scenario(
    with_faults: bool, seed: int = GOLDEN_SEED, traced: bool = False
) -> List[str]:
    """Run the pinned scenario and return its canonical trace lines.

    With ``traced=True`` a telemetry tracer rides along and the rendered
    trace gains ``span``/``attribution``/``labeled`` lines plus the
    digest of the exported Chrome trace — so schema drift in the
    telemetry layer trips the fixture exactly like behavioural drift.
    The simulation itself must be unaffected: the standard lines of a
    traced run stay byte-identical to the untraced variant.
    """
    faults = golden_fault_schedule() if with_faults else ()
    run = assemble(golden_run_spec(seed, faults, trace=traced))
    report = run.execute()
    env, tracer = run.env, run.tracer

    lines: List[str] = [
        f"schema={TRACE_SCHEMA} seed={seed} faults={with_faults}",
        f"sim.now={env.sim.now!r} events={env.sim.events_processed}",
    ]
    for result in report.results:
        lines.append(
            f"job id={result.job.job_id} started={result.started_at!r} "
            f"finished={result.finished_at!r} energy_j={result.ue_energy_j!r} "
            f"cost_usd={result.cloud_cost_usd!r} met={result.met_deadline}"
        )
    for failure in sorted(report.failures, key=lambda f: f.job.job_id):
        lines.append(
            f"failure id={failure.job.job_id} at={failure.failed_at!r} "
            f"error={type(failure.error).__name__}"
        )
    snapshot = env.metrics.snapshot()
    for key in sorted(snapshot):
        lines.append(f"metric {key}={snapshot[key]!r}")
    if tracer is not None:
        lines.extend(_telemetry_lines(tracer))
    return lines


def _telemetry_lines(tracer) -> List[str]:
    """Canonical lines for the telemetry side of a traced golden run."""
    from repro.telemetry import build_report, dumps_chrome_trace

    payload = dumps_chrome_trace(tracer, metadata={"scenario": "golden"})
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    lines = [f"trace spans={len(tracer)} chrome_digest={digest}"]
    for span in tracer.spans:
        lines.append(
            f"span id={span.span_id} parent={span.parent_id} "
            f"cat={span.category} name={span.name} "
            f"start={span.start!r} end={span.end!r}"
        )
    report = build_report(tracer)
    for job in report.jobs:
        phases = " ".join(
            f"{phase}={job.phase_seconds[phase]!r}"
            for phase in sorted(job.phase_seconds)
        )
        lines.append(
            f"attribution job={job.job_id} makespan={job.makespan!r} "
            f"dominant={job.dominant_phase} {phases}"
        )
    labeled = tracer.metrics.snapshot()
    for key in sorted(labeled):
        lines.append(f"labeled {key}={labeled[key]!r}")
    return lines


def trace_digest(lines: List[str]) -> str:
    """SHA-256 over the joined trace lines."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def monitoring_chaos_schedule() -> FaultSchedule:
    """The R1-style chaos campaign of the *monitored* scenario.

    Every golden window plus an uplink outage placed mid-upload of the
    second job, so a transfer demonstrably stalls across the dead zone
    — the signal the link-outage SLO must catch.  (The golden schedule
    itself stays pinned; the fixtures depend on it.)
    """
    windows = list(golden_fault_schedule().windows)
    windows.append(
        FaultWindow(FaultKind.LINK_OUTAGE, 92.0, 140.0, target="uplink")
    )
    return FaultSchedule(windows)


def golden_monitoring_slos():
    """The pinned SLO set of the monitored golden scenario.

    Thresholds are tuned against the pinned workload so the fault-free
    run never alerts while the chaos run trips the link-outage detector
    (an upload stalled across the uplink ``LINK_OUTAGE`` window) and
    the cold-start-spike detector (sandboxes destroyed by the
    ``SANDBOX_RECLAIM`` window) — see ``tests/test_monitor.py``.
    """
    from repro.monitor import (
        AvailabilitySLO,
        ColdStartSLO,
        CostSLO,
        LatencySLO,
    )
    from repro.monitor.monitor import KIND_LINK

    return [
        AvailabilitySLO("zone-availability", objective=0.95),
        LatencySLO(
            "link-outage",
            KIND_LINK,
            "uplink",
            threshold_s=10.0,
            objective=0.5,
            signal="throughput",
        ),
        ColdStartSLO("cold-start-spike", objective=0.7),
        CostSLO("cost-budget", usd_per_hour=1.0),
    ]


def golden_monitoring_rules():
    """Burn-rate rules sized to the pinned workload's event rates.

    The golden run emits a handful of events per minute, so the stock
    SRE windows (meant for request floods) would never clear their
    ``min_events`` gates; these keep the same two-window shape at the
    scenario's scale.
    """
    from repro.monitor import BurnRateRule

    return (
        BurnRateRule("fast", short_s=60.0, long_s=300.0, factor=2.0,
                     min_events=6, severity="page"),
        BurnRateRule("slow", short_s=300.0, long_s=1800.0, factor=1.2,
                     min_events=12, severity="ticket"),
    )


def golden_monitoring_rule_overrides():
    """Per-SLO rule overrides for the monitored golden scenario.

    Link transfers arrive once per job, so the shared ``min_events``
    gates would mask even a total uplink outage; the link SLO gets a
    sparse-series rule pair instead.
    """
    from repro.monitor import BurnRateRule

    return {
        "link-outage": (
            BurnRateRule("outage", short_s=120.0, long_s=600.0, factor=1.0,
                         min_events=1, severity="page"),
        ),
    }


def run_monitored_scenario(with_faults: bool, seed: int = GOLDEN_SEED):
    """The golden scenario with the monitoring plane riding along.

    Returns a dict with the workload summary, the canonical alert log,
    the engine's final report, and the sorted names of SLOs that fired —
    everything the determinism and alerting tests assert on.  The
    monitor is a pure observer, so the simulation is byte-identical to
    the traced golden variant.
    """
    from repro.monitor import attach_monitoring

    faults = monitoring_chaos_schedule() if with_faults else ()
    run = assemble(golden_run_spec(seed, faults, trace=True))
    env, tracer = run.env, run.tracer
    # The custom SLO set has no RunSpec plane, so it is attached here,
    # after planning like every assembled plane.
    plane = attach_monitoring(
        env,
        golden_monitoring_slos(),
        rules=golden_monitoring_rules(),
        eval_interval_s=30.0,
        rule_overrides=golden_monitoring_rule_overrides(),
    )
    report = run.execute()
    engine = plane.engine
    engine.evaluate(env.sim.now)  # final sweep so short-lived tails clear
    return {
        "seed": seed,
        "with_faults": with_faults,
        "jobs_completed": report.jobs_completed,
        "failures": len(report.failures),
        "sim_end_s": env.sim.now,
        "alert_log": engine.alert_log(),
        "fired_slos": sorted({alert.slo for alert in engine.alerts}),
        "health": engine.health(env.sim.now),
        "report": engine.report(env.sim.now),
        "plane": plane,
        "tracer": tracer,
    }


__all__ = [
    "GOLDEN_SEED",
    "TRACE_SCHEMA",
    "golden_fault_schedule",
    "golden_monitoring_rule_overrides",
    "golden_monitoring_rules",
    "golden_monitoring_slos",
    "golden_run_spec",
    "monitoring_chaos_schedule",
    "run_golden_scenario",
    "run_monitored_scenario",
    "trace_digest",
]
