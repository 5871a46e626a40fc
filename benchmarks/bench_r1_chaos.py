"""R1 — Resilience: controllers under a rising fault intensity.

Runs the same seeded workload against the same chaos campaign (link
outages and degradation, zone outages, spot-style reclamation,
stragglers, brownouts) for three controllers:

* ``naive`` — one attempt, no degradation response;
* ``retry`` — exponential-backoff retries, but fault-blind;
* ``degrade`` — retries plus outage-aware backoff, straggler hedging,
  and fallback-to-local when the cloud stays dark.

Expected shape: at intensity 0 all three are indistinguishable; as
intensity rises the naive controller sheds jobs, retry-only survives
transients but burns its budget into zone outages, and the
degradation-aware controller holds the lowest deadline-miss rate.  The
whole campaign is generated from a seeded stream, and the benchmark
asserts bit-identical metrics across two same-seed runs — chaos included,
the simulator stays reproducible.
"""

import pytest

from repro.faults import FaultSchedule
from repro.metrics import Table, stable_digest
from repro.run import RunSpec, assemble
from repro.sim.rng import RngStream

from _common import emit, sweep_rows, write_bench_summary

SEED = 171
INTENSITIES = [0.0, 0.3, 0.6, 1.0]
N_JOBS = 12
INPUT_MB = 3.0
RELEASE_SPACING_S = 60.0
DEADLINE_SLACK_S = 500.0
# Chaos windows are drawn over the span the workload is actually active
# (12 releases x 60s plus the last job's slack), so campaigns hit work
# in flight instead of empty air after the last job finishes.
HORIZON_S = 750.0

RETRY = {"max_attempts": 3, "base_delay_s": 1.0, "multiplier": 2.0}
CONTROLLERS = {
    "naive": dict(retry={"max_attempts": 1, "base_delay_s": 1.0}),
    "retry": dict(retry=RETRY),
    "degrade": dict(
        retry=RETRY,
        degradation={
            "outage_aware_backoff": True,
            "hedge_after_s": 60.0,
            "fallback_local": True,
            "fallback_slack_fraction": 0.5,
        },
    ),
}


def chaos_schedule(intensity: float) -> FaultSchedule:
    """The campaign at one intensity — identical for every controller."""
    return FaultSchedule.chaos(
        intensity, HORIZON_S, RngStream(SEED * 1000 + int(intensity * 100))
    )


def run_cell(name: str, schedule: FaultSchedule):
    run = assemble(RunSpec(
        seed=SEED,
        links={"uplink_bandwidth": 2.0e6, "access_latency_s": 0.030},
        input_mb=INPUT_MB,
        jobs=N_JOBS,
        spacing_s=RELEASE_SPACING_S,
        slack_s=DEADLINE_SLACK_S,
        first_job_id=5000,
        faults=schedule,
        **CONTROLLERS[name],
    ))
    report = run.execute()
    controller = run.controller
    snap = run.env.metrics.snapshot()
    missed = sum(1 for r in report.results if not r.met_deadline)
    missed += len(report.failures)  # a lost job is the worst kind of miss
    responses = [r.finished_at - r.job.released_at for r in report.results]
    return {
        "miss_rate": missed / N_JOBS,
        "failed_jobs": len(report.failures),
        "mean_response_s": sum(responses) / len(responses) if responses else 0.0,
        "cloud_usd": sum(r.cloud_cost_usd for r in report.results),
        "fallbacks": snap.get(f"{controller.app.name}.fallbacks", 0.0),
        "hedges": snap.get("faas.hedges", 0.0),
        "outage_waits": snap.get("faas.retry.outage_waits", 0.0),
        "reclamations": snap.get("faas.reclamations", 0.0),
        "digest": stable_digest(snap),
    }


def chaos_cell(config):
    """Sweep cell: one (intensity, controller) pair of the campaign grid."""
    return run_cell(config["controller"], chaos_schedule(config["intensity"]))


def run_r1() -> Table:
    table = Table(
        [
            "intensity",
            "controller",
            "miss %",
            "failed",
            "mean resp s",
            "cloud $",
            "fallbacks",
            "hedges",
            "outage waits",
            "reclaims",
        ],
        title=(
            f"R1: chaos resilience — {N_JOBS} jobs, {DEADLINE_SLACK_S:.0f}s "
            f"slack, seeded fault campaigns over {HORIZON_S:.0f}s"
        ),
        precision=3,
    )
    miss_rates = {}
    configs = [
        {"intensity": intensity, "controller": name}
        for intensity in INTENSITIES
        for name in CONTROLLERS
    ]
    cells = sweep_rows(chaos_cell, configs)
    for config, cell in zip(configs, cells):
        intensity, name = config["intensity"], config["controller"]
        miss_rates[(intensity, name)] = cell["miss_rate"]
        table.add_row(
            intensity,
            name,
            100.0 * cell["miss_rate"],
            cell["failed_jobs"],
            cell["mean_response_s"],
            f"{cell['cloud_usd']:.2e}",
            int(cell["fallbacks"]),
            int(cell["hedges"]),
            int(cell["outage_waits"]),
            int(cell["reclamations"]),
        )

    # Determinism: the most chaotic cell, run twice from the same seed,
    # must reproduce its *entire* metric registry bit-for-bit.
    worst = chaos_schedule(INTENSITIES[-1])
    first = run_cell("degrade", worst)
    second = run_cell("degrade", worst.merged_with(FaultSchedule()))
    assert first["digest"] == second["digest"], "chaos run is not reproducible"

    # Calm weather: degradation machinery must cost nothing when idle.
    calm = INTENSITIES[0]
    assert miss_rates[(calm, "naive")] == miss_rates[(calm, "degrade")] == 0.0

    # Storm: graceful degradation must beat the fault-blind retry loop.
    storm = INTENSITIES[-1]
    assert (
        miss_rates[(storm, "degrade")] < miss_rates[(storm, "retry")]
    ), "degradation-aware controller should out-survive retry-only"
    assert miss_rates[(storm, "retry")] <= miss_rates[(storm, "naive")]
    write_bench_summary(
        "r1_chaos",
        {
            "seed": SEED,
            "jobs": N_JOBS,
            "intensities": INTENSITIES,
            "miss_rate": {
                f"{intensity}/{name}": rate
                for (intensity, name), rate in sorted(miss_rates.items())
            },
            "worst_cell_digest": first["digest"],
        },
    )
    return table


def bench_r1_chaos(benchmark):
    table = benchmark.pedantic(run_r1, rounds=1, iterations=1)
    emit(table)


if __name__ == "__main__":
    emit(run_r1())
