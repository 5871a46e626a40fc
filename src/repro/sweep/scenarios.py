"""Built-in sweep scenarios.

A scenario is a module-level function taking one JSON config dict and
returning a JSON-serialisable result.  Scenarios must be deterministic in
their config — all randomness seeded from it — because the sweep cache
and the byte-identical merge guarantee both assume that equal configs
mean equal results.

These are referenced from the CLI as e.g.
``repro.sweep.scenarios:offload_run``; projects add their own by pointing
the ``sweep`` subcommand at any importable function of the same shape.
"""

from __future__ import annotations

import math
from typing import Any, Dict


def _finite(value: float) -> Any:
    """JSON-safe float: canonical JSON rejects NaN/inf, so map them to
    ``None`` rather than poisoning a whole merged document."""
    return value if math.isfinite(value) else None


def offload_run(config: Dict[str, Any]) -> Dict[str, Any]:
    """One end-to-end controller workload run (the default CLI scenario).

    ``config`` is a :class:`~repro.run.RunSpec` document; every key is
    optional (``app``, ``seed``, ``connectivity``, ``input_mb``, ``jobs``,
    ``spacing_s``, ``slack_s``, ``scheduler``, ``window_s``, ``weights``,
    …) and an unknown key raises ``ValueError``.
    """
    from repro.run import RunSpec, assemble

    run = assemble(RunSpec.from_dict(config))
    report = run.execute()
    env, partition = run.env, run.controller.partition
    assert partition is not None
    return {
        "jobs_completed": report.jobs_completed,
        "failures": len(report.failures),
        "deadline_miss_rate": report.deadline_miss_rate,
        "mean_response_s": _finite(report.mean_response_s),
        "p95_response_s": _finite(report.percentile_response_s(95)),
        "ue_energy_j": report.total_ue_energy_j,
        "cloud_cost_usd": report.total_cloud_cost_usd,
        "cold_start_fraction": env.platform.cold_start_fraction(),
        "cloud_components": sorted(partition.cloud),
        "sim_events": env.sim.events_processed,
        "sim_end_s": env.sim.now,
    }


def monitored_run(config: Dict[str, Any]) -> Dict[str, Any]:
    """The monitored golden scenario as a sweep cell.

    Config keys (all optional): ``faults`` (default true), ``seed``.
    Returns the canonical alert log plus its digest, so a sweep across
    worker counts proves the monitoring plane's byte-identity claim —
    the merged JSON must not depend on scheduling of worker processes.
    """
    import hashlib

    from repro.testing.golden import GOLDEN_SEED, run_monitored_scenario

    result = run_monitored_scenario(
        bool(config.get("faults", True)),
        seed=int(config.get("seed", GOLDEN_SEED)),
    )
    log = result["alert_log"]
    return {
        "faults": result["with_faults"],
        "seed": result["seed"],
        "jobs_completed": result["jobs_completed"],
        "failures": result["failures"],
        "sim_end_s": result["sim_end_s"],
        "fired_slos": result["fired_slos"],
        "alert_log": log,
        "alert_digest": hashlib.sha256(log.encode("utf-8")).hexdigest(),
        "health": result["health"],
    }


def kernel_smoke(config: Dict[str, Any]) -> Dict[str, Any]:
    """A pure-kernel micro-simulation — fast enough for smoke tests.

    Spawns ``processes`` sleepers with staggered timeouts, interrupts
    every ``interrupt_every``-th one, and reports event counts plus a
    delivery log.  Exercises exactly the interrupt path the kernel
    regression suite guards, so a sweep smoke doubles as a kernel check.
    """
    from repro.sim import Interrupt, Simulator

    n_processes = int(config.get("processes", 8))
    interrupt_every = int(config.get("interrupt_every", 3))
    base_delay = float(config.get("base_delay_s", 5.0))
    sim = Simulator()
    deliveries: list[str] = []

    def sleeper(sim, index):
        try:
            yield sim.timeout(base_delay * (index + 1))
            deliveries.append(f"done:{index}")
        except Interrupt:
            deliveries.append(f"interrupt:{index}")
        yield sim.timeout(1.0)
        deliveries.append(f"after:{index}")

    def killer(sim, victims):
        yield sim.timeout(base_delay / 2)
        for victim in victims:
            victim.interrupt("smoke")

    processes = [sim.spawn(sleeper(sim, i), name=f"sleeper.{i}") for i in range(n_processes)]
    victims = [p for i, p in enumerate(processes) if interrupt_every and i % interrupt_every == 0]
    sim.spawn(killer(sim, victims))
    sim.run()
    return {
        "processes": n_processes,
        "interrupted": len(victims),
        "events_processed": sim.events_processed,
        "finished_at": sim.now,
        "deliveries": deliveries,
    }


def fleet_shard(config: Dict[str, Any]) -> Dict[str, Any]:
    """One fleet shard as a sweep cell (alias for the sharded runner's
    scenario, so ``repro sweep`` can address shards directly).

    Config keys: ``spec`` (a ``ShardedFleetSpec.to_dict()``), ``zones``
    (zone names on this shard), ``shard`` (index).  See
    :func:`repro.fleet.sharded.shard_run`.
    """
    from repro.fleet.sharded import shard_run

    return shard_run(config)


__all__ = ["fleet_shard", "kernel_smoke", "monitored_run", "offload_run"]
