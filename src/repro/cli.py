"""Command-line interface.

Exposes the library's main flows without writing code::

    python -m repro list-apps
    python -m repro plan --app photo_backup --connectivity 4g --input-mb 4
    python -m repro run  --app ml_training --jobs 5 --slack 3600 \\
                         --scheduler batcher --window 600
    python -m repro pipeline --app nightly_analytics
    python -m repro sweep --grid '{"connectivity": ["3g", "4g"]}' \\
                          --seeds 3 --workers 4 --out merged.json
    python -m repro fleet --zones 8 --shards 4 --chaos uplink-outage \\
                          --remediate --health-out health.json
    python -m repro diff baseline_trace.json candidate_trace.json
    python -m repro bench run --short --out bench.json
    python -m repro ledger show --last 5

Every command is deterministic for a given ``--seed``; ``sweep`` output
is additionally byte-identical regardless of ``--workers``, and
``fleet --health-out`` is byte-identical across shard/worker counts when
the merge is exact.  ``run``/``sweep``/``fleet`` invocations append one
line to the run ledger (``.repro_ledger.jsonl`` by default; disable
with ``--no-ledger`` or ``REPRO_LEDGER=""``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence

from repro.apps.catalog import CATALOG
from repro.metrics import Table
from repro.network.profiles import CONNECTIVITY_PROFILES
from repro.run import SCHEDULERS, WEIGHTS, RunSpec, assemble


def _usage(build, *args):
    """``build(*args)``, turning bad input (a ``ValueError``, or an
    unreadable file) into one stderr line and exit status 2.  The exit
    keeps the message as its text for in-process callers."""
    try:
        return build(*args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        exit_ = SystemExit(str(error))
        exit_.code = 2
        raise exit_ from None


def _run_spec(args: argparse.Namespace) -> RunSpec:
    """The validated :class:`RunSpec` behind a ``common()`` command."""
    fields = dict(
        app=args.app, seed=args.seed, connectivity=args.connectivity,
        input_mb=args.input_mb, weights=args.weights,
    )
    if args.command == "run":
        fields.update(
            jobs=args.jobs, spacing_s=args.spacing, slack_s=args.slack,
            scheduler=args.scheduler, window_s=args.window,
            with_storage=args.with_storage, workload=args.workload,
            trace=bool(args.trace),
            plane="remediate" if args.remediate else "none",
        )
    return _usage(lambda: RunSpec(**fields))


def _ledger_record(
    args: argparse.Namespace,
    command: str,
    config,
    wall_s: float,
    metrics=None,
    artifacts=(),
    status: str = "ok",
    meter=None,
) -> None:
    """Append one run-ledger entry (best-effort, never fatal)."""
    if getattr(args, "no_ledger", False):
        return
    from repro.ledger import append_entry, make_entry, resolve_ledger_path

    path = resolve_ledger_path(getattr(args, "ledger", None))
    if path is None:
        return
    entry = make_entry(
        command,
        config,
        wall_s,
        metrics=metrics,
        artifacts=[str(a) for a in artifacts if a],
        argv=getattr(args, "invocation_argv", []),
        status=status,
        meter=meter,
    )
    try:
        index = append_entry(path, entry)
    except OSError as error:
        print(f"warning: ledger append failed: {error}", file=sys.stderr)
        return
    print(
        f"ledger: entry #{index} ({entry.config_sha256[:12]}, "
        f"{entry.status}) -> {path}",
        file=sys.stderr,
    )


def _meter_payload(meter) -> dict:
    """Ledger-shaped view of a :class:`~repro.perf.RuntimeMeter`:
    deterministic counters and host wall-clock timings, kept apart so
    byte-sensitive consumers can drop the timings block wholesale."""
    return {"counters": meter.snapshot(), "timings": meter.timings()}


def _ledger_guard(args: argparse.Namespace, command: str, config, started):
    """Context manager recording a ``status: error`` ledger entry when the
    guarded command body dies mid-flight, so crashed runs still leave a
    trace in the experiment trajectory.  The exception propagates."""
    import contextlib
    import time

    @contextlib.contextmanager
    def guard():
        try:
            yield
        except Exception as error:
            _ledger_record(
                args,
                command=command,
                config=config,
                wall_s=time.perf_counter() - started,
                metrics={"error": type(error).__name__},
                status="error",
            )
            raise

    return guard()


def cmd_list_apps(_args: argparse.Namespace) -> int:
    table = Table(
        ["app", "components", "flows", "pinned", "total work @1MB (gcycles)"],
        title="Catalog applications",
        precision=1,
    )
    for name, factory in sorted(CATALOG.items()):
        app = factory()
        table.add_row(
            name, len(app), len(app.flows), len(app.pinned_names()),
            app.total_work(1.0),
        )
    print(table)
    return 0


def cmd_list_profiles(_args: argparse.Namespace) -> int:
    table = Table(
        ["profile", "uplink Mbit/s", "downlink Mbit/s", "access ms", "WAN ms"],
        title="Connectivity presets",
        precision=1,
    )
    for name, profile in sorted(CONNECTIVITY_PROFILES.items()):
        table.add_row(
            name,
            profile.uplink_bps * 8 / 1e6,
            profile.downlink_bps * 8 / 1e6,
            profile.access_latency_s * 1000,
            profile.wan_latency_s * 1000,
        )
    print(table)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    controller = assemble(_run_spec(args)).controller
    partition = controller.partition
    assert partition is not None
    print(f"app: {args.app}   connectivity: {args.connectivity}   "
          f"input: {args.input_mb} MB   weights: {args.weights}")
    print(f"cloud components: {sorted(partition.cloud) or '(none)'}")
    local = [
        n for n in controller.app.component_names if not partition.is_cloud(n)
    ]
    print(f"local components: {local}")
    if controller.allocation:
        table = Table(
            ["function", "memory MB", "expected s", "expected $/invocation"],
            title="Memory allocation",
            precision=3,
        )
        for name, decision in sorted(controller.allocation.items()):
            table.add_row(
                name, decision.memory_mb, decision.expected_duration_s,
                decision.expected_cost_usd,
            )
        print(table)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import time

    if args.actions_out and not args.remediate:
        raise SystemExit("--actions-out requires --remediate")
    started = time.perf_counter()
    spec = _run_spec(args)
    config = spec.to_dict()
    with _ledger_guard(args, "run", config, started):
        return _cmd_run_body(args, spec, config, started)


def _cmd_run_body(args: argparse.Namespace, spec, config, started) -> int:
    import time

    # A --workload trace that is unreadable or has no matching jobs is
    # bad input too.
    run = _usage(assemble, spec)
    report = run.execute()
    if args.trace:
        from repro.telemetry import write_chrome_trace

        write_chrome_trace(
            args.trace,
            run.tracer,
            metadata={
                "app": args.app,
                "connectivity": args.connectivity,
                "input_mb": args.input_mb,
                "jobs": len(run.jobs),
                "seed": args.seed,
            },
        )
        print(f"trace written to {args.trace}")
    if args.save_report:
        from repro.traces.replay import save_report

        save_report(args.save_report, report)
        print(f"report written to {args.save_report}")
    table = Table(["metric", "value"], title="Workload report", precision=3)
    table.add_row("jobs completed", report.jobs_completed)
    table.add_row("job failures", len(report.failures))
    table.add_row("deadline miss %", 100 * report.deadline_miss_rate)
    table.add_row("mean response s", report.mean_response_s)
    table.add_row("p95 response s", report.percentile_response_s(95))
    table.add_row("UE energy J", report.total_ue_energy_j)
    table.add_row("cloud cost $", report.total_cloud_cost_usd)
    table.add_row(
        "cold-start %",
        100 * run.env.platform.cold_start_fraction(),
    )
    sim_meter = run.env.sim.meter
    table.add_row("sim events", sim_meter.events_dispatched)
    table.add_row("fast-lane events", sim_meter.fast_lane_hits)
    table.add_row("plans computed", sim_meter.plans_computed)
    remediation = run.remediation
    if remediation is not None:
        table.add_row("alerts fired", len(run.engine.alerts))
        table.add_row("actions applied", len(remediation.actions))
    print(table)
    if remediation is not None:
        if remediation.log:
            print("action log:")
            for line in remediation.log:
                print(f"  {line}")
        else:
            print("action log: empty (no remediation action applied)")
        if args.actions_out:
            from pathlib import Path

            Path(args.actions_out).write_text(remediation.action_log())
            print(f"action log written to {args.actions_out}")
    metrics = {
        "deadline_miss_rate": report.deadline_miss_rate,
        "failures": len(report.failures),
        "jobs_completed": report.jobs_completed,
        "mean_response_s": report.mean_response_s,
        "total_cloud_cost_usd": report.total_cloud_cost_usd,
    }
    if remediation is not None:
        metrics["actions_applied"] = len(remediation.actions)
        metrics["alerts_fired"] = len(run.engine.alerts)
    _ledger_record(
        args,
        command="run",
        config=config,
        wall_s=time.perf_counter() - started,
        metrics=metrics,
        artifacts=(args.trace, args.save_report, args.actions_out),
        meter=_meter_payload(sim_meter),
    )
    return 0 if not report.failures else 1


def _load_artifact(loader, path: str):
    """Run ``loader(path)``, mapping load failures to a one-line exit 2.

    Missing files surface as ``OSError``, truncated/non-JSON content as
    ``json.JSONDecodeError`` (a ``ValueError`` subclass), and JSON of
    the wrong shape as ``ValueError`` — all user-input problems, so they
    get one stderr line and exit code 2 instead of a traceback.
    """
    try:
        return loader(path)
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as error:
        print(f"error: {path}: {error}", file=sys.stderr)
        raise SystemExit(2)


def _report_fleet_health(args: argparse.Namespace, payload: dict) -> int:
    """Render a ``repro fleet --health-out`` document."""
    from repro.monitor import fleet_health_to_prometheus

    fleet = payload.get("fleet", {})
    counters = payload.get("counters", {})
    table = Table(["metric", "value"], title="Fleet health report",
                  precision=3)
    table.add_row("fleet status", fleet.get("status", "?"))
    table.add_row("zones", fleet.get("zones", 0))
    table.add_row("UEs", fleet.get("ues", 0))
    table.add_row("coupling groups", fleet.get("groups", 0))
    table.add_row("alerts fired", fleet.get("alerts_fired", 0))
    table.add_row("alerts active", fleet.get("alerts_active", 0))
    table.add_row("monitored events", fleet.get("monitored_events", 0))
    table.add_row("jobs submitted", counters.get("jobs_submitted", 0))
    table.add_row("jobs completed", counters.get("jobs_completed", 0))
    table.add_row("failures", counters.get("failures", 0))
    table.add_row("cold starts", counters.get("cold_starts", 0))
    table.add_row("cloud cost $", counters.get("total_cloud_cost_usd", 0.0))
    print(table)
    zones = payload.get("zones", {})
    if zones:
        zone_table = Table(
            ["zone", "status", "UEs", "jobs", "completed", "failures",
             "mean resp s", "cost $"],
            title="Zone health",
            precision=3,
        )
        for name in sorted(zones):
            zone = zones[name]
            zone_table.add_row(
                name, zone.get("status", "?"), zone.get("ues", 0),
                zone.get("jobs", 0), zone.get("completed", 0),
                zone.get("failures", 0), zone.get("mean_response_s", 0.0),
                zone.get("cost_usd", 0.0),
            )
        print(zone_table)
    log = payload.get("log", [])
    if log:
        print("alert log:")
        for line in log:
            print(f"  {line}")
    else:
        print("alert log: empty (no SLO burn-rate rule fired)")
    if args.prometheus:
        print()
        sys.stdout.write(fleet_health_to_prometheus(payload))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.telemetry import report_from_file

    try:
        payload = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        # Unreadable/truncated inputs fall through to _load_artifact,
        # which maps them to the usual one-line exit 2.
        payload = None
    if isinstance(payload, dict):
        schema = payload.get("schema")
        if schema == "repro.monitor.fleet/1":
            return _report_fleet_health(args, payload)
        if schema == "repro.fleet.sharded/1":
            print(
                f"error: {args.trace} is a merged fleet document with no "
                "health rollups; re-run `repro fleet --health-out "
                "health.json` and report on that file",
                file=sys.stderr,
            )
            return 2
    run_report = _load_artifact(report_from_file, args.trace)
    print(run_report.render())
    if args.prometheus:
        print()
        for line in sorted(
            f"{name} {value!r}"
            for name, value in run_report.metrics.items()
        ):
            print(line)
    return 0


def _render_diff(result, threshold: float, out: Optional[str] = None) -> int:
    """Print a :class:`~repro.monitor.diff.TraceDiff`; returns exit code."""
    table = Table(
        ["metric", "before", "after", "delta", "rel %", "regressed"],
        title=f"{result.kind} diff (threshold {threshold:.0%})",
        precision=6,
    )
    for row in result.rows:
        rel = (
            "n/a" if math.isinf(row.relative) else f"{100 * row.relative:+.2f}"
        )
        table.add_row(
            row.metric, row.before, row.after, row.delta, rel,
            "REGRESSED" if row.regressed else "",
        )
    print(table)
    if out:
        import json
        from pathlib import Path

        Path(out).write_text(
            json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
        )
        print(f"diff written to {out}")
    if result.ok:
        print("OK: no regressions above threshold.")
        return 0
    names = ", ".join(row.metric for row in result.regressions)
    print(f"REGRESSION: {len(result.regressions)} metric(s) worsened "
          f">= {threshold:.0%}: {names}")
    return 1


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.monitor.diff import diff_profiles, load_profile

    before = _load_artifact(load_profile, args.before)
    after = _load_artifact(load_profile, args.after)
    try:
        result = diff_profiles(before, after, threshold=args.threshold)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _render_diff(result, args.threshold, out=args.out)


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import crossover_bandwidth, edge_breakeven_rate
    from repro.apps.lint import lint_app

    spec = _run_spec(args)
    app, weights = CATALOG[spec.app](), WEIGHTS[spec.weights]()
    print(f"Analysis of {args.app!r} at {args.input_mb} MB inputs "
          f"({args.weights} weights)\n")

    warnings = lint_app(app)
    if warnings:
        print("Lint findings:")
        for warning in warnings:
            print(f"  {warning}")
    else:
        print("Lint: clean.")

    crossover = crossover_bandwidth(app, input_mb=args.input_mb, weights=weights)
    if crossover is None:
        print("Offload crossover: none in 1 kB/s – 1 GB/s "
              "(one placement dominates everywhere).")
    else:
        print(f"Offload crossover: {crossover * 8 / 1e6:.2f} Mbit/s uplink — "
              "below this, keep it local; above, offload wins.")

    breakeven = edge_breakeven_rate(app, input_mb=args.input_mb)
    if math.isinf(breakeven):
        print("Edge breakeven: never (no offloadable work).")
    else:
        print(f"Edge breakeven: {breakeven:.1f} jobs/hour — below this "
              "rate a provisioned edge node costs more per job than "
              "serverless.")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import os
    import time
    from pathlib import Path

    from repro.sweep import SweepRunner, SweepSpec, canonical_json

    if args.spec:
        spec = SweepSpec.from_file(args.spec)
    else:
        try:
            grid = json.loads(args.grid) if args.grid else {}
            base = json.loads(args.base) if args.base else {}
        except json.JSONDecodeError as error:
            raise SystemExit(f"--grid/--base must be valid JSON: {error}")
        if not isinstance(grid, dict) or not isinstance(base, dict):
            raise SystemExit("--grid and --base must be JSON objects")
        spec = SweepSpec(
            scenario=args.scenario, base=base, grid=grid, seeds=args.seeds
        )
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    progress = None
    if args.progress:
        def progress(update):
            tag = "cached" if update.cached else "done"
            print(
                f"[sweep {update.completed}/{update.total}] {tag} "
                f"{update.key[:72]} ({update.wall_s:.1f}s)",
                file=sys.stderr,
                flush=True,
            )
    runner = SweepRunner(
        spec, workers=workers, cache_dir=args.cache_dir, progress=progress
    )
    config = spec.to_dict()
    started = time.perf_counter()
    with _ledger_guard(args, "sweep", config, started):
        result = runner.run()
    wall_s = time.perf_counter() - started

    if args.out:
        Path(args.out).write_text(result.merged_json())
        print(f"merged results written to {args.out}")
    if args.manifest:
        Path(args.manifest).write_text(canonical_json(result.manifest()) + "\n")
        print(f"manifest written to {args.manifest}")

    table = Table(["metric", "value"], title="Sweep summary", precision=2)
    table.add_row("scenario", spec.scenario_name)
    table.add_row("configs", len(result))
    table.add_row("executed", result.executed)
    table.add_row("cached", result.cached)
    table.add_row("workers", workers)
    table.add_row("wall s", wall_s)
    print(table)
    _ledger_record(
        args,
        command="sweep",
        config=config,
        wall_s=wall_s,
        metrics={
            "cached": result.cached,
            "configs": len(result),
            "executed": result.executed,
        },
        artifacts=(args.out, args.manifest),
        meter=_meter_payload(runner.meter),
    )
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import time

    from repro.fleet.sharded import ShardedFleetSpec
    from repro.fleet.topology import FleetTopology

    if args.actions_out and not args.remediate:
        raise SystemExit("--actions-out requires --remediate")

    def build():
        # A fleet with no zones, UEs, jobs or shards would run empty.
        for flag, value in (("--zones", args.zones),
                            ("--ues-per-zone", args.ues_per_zone),
                            ("--jobs-per-ue", args.jobs_per_ue),
                            ("--shards", args.shards)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        if args.workers < 0:
            raise ValueError(f"--workers must be >= 0, got {args.workers}")
        topology = FleetTopology.uniform(
            n_zones=args.zones,
            ues_per_zone=args.ues_per_zone,
            connectivity=args.connectivity,
            jobs_per_ue=args.jobs_per_ue,
            couple=args.couple,
            seed=args.seed,
        )
        monitored = bool(args.monitor or args.health_out or args.remediate)
        return topology, ShardedFleetSpec(
            topology=topology,
            app=args.app,
            input_mb=args.input_mb,
            window_s=args.window,
            slack_s=args.slack,
            keep_alive_s=args.keep_alive,
            sync_window_s=args.sync_window,
            monitor=monitored,
            chaos=args.chaos,
            remediate=bool(args.remediate),
        )

    topology, spec = _usage(build)
    config = {**spec.to_dict(), "n_shards": args.shards,
              "split_coupled": bool(args.split_coupled)}
    started = time.perf_counter()
    with _ledger_guard(args, "fleet", config, started):
        return _cmd_fleet_body(args, topology, spec, config, started)


def _cmd_fleet_body(args, topology, spec, config, started) -> int:
    import os
    import time
    from pathlib import Path

    from repro.fleet.sharded import run_sharded

    workers = args.workers if args.workers else (os.cpu_count() or 1)
    progress = None
    if args.progress:
        def progress(update):
            shard = "?"
            events = 0
            if isinstance(update.result, dict):
                shard = update.result.get("shard", "?")
                events = sum(
                    group.get("sim_events", 0)
                    for group in update.result.get("groups", ())
                    if isinstance(group, dict)
                )
            tag = "cached" if update.cached else "done"
            print(
                f"[fleet {update.completed}/{update.total}] shard {shard} "
                f"{tag}: {events} sim events ({update.wall_s:.1f}s)",
                file=sys.stderr,
                flush=True,
            )
    result = run_sharded(
        spec,
        n_shards=args.shards,
        workers=workers,
        split_coupled=args.split_coupled,
        cache_dir=args.cache_dir,
        progress=progress,
    )
    wall_s = time.perf_counter() - started

    if args.out:
        Path(args.out).write_text(result.merged_json())
        print(f"merged fleet report written to {args.out}")
    if args.health_out:
        Path(args.health_out).write_text(result.health_json())
        print(f"fleet health report written to {args.health_out}")

    aggregates = result.aggregates
    table = Table(["metric", "value"], title="Sharded fleet report",
                  precision=3)
    table.add_row("zones", len(topology.zones))
    table.add_row("UEs", topology.total_ues)
    table.add_row("jobs submitted", aggregates["jobs_submitted"])
    table.add_row("shards", result.plan.n_shards)
    table.add_row("workers", workers)
    table.add_row("merge", "exact" if result.exact else "bounded-error")
    table.add_row("jobs completed", aggregates["jobs_completed"])
    table.add_row("job failures", aggregates["failures"])
    table.add_row("deadline miss %", 100 * aggregates["deadline_miss_rate"])
    table.add_row("mean response s", aggregates["mean_response_s"])
    table.add_row("UE energy J", aggregates["total_ue_energy_j"])
    table.add_row("cloud cost $", aggregates["total_cloud_cost_usd"])
    table.add_row("platform bill $", aggregates["platform_usd"])
    table.add_row("cold-start %", 100 * aggregates["cold_start_fraction"])
    table.add_row("sim events", aggregates["sim_events"])
    if result.meter is not None:
        table.add_row("merge bytes", result.meter.merge_bytes)
    if result.health is not None:
        fleet_rollup = result.health["fleet"]
        table.add_row("fleet status", fleet_rollup["status"])
        table.add_row("alerts fired", fleet_rollup["alerts_fired"])
        table.add_row("alerts active", fleet_rollup["alerts_active"])
    if spec.remediate:
        table.add_row(
            "actions applied", len(result.health.get("actions", []))
        )
    table.add_row("wall s", wall_s)
    if wall_s > 0:
        table.add_row("UEs / wall s", topology.total_ues / wall_s)
    print(table)
    if result.health is not None and result.health["log"]:
        print("alert log:")
        for line in result.health["log"]:
            print(f"  {line}")
    if spec.remediate:
        action_lines = result.health.get("actions", [])
        if action_lines:
            print("action log:")
            for line in action_lines:
                print(f"  {line}")
        else:
            print("action log: empty (no remediation action applied)")
        if args.actions_out:
            Path(args.actions_out).write_text(result.action_log)
            print(f"action log written to {args.actions_out}")
    if result.error_bound is not None:
        bound = result.error_bound
        print(
            f"error bound (split links {bound['split_links']}): "
            f"|Δcold_starts| <= {bound['cold_starts']}, "
            f"|Δmean_response_s| <= {bound['mean_response_s']:.3f}, "
            f"Δcost = {bound['total_cloud_cost_usd']:.1f} "
            f"(window {bound['window_s']:.0f}s)"
        )
    metrics = {
        "cold_start_fraction": aggregates["cold_start_fraction"],
        "deadline_miss_rate": aggregates["deadline_miss_rate"],
        "failures": aggregates["failures"],
        "jobs_completed": aggregates["jobs_completed"],
        "jobs_submitted": aggregates["jobs_submitted"],
        "mean_response_s": aggregates["mean_response_s"],
        "sim_events": aggregates["sim_events"],
        "total_cloud_cost_usd": aggregates["total_cloud_cost_usd"],
    }
    if result.health is not None:
        metrics["alerts_fired"] = result.health["fleet"]["alerts_fired"]
        metrics["alerts_active"] = result.health["fleet"]["alerts_active"]
        metrics["fleet_status"] = result.health["fleet"]["status"]
    if spec.remediate:
        metrics["actions_applied"] = len(result.health.get("actions", []))
    _ledger_record(
        args,
        command="fleet",
        config=config,
        wall_s=wall_s,
        metrics=metrics,
        artifacts=(args.out, args.health_out, args.actions_out),
        meter=(
            _meter_payload(result.meter) if result.meter is not None else None
        ),
    )
    return 0 if not aggregates["failures"] else 1


def cmd_ledger(args: argparse.Namespace) -> int:
    from repro.ledger import (
        diff_entries,
        read_ledger,
        render_entries,
        resolve_ledger_path,
    )

    path = resolve_ledger_path(args.ledger)
    if path is None:
        print("error: ledger recording is disabled (empty path)",
              file=sys.stderr)
        return 2
    entries = read_ledger(path)

    if args.ledger_command == "show":
        if not entries:
            print(f"ledger {path}: no entries")
            return 0
        if args.index is not None:
            index = args.index + len(entries) if args.index < 0 else args.index
            if not 0 <= index < len(entries):
                print(f"error: index {args.index} out of range "
                      f"(ledger has {len(entries)} entries)", file=sys.stderr)
                return 2
            entry = entries[index]
            import json

            print(json.dumps(entry.to_dict(), sort_keys=True, indent=2))
            return 0
        indexed = list(enumerate(entries))
        if args.filter_command:
            indexed = [
                (i, e) for i, e in indexed if e.command == args.filter_command
            ]
        if args.last:
            indexed = indexed[-args.last:]
        if not indexed:
            print(f"ledger {path}: no matching entries")
            return 0
        if args.json:
            from repro.sweep import canonical_json

            for _, entry in indexed:
                print(canonical_json(entry.to_dict()))
            return 0
        print(
            render_entries(
                [e for _, e in indexed], indices=[i for i, _ in indexed]
            ),
            end="",
        )
        return 0

    # diff
    def pick(token: str):
        try:
            index = int(token)
        except ValueError:
            raise SystemExit(f"ledger indices must be integers, got {token!r}")
        resolved = index + len(entries) if index < 0 else index
        if not 0 <= resolved < len(entries):
            raise SystemExit(
                f"index {token} out of range (ledger has "
                f"{len(entries)} entries)"
            )
        return entries[resolved]

    before, after = pick(args.before), pick(args.after)
    try:
        result = diff_entries(before, after, threshold=args.threshold)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _render_diff(result, args.threshold)


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.profiling.hotspots import profile_scenario

    try:
        config = json.loads(args.config) if args.config else {}
    except json.JSONDecodeError as error:
        raise SystemExit(f"--config must be valid JSON: {error}")
    if not isinstance(config, dict):
        raise SystemExit("--config must be a JSON object")
    try:
        result = profile_scenario(args.scenario, config, top=args.top)
    except (ValueError, TypeError, ModuleNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.render())
    print(f"\n{result.total_calls} calls ({result.total_prim_calls} "
          f"primitive) in {result.wall_s:.3f} s — row order is "
          "call-count-ranked and reproducible; times are wall-clock.")
    if args.out:
        import json as _json
        from pathlib import Path

        Path(args.out).write_text(
            _json.dumps(result.to_dict(), sort_keys=True, indent=2,
                        default=str) + "\n"
        )
        print(f"profile written to {args.out}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.cicd import SourceRepository
    from repro.core.controller import Environment
    from repro.core.pipeline import OffloadPipeline, PipelineConfig

    spec = _run_spec(args)
    env = Environment.build(seed=spec.seed, connectivity=spec.connectivity)
    repo = SourceRepository(spec.app, CATALOG[spec.app]())
    pipeline = OffloadPipeline(
        env,
        repo,
        weights=WEIGHTS[spec.weights](),
        config=PipelineConfig(canary_jobs=args.canary_jobs),
    )
    run = pipeline.run_to_completion()
    print(f"revision {run.revision}: "
          f"{'PROMOTED' if run.promoted else 'ABANDONED'}")
    table = Table(["stage", "duration s", "detail"], precision=1)
    for stage in run.stages:
        table.add_row(stage.name, stage.duration_s, stage.detail[:60])
    print(table)
    return 0 if run.promoted else 1


def cmd_bench(args: argparse.Namespace) -> int:
    import os
    import time
    from pathlib import Path

    from repro.perf import bench as perf_bench

    if args.bench_command == "run":
        if args.short:
            # Bench modules read REPRO_BENCH_SHORT at import time, so the
            # flag must be in the environment before the registry loads.
            os.environ["REPRO_BENCH_SHORT"] = "1"
        registry = perf_bench.load_registry()
        ordered = [
            registry[spec.name]
            for module in perf_bench.REGISTERED_MODULES
            for spec in sorted(registry.values(), key=lambda s: s.name)
            if spec.module == module
        ]
        if args.bench:
            unknown = sorted(set(args.bench) - set(registry))
            if unknown:
                raise SystemExit(
                    f"unknown benchmark(s) {unknown}; registered: "
                    f"{sorted(registry)}"
                )
            ordered = [spec for spec in ordered if spec.name in set(args.bench)]
        mode = "short" if args.short else "full"
        results = {}
        table = Table(
            ["bench", "wall s", "primary metric"],
            title="Benchmark run",
            precision=3,
        )
        for spec in ordered:
            started = time.perf_counter()
            spec.runner()
            wall = time.perf_counter() - started
            payload = perf_bench.LAST_SUMMARIES.get(spec.name)
            if payload is None:
                raise SystemExit(
                    f"benchmark {spec.name!r} ran but recorded no summary "
                    "(its runner must call write_bench_summary)"
                )
            results[spec.name] = payload
            primary = ""
            if spec.primary is not None and spec.primary in payload:
                primary = f"{spec.primary}={payload[spec.primary]}"
            table.add_row(spec.name, wall, primary)
        document = perf_bench.build_document(results, mode)
        print(table)
        print(f"mode: {mode}; {len(results)} benchmark(s) executed")
        if args.out:
            from repro.sweep.spec import canonical_json

            Path(args.out).write_text(canonical_json(document) + "\n")
            print(f"bench document written to {args.out}")
        history_path = perf_bench.resolve_history_path(args.history)
        if history_path is not None:
            try:
                index = perf_bench.append_history(history_path, document)
            except OSError as error:
                print(f"warning: history append failed: {error}",
                      file=sys.stderr)
            else:
                print(f"history: entry #{index} -> {history_path}",
                      file=sys.stderr)
        return 0

    if args.bench_command == "compare":
        from repro.perf.check import main as check_main

        argv: List[str] = [args.fresh]
        for name in args.bench or ():
            argv += ["--bench", name]
        if args.committed:
            argv += ["--committed", args.committed]
        if args.baseline_dir:
            argv += ["--baseline-dir", args.baseline_dir]
        if args.threshold is not None:
            argv += ["--threshold", str(args.threshold)]
        if args.history is not None:
            argv += ["--history", args.history]
        if args.no_trend:
            argv.append("--no-trend")
        if args.trend_fail:
            argv.append("--trend-fail")
        return check_main(argv)

    # history
    path = perf_bench.resolve_history_path(args.history)
    if path is None:
        print("error: bench history is disabled (empty path)",
              file=sys.stderr)
        return 2
    entries = perf_bench.read_history(path)
    if not entries:
        print(f"bench history {path}: no entries")
        return 0
    if args.metric:
        series = perf_bench.history_series(entries, args.metric,
                                           mode=args.mode)
        if not series:
            print(f"bench history {path}: no values for {args.metric!r}")
            return 0
        for value in series:
            print(value)
        return 0
    if args.last:
        entries = entries[-args.last:]
    table = Table(
        ["#", "recorded_at", "mode", "git", "metrics"],
        title=f"Bench history ({path})",
    )
    for index, entry in enumerate(entries):
        fingerprint = entry.get("fingerprint", {})
        metrics = entry.get("metrics", {})
        brief = ", ".join(
            f"{key}={metrics[key]}" for key in sorted(metrics)[:3]
        )
        table.add_row(
            index,
            fingerprint.get("recorded_at", "?"),
            entry.get("mode", "?"),
            fingerprint.get("git_rev") or "-",
            brief,
        )
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serverless offloading for non-time-critical applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="show the catalog applications")
    sub.add_parser("list-profiles", help="show connectivity presets")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--app", required=True, help="catalog app name")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--connectivity", default="4g",
                       choices=sorted(CONNECTIVITY_PROFILES))
        p.add_argument("--input-mb", type=float, default=4.0)
        p.add_argument("--weights", default="non-time-critical",
                       help=" | ".join(WEIGHTS))

    plan = sub.add_parser("plan", help="compute partition + allocation")
    common(plan)

    def ledger_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ledger", default=None,
                       help="run-ledger JSONL path (default "
                            ".repro_ledger.jsonl; REPRO_LEDGER env "
                            "overrides; empty string disables)")
        p.add_argument("--no-ledger", action="store_true",
                       help="skip the run-ledger append for this invocation")

    run = sub.add_parser("run", help="run a workload end to end")
    common(run)
    ledger_flags(run)
    run.add_argument("--jobs", type=int, default=5)
    run.add_argument("--spacing", type=float, default=60.0,
                     help="seconds between job releases")
    run.add_argument("--slack", type=float, default=3600.0,
                     help="seconds from release to deadline")
    run.add_argument("--scheduler", default="eager",
                     choices=list(SCHEDULERS))
    run.add_argument("--window", type=float, default=300.0,
                     help="batcher window / costwindow resolution (s)")
    run.add_argument("--with-storage", action="store_true",
                     help="stage cut-edge data through an object store")
    run.add_argument("--workload", default=None,
                     help="JSON job trace to replay instead of synthesising")
    run.add_argument("--save-report", default=None,
                     help="write the run report to this JSON file")
    run.add_argument("--trace", default=None,
                     help="write a Chrome trace-event JSON of the run "
                          "(load in Perfetto, or feed to `repro report`)")
    run.add_argument("--remediate", action="store_true",
                     help="attach the closed-loop remediation plane: "
                          "live SLO alerts and goodput forecasts drive "
                          "hedging, memory, traffic-shift, and fallback "
                          "actions during the run")
    run.add_argument("--actions-out", default=None,
                     help="write the canonical remediation action log "
                          "here (requires --remediate)")

    report = sub.add_parser(
        "report", help="print phase attribution for a saved trace"
    )
    report.add_argument("trace", help="trace JSON written by `run --trace`")
    report.add_argument("--prometheus", action="store_true",
                        help="also dump the labeled metrics in Prometheus "
                             "text format")

    diff = sub.add_parser(
        "diff", help="compare two traces or reports phase by phase"
    )
    diff.add_argument("before", help="baseline trace/report JSON")
    diff.add_argument("after", help="candidate trace/report JSON")
    diff.add_argument("--threshold", type=float, default=0.05,
                      help="relative worsening that counts as a regression "
                           "(default 0.05 = 5%%)")
    diff.add_argument("--out", default=None,
                      help="also write the full diff as JSON here")

    pipeline = sub.add_parser("pipeline", help="run the CI/CD pipeline once")
    common(pipeline)
    pipeline.add_argument("--canary-jobs", type=int, default=3)

    analyze = sub.add_parser(
        "analyze", help="lint an app and compute its breakeven points"
    )
    common(analyze)

    profile = sub.add_parser(
        "profile",
        help="cProfile a scenario; deterministic call-count-ranked top-N",
    )
    profile.add_argument(
        "--scenario", default="offload_run",
        help="built-in scenario name or importable 'module:function' "
             "taking one config dict (default: offload_run)",
    )
    profile.add_argument(
        "--config", default=None,
        help='JSON config for the scenario, e.g. \'{"jobs": 20}\'',
    )
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the hot-function table (default 15)")
    profile.add_argument("--out", default=None,
                         help="also write the full profile as JSON here")

    sweep = sub.add_parser(
        "sweep", help="fan a scenario grid out across worker processes"
    )
    sweep.add_argument(
        "--scenario", default="repro.sweep.scenarios:offload_run",
        help="importable 'module:function' taking one config dict",
    )
    sweep.add_argument(
        "--spec", default=None,
        help="JSON sweep-spec file (overrides --scenario/--grid/--base/--seeds)",
    )
    sweep.add_argument(
        "--grid", default=None,
        help='JSON object of parameter axes, e.g. \'{"connectivity": ["3g", "4g"]}\'',
    )
    sweep.add_argument(
        "--base", default=None,
        help="JSON object merged into every config",
    )
    sweep.add_argument("--seeds", type=int, default=1,
                       help="seed replications per grid point")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes (default: all cores)")
    sweep.add_argument("--cache-dir", default=None,
                       help="per-config result cache directory "
                            "(e.g. .sweep_cache); re-runs execute only "
                            "the delta")
    sweep.add_argument("--out", default=None,
                       help="write the merged results JSON here "
                            "(byte-identical across worker counts)")
    sweep.add_argument("--manifest", default=None,
                       help="write the execution manifest JSON here")
    sweep.add_argument("--progress", action="store_true",
                       help="print per-config completion heartbeats to "
                            "stderr (completion order is nondeterministic)")
    ledger_flags(sweep)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a zoned UE fleet, sharded across worker processes",
    )
    fleet.add_argument("--app", default="photo_backup",
                       help="catalog app every UE runs")
    fleet.add_argument("--zones", type=int, default=4,
                       help="number of zones (default 4)")
    fleet.add_argument("--ues-per-zone", type=int, default=8,
                       help="UEs in each zone (default 8)")
    fleet.add_argument("--jobs-per-ue", type=int, default=1,
                       help="jobs each UE submits (default 1)")
    fleet.add_argument("--shards", type=int, default=1,
                       help="shards to partition the topology into")
    fleet.add_argument("--workers", type=int, default=0,
                       help="worker processes (default: all cores)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--connectivity", default="4g",
                       choices=sorted(CONNECTIVITY_PROFILES))
    fleet.add_argument("--couple", default="none",
                       choices=["none", "ring", "pairs"],
                       help="warm-pool coupling links between zones")
    fleet.add_argument("--split-coupled", action="store_true",
                       help="allow links to cross shards (bounded-error "
                            "merge instead of exact)")
    fleet.add_argument("--input-mb", type=float, default=2.0,
                       help="input size per job (default 2.0)")
    fleet.add_argument("--window", type=float, default=3600.0,
                       help="release window spreading the fleet's jobs (s)")
    fleet.add_argument("--slack", type=float, default=3600.0,
                       help="seconds from release to deadline")
    fleet.add_argument("--keep-alive", type=float, default=600.0,
                       help="platform sandbox keep-alive (s)")
    fleet.add_argument("--sync-window", type=float, default=600.0,
                       help="conservative sync window for the error bound "
                            "(clamped up to keep-alive)")
    fleet.add_argument("--cache-dir", default=None,
                       help="per-shard result cache directory")
    fleet.add_argument("--out", default=None,
                       help="write the merged fleet report JSON here "
                            "(byte-identical across shard/worker counts "
                            "when the merge is exact)")
    fleet.add_argument("--monitor", action="store_true",
                       help="attach a monitor shard to every coupling "
                            "group and merge the snapshots")
    fleet.add_argument("--chaos", default="none",
                       choices=["none", "uplink-outage", "uplink-degraded"],
                       help="deterministic fault schedule injected into "
                            "every UE's access link (default none)")
    fleet.add_argument("--health-out", default=None,
                       help="write the merged fleet health + alert-log "
                            "report JSON here (implies --monitor; "
                            "byte-identical across shard/worker counts "
                            "when the merge is exact)")
    fleet.add_argument("--remediate", action="store_true",
                       help="attach a closed-loop remediation engine to "
                            "every coupling group (implies --monitor); "
                            "the merged action log is byte-identical "
                            "across shard/worker counts")
    fleet.add_argument("--actions-out", default=None,
                       help="write the merged remediation action log "
                            "here (requires --remediate)")
    fleet.add_argument("--progress", action="store_true",
                       help="print per-shard completion heartbeats to "
                            "stderr (completion order is nondeterministic)")
    ledger_flags(fleet)

    bench = sub.add_parser(
        "bench",
        help="run the registered benchmark suite and gate on baselines",
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    brun = bsub.add_parser(
        "run", help="execute registered benchmarks, emit repro.bench/1 JSON"
    )
    brun.add_argument("--short", action="store_true",
                      help="short mode: reduced workloads (CI-sized)")
    brun.add_argument("--bench", action="append", default=None,
                      help="run only this benchmark (repeatable); "
                           "default: the full registered suite")
    brun.add_argument("--out", default=None,
                      help="write the canonical repro.bench/1 document here")
    brun.add_argument("--history", default=None,
                      help="bench-history JSONL path (default "
                           ".repro_bench_history.jsonl; REPRO_BENCH_HISTORY "
                           "env overrides; empty string disables)")
    bcompare = bsub.add_parser(
        "compare",
        help="check a fresh bench document against committed baselines",
    )
    bcompare.add_argument("fresh",
                          help="repro.bench/1 document (or legacy "
                               "BENCH_*.json summary) to check")
    bcompare.add_argument("--bench", action="append", default=None,
                          help="check only this benchmark (repeatable)")
    bcompare.add_argument("--committed", default=None,
                          help="explicit committed baseline file (single "
                               "bench only)")
    bcompare.add_argument("--baseline-dir", default=None,
                          help="directory of committed BENCH_<name>.json "
                               "baselines (default: repo benchmarks/)")
    bcompare.add_argument("--threshold", type=float, default=None,
                          help="override the primary metric's threshold")
    bcompare.add_argument("--history", default=None,
                          help="bench-history JSONL for trend analysis")
    bcompare.add_argument("--no-trend", action="store_true",
                          help="skip the trend sentinel")
    bcompare.add_argument("--trend-fail", action="store_true",
                          help="trend drifts fail instead of warn")
    bhistory = bsub.add_parser(
        "history", help="show the benchmark history ledger"
    )
    bhistory.add_argument("--history", default=None,
                          help="bench-history JSONL path (default "
                               ".repro_bench_history.jsonl)")
    bhistory.add_argument("--last", type=int, default=0,
                          help="only the last N entries")
    bhistory.add_argument("--metric", default=None,
                          help="print one '<bench>.<metric>' series, "
                               "one value per line, oldest first")
    bhistory.add_argument("--mode", default=None,
                          help="with --metric: only entries of this mode "
                               "(short | full)")

    ledger = sub.add_parser(
        "ledger", help="inspect the append-only run ledger"
    )
    lsub = ledger.add_subparsers(dest="ledger_command", required=True)
    show = lsub.add_parser("show", help="list recorded invocations")
    show.add_argument("--ledger", default=None,
                      help="ledger JSONL path (default .repro_ledger.jsonl; "
                           "REPRO_LEDGER env overrides)")
    show.add_argument("--last", type=int, default=0,
                      help="only the last N matching entries")
    show.add_argument("--command", dest="filter_command", default=None,
                      help="only entries recorded by this command "
                           "(run | sweep | fleet)")
    show.add_argument("--index", type=int, default=None,
                      help="print one entry in full (negative counts "
                           "from the end)")
    show.add_argument("--json", action="store_true",
                      help="emit entries as canonical JSON lines")
    ldiff = lsub.add_parser(
        "diff", help="compare two entries' metrics, direction-aware"
    )
    ldiff.add_argument("before", help="baseline entry index "
                                      "(negative counts from the end)")
    ldiff.add_argument("after", help="candidate entry index")
    ldiff.add_argument("--ledger", default=None,
                       help="ledger JSONL path (default .repro_ledger.jsonl; "
                            "REPRO_LEDGER env overrides)")
    ldiff.add_argument("--threshold", type=float, default=0.05,
                       help="relative worsening that counts as a "
                            "regression (default 0.05 = 5%%)")

    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "bench": cmd_bench,
    "fleet": cmd_fleet,
    "diff": cmd_diff,
    "ledger": cmd_ledger,
    "list-apps": cmd_list_apps,
    "list-profiles": cmd_list_profiles,
    "plan": cmd_plan,
    "profile": cmd_profile,
    "report": cmd_report,
    "run": cmd_run,
    "pipeline": cmd_pipeline,
    "sweep": cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    args.invocation_argv = list(argv) if argv is not None else sys.argv[1:]
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
