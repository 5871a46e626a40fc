"""Tests for the multi-device fleet layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Job, OffloadController, photo_backup_app
from repro.apps import nightly_analytics_app
from repro.core.demand import DemandModel, RegressionEstimator
from repro.core.partitioning import MinCutPartitioner, SimulatedAnnealingPartitioner
from repro.core.scheduler import DeadlineBatcher
from repro.fleet import FleetController, FleetEnvironment
from repro.profiling.profiler import DemandObservation
from repro.serverless.platform import PlatformConfig
from repro.sim.rng import RngStream
from repro.telemetry.tracer import attach_tracer


def make_fleet(n=4, seed=1, connectivity="4g", app=None, **controller_kwargs):
    env = FleetEnvironment.build(n_devices=n, seed=seed, connectivity=connectivity)
    fleet = FleetController(env, app or photo_backup_app(), **controller_kwargs)
    fleet.profile_offline()
    fleet.plan(input_mb=3.0)
    return env, fleet


def staggered_jobs(fleet, n_devices, per_device=2, spacing=45.0, slack=3600.0):
    return {
        device: [
            Job(
                fleet.app,
                input_mb=3.0,
                released_at=spacing * (device + n_devices * k),
                deadline=spacing * (device + n_devices * k) + slack,
            )
            for k in range(per_device)
        ]
        for device in range(n_devices)
    }


class TestFleetEnvironment:
    def test_build_shapes(self):
        env = FleetEnvironment.build(n_devices=3, seed=0)
        assert len(env) == 3
        names = {device.ue.spec.name for device in env.devices}
        assert names == {"ue0", "ue1", "ue2"}
        # One shared platform and simulator.
        assert all(d.platform is env.platform for d in env.devices)
        assert all(d.sim is env.sim for d in env.devices)

    def test_mixed_connectivity_cycles(self):
        env = FleetEnvironment.build(
            n_devices=4, seed=0, connectivity=["wifi", "3g"]
        )
        rates = [d.uplink.bottleneck_rate() for d in env.devices]
        assert rates[0] == rates[2] > rates[1] == rates[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetEnvironment.build(n_devices=0)

    def test_custom_device_spec_preserved(self):
        from repro.device.ue import DeviceSpec

        spec = DeviceSpec(
            cycles_per_second=2.0e9,
            frequency_steps=(0.5, 1.0),
            battery_capacity_j=1234.0,
        )
        env = FleetEnvironment.build(n_devices=2, seed=0, device=spec)
        for index, device in enumerate(env.devices):
            assert device.ue.spec.name == f"ue{index}"
            assert device.ue.spec.cycles_per_second == 2.0e9
            assert device.ue.spec.frequency_steps == (0.5, 1.0)
            assert device.ue.spec.battery_capacity_j == 1234.0

    def test_storage_shared(self):
        env = FleetEnvironment.build(n_devices=2, seed=0, with_storage=True)
        assert env.devices[0].storage is env.devices[1].storage


class TestFleetController:
    def test_all_jobs_complete(self):
        env, fleet = make_fleet(n=4)
        report = fleet.run(staggered_jobs(fleet, 4))
        assert report.jobs_completed == 8
        assert report.failures == 0
        assert report.deadline_miss_rate == 0.0
        assert set(report.per_device) == {0, 1, 2, 3}

    def test_shared_demand_model(self):
        _env, fleet = make_fleet(n=3)
        models = {id(c.demand) for c in fleet.controllers}
        assert len(models) == 1

    def test_shared_functions_share_warm_pools(self):
        """Device B's invocation right after device A's lands warm."""
        env = FleetEnvironment.build(
            n_devices=2, seed=2,
            platform_config=PlatformConfig(keep_alive_s=600.0),
        )
        fleet = FleetController(env, photo_backup_app())
        fleet.profile_offline()
        fleet.plan(input_mb=3.0)
        jobs = {
            0: [Job(fleet.app, input_mb=3.0, released_at=0.0, deadline=3600.0)],
            1: [Job(fleet.app, input_mb=3.0, released_at=120.0, deadline=3720.0)],
        }
        fleet.run(jobs)
        # The second device's invocations all reuse the first's pools.
        per_function = {}
        for record in env.platform.invocations:
            per_function.setdefault(record.request.function, []).append(record)
        for records in per_function.values():
            later = [r for r in records if r.submitted_at > 60.0]
            assert all(not r.cold_start for r in later)

    def test_unknown_device_rejected(self):
        _env, fleet = make_fleet(n=2)
        with pytest.raises(IndexError):
            fleet.run({5: [Job(fleet.app)]})

    def test_per_device_energy_separate(self):
        env, fleet = make_fleet(n=2)
        report = fleet.run(staggered_jobs(fleet, 2))
        for device_index, device_report in report.per_device.items():
            assert device_report.total_ue_energy_j > 0
        # Battery drain happened on each device independently.
        assert env.devices[0].ue.battery_level_j < env.devices[0].ue.spec.battery_capacity_j
        assert env.devices[1].ue.battery_level_j < env.devices[1].ue.spec.battery_capacity_j

    def test_scheduler_factory_applied(self):
        _env, fleet = make_fleet(
            n=2, scheduler_factory=lambda: DeadlineBatcher(window_s=100.0)
        )
        schedulers = [c.scheduler for c in fleet.controllers]
        assert all(isinstance(s, DeadlineBatcher) for s in schedulers)
        assert schedulers[0] is not schedulers[1]

    def test_empty_report_stats(self):
        # The sharded path makes zero-job shards reachable, so empty
        # aggregates must be 0.0, not NaN (which canonical JSON rejects).
        from repro.fleet import FleetReport

        report = FleetReport()
        assert report.jobs_completed == 0
        assert report.deadline_miss_rate == 0.0
        assert report.mean_response_s == 0.0

    def test_all_failed_report_stats(self):
        from repro.core.controller import ControllerReport, JobFailure
        from repro.fleet import FleetReport

        failed = ControllerReport(
            failures=[JobFailure(Job(photo_backup_app()), 1.0, RuntimeError())]
        )
        report = FleetReport(per_device={0: failed})
        assert report.jobs_completed == 0
        assert report.mean_response_s == 0.0
        assert report.deadline_miss_rate == 1.0


class TestFleetReportMerge:
    """Merge arithmetic: merging then aggregating must equal aggregating
    over the concatenated job set — the sharded runner's contract."""

    @staticmethod
    def device_report(responses, misses=0, failures=0, energy=1.0, cost=0.1):
        from repro.apps.jobs import JobResult
        from repro.core.controller import ControllerReport, JobFailure

        app = photo_backup_app()
        results = []
        for k, response in enumerate(responses):
            released = 10.0 * k
            deadline = released + (0.0 if k < misses else 2 * response)
            results.append(
                JobResult(
                    job=Job(app, released_at=released, deadline=deadline),
                    started_at=released,
                    finished_at=released + response,
                    ue_energy_j=energy,
                    cloud_cost_usd=cost,
                )
            )
        report = ControllerReport(results=results)
        for _ in range(failures):
            report.failures.append(
                JobFailure(Job(app), 1.0, RuntimeError("boom"))
            )
        return report

    def make_reports(self):
        from repro.fleet import FleetReport

        a = FleetReport(per_device={
            0: self.device_report([3.0, 5.0], misses=1),
            1: self.device_report([7.0], failures=1),
        })
        b = FleetReport(per_device={2: self.device_report([], failures=2)})
        c = FleetReport(per_device={
            3: self.device_report([11.0, 13.0, 17.0], energy=2.5, cost=0.4),
        })
        return a, b, c

    def test_merge_equals_concatenation(self):
        from repro.fleet import FleetReport

        a, b, c = self.make_reports()
        merged = FleetReport.merge([a, b, c])
        assert set(merged.per_device) == {0, 1, 2, 3}

        all_results = [
            r
            for part in (a, b, c)
            for report in part.per_device.values()
            for r in report.results
        ]
        all_failures = sum(part.failures for part in (a, b, c))
        assert merged.jobs_completed == len(all_results)
        assert merged.failures == all_failures
        assert merged.mean_response_s == pytest.approx(
            sum(r.response_time for r in all_results) / len(all_results)
        )
        missed = sum(1 for r in all_results if not r.met_deadline)
        assert merged.deadline_miss_rate == pytest.approx(
            (missed + all_failures) / (len(all_results) + all_failures)
        )
        assert merged.total_ue_energy_j == pytest.approx(
            sum(r.ue_energy_j for r in all_results)
        )
        assert merged.total_cloud_cost_usd == pytest.approx(
            sum(r.cloud_cost_usd for r in all_results)
        )

    def test_merge_associative_with_empty_identity(self):
        from repro.fleet import FleetReport

        a, b, c = self.make_reports()
        left = FleetReport.merge([FleetReport.merge([a, b]), c])
        right = FleetReport.merge([a, FleetReport.merge([b, c])])
        with_identity = FleetReport.merge([FleetReport(), a, b, c])
        assert left.per_device == right.per_device == with_identity.per_device
        assert FleetReport.merge([]).per_device == {}

    def test_merge_rejects_duplicate_device(self):
        from repro.fleet import FleetReport

        a, _b, _c = self.make_reports()
        with pytest.raises(ValueError, match="more than one report"):
            FleetReport.merge([a, a])


class TestFleetEconomics:
    def test_density_reduces_cold_fraction(self):
        """More devices on the same functions => warmer pools."""
        def cold_fraction(n_devices):
            env = FleetEnvironment.build(
                n_devices=n_devices, seed=3,
                platform_config=PlatformConfig(keep_alive_s=150.0),
            )
            fleet = FleetController(env, nightly_analytics_app())
            fleet.profile_offline()
            fleet.plan(input_mb=3.0)
            # One job per device, spread over a fixed 2-hour window: more
            # devices = shorter gaps between invocations.
            window = 7200.0
            jobs = {
                i: [Job(fleet.app, input_mb=3.0,
                        released_at=window * i / n_devices,
                        deadline=window * i / n_devices + 3600.0)]
                for i in range(n_devices)
            }
            fleet.run(jobs)
            return env.platform.cold_start_fraction()

        sparse = cold_fraction(6)
        dense = cold_fraction(72)
        assert dense < sparse


class _CountingMinCut(MinCutPartitioner):
    """Min-cut that counts its calls (stateless, like its parent)."""

    def __init__(self):
        self.calls = 0

    def partition(self, ctx):
        self.calls += 1
        return super().partition(ctx)


def _planning_world(app_factory, n, seed, connectivity):
    """A fresh fleet environment with a tracer and a deploy log."""
    env = FleetEnvironment.build(n_devices=n, seed=seed, connectivity=connectivity)
    tracer = attach_tracer(env)
    deploys = []
    platform_deploy = env.platform.deploy

    def logged_deploy(spec):
        deploys.append(spec)
        platform_deploy(spec)

    env.platform.deploy = logged_deploy
    return env, app_factory(), tracer, deploys


def _planning_state(env, controllers, tracer, deploys):
    """Everything a plan leaves behind, per device and fleet-wide."""
    return {
        "devices": [
            (
                c.partition,
                c.allocation,
                c._last_rates,
                c.planned_input_mb,
            )
            for c in controllers
        ],
        "deploys": deploys,
        "deployed": [
            env.platform.spec(name)
            for name in env.platform.deployed_functions()
        ],
        "spans": [
            (s.span_id, s.parent_id, s.name, s.category, s.start, s.end,
             s.attributes)
            for s in tracer.spans
        ],
        "plans_computed": env.sim.meter.plans_computed,
    }


def _plan_all(controllers, input_mb, overrides):
    for index, controller in enumerate(controllers):
        if index in overrides:
            controller.plan_rate_overrides = dict(overrides[index])
        controller.plan(input_mb)


_PRESETS = ["3g", "4g", "5g", "wifi"]


class TestPlanMemo:
    """Fleet plan reuse: a memo hit leaves exactly what planning leaves."""

    @given(
        app_factory=st.sampled_from([photo_backup_app, nightly_analytics_app]),
        n=st.integers(1, 6),
        seed=st.integers(0, 3),
        connectivity=st.one_of(
            st.sampled_from(_PRESETS),
            st.lists(st.sampled_from(_PRESETS), min_size=2, max_size=3),
        ),
        latency_slo_s=st.sampled_from([math.inf, 600.0, 120.0]),
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 3.0, 10.0]),
                st.sampled_from([None, 0.2, 4.0]),
                st.dictionaries(
                    st.integers(0, 5),
                    st.dictionaries(
                        st.sampled_from(["uplink", "downlink"]),
                        st.sampled_from([2.5e5, 1.25e6, 5e6]),
                        min_size=1,
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_fleet_plans_equal_independent_plans(
        self, app_factory, n, seed, connectivity, latency_slo_s, steps
    ):
        env, app, tracer, deploys = _planning_world(
            app_factory, n, seed, connectivity
        )
        fleet = FleetController(env, app, latency_slo_s=latency_slo_s)
        fleet.profile_offline()

        ref_env, ref_app, ref_tracer, ref_deploys = _planning_world(
            app_factory, n, seed, connectivity
        )
        # Independent controllers: own planners, no memo; the demand
        # model is shared and trained once, as a fleet does.
        demand = DemandModel(ref_app, RegressionEstimator)
        reference = [
            OffloadController(
                env=device_env,
                app=ref_app,
                demand_model=demand,
                latency_slo_s=latency_slo_s,
            )
            for device_env in ref_env.devices
        ]
        reference[0].profile_offline()

        for input_mb, surprise, overrides in steps:
            if surprise is not None:
                # Shift the shared demand estimates between plans.
                for model in (fleet.demand, demand):
                    for name in app.component_names:
                        model.observe(DemandObservation(
                            name, input_mb,
                            model.predict(name, input_mb) * surprise,
                        ))
            outcomes = []
            for controllers in (fleet.controllers, reference):
                try:
                    _plan_all(controllers, input_mb, overrides)
                    outcomes.append(None)
                except ValueError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is not None:
                return
        assert _planning_state(
            env, fleet.controllers, tracer, deploys
        ) == _planning_state(
            ref_env, reference, ref_tracer, ref_deploys
        )

    def test_key_covers_every_context_field(self):
        """Changing any one planning input changes the plan key."""
        from dataclasses import fields, replace

        from repro.core.partitioning import ObjectiveWeights
        from repro.device.energy import EnergyModel
        from repro.serverless.billing import BillingModel

        _env, fleet = make_fleet(n=1)
        controller = fleet.controllers[0]
        context = controller.build_context(3.0)
        other_app = photo_backup_app()
        changed = {
            "app": other_app,
            "input_mb": 4.0,
            "work": {name: 2.0 * w for name, w in context.work.items()},
            "ue_cycles_per_second": 2.0e9,
            "energy": EnergyModel(compute_w=9.0),
            "billing": BillingModel(price_per_request=1e-6),
            "memory_plan": {**context.memory_plan, "extra": 128.0},
            "default_memory_mb": 1024.0,
            "uplink_bps": context.uplink_bps * 2,
            "uplink_latency_s": 0.5,
            "downlink_bps": context.downlink_bps * 2,
            "downlink_latency_s": 0.5,
            "include_idle_energy": not context.include_idle_energy,
            "egress_price_per_gb": 0.09,
            "weights": ObjectiveWeights.interactive(),
        }
        assert set(changed) == {f.name for f in fields(context)}
        key = controller._plan_key(context)
        for name, value in changed.items():
            assert controller._plan_key(replace(context, **{name: value})) != key, name
        controller.latency_slo_s = 60.0
        assert controller._plan_key(context) != key

    def test_uniform_zone_partitions_twice(self):
        """Sixteen same-preset devices: one miss (two min-cuts), fifteen
        hits; without the memo this would be 32 calls."""
        env = FleetEnvironment.build(n_devices=16, seed=0, connectivity="4g")
        partitioner = _CountingMinCut()
        fleet = FleetController(env, photo_backup_app(), partitioner=partitioner)
        fleet.profile_offline()
        fleet.plan(input_mb=3.0)
        assert partitioner.calls == 2
        assert env.sim.meter.plans_computed == 16
        # A mixed zone plans once per distinct preset.
        env = FleetEnvironment.build(
            n_devices=16, seed=0, connectivity=["4g", "3g"]
        )
        partitioner = _CountingMinCut()
        fleet = FleetController(env, photo_backup_app(), partitioner=partitioner)
        fleet.profile_offline()
        fleet.plan(input_mb=3.0)
        assert partitioner.calls == 4

    def test_controllers_share_planners_and_allocations_are_copies(self):
        _env, fleet = make_fleet(n=3)
        first, second, third = fleet.controllers
        assert first.partitioner is second.partitioner is fleet.partitioner
        assert first.allocator is third.allocator is fleet.allocator
        assert first.allocation == second.allocation
        assert first.allocation is not second.allocation
        first.allocation.clear()
        assert second.allocation and third.allocation

    def test_a_standalone_controller_plans_every_call(self):
        from repro import Environment

        partitioner = _CountingMinCut()
        controller = OffloadController(
            Environment.build(seed=0), photo_backup_app(),
            partitioner=partitioner,
        )
        controller.plan(3.0)
        controller.plan(3.0)
        assert partitioner.calls == 4

    def test_annealing_is_never_memoised(self):
        """An RNG-drawing partitioner plans every device: same partitions
        and the same stream position as independent controllers."""

        def run(memo):
            env = FleetEnvironment.build(n_devices=4, seed=2, connectivity="4g")
            stream = RngStream(7)
            annealer = SimulatedAnnealingPartitioner(stream, iterations=50)
            fleet = FleetController(env, photo_backup_app(), partitioner=annealer)
            if not memo:
                for controller in fleet.controllers:
                    controller._plan_memo = None
            fleet.profile_offline()
            fleet.plan(input_mb=3.0)
            fleet.plan(input_mb=3.0)
            partitions = [c.partition for c in fleet.controllers]
            return partitions, stream.integer(0, 2**30)

        assert run(memo=True) == run(memo=False)
