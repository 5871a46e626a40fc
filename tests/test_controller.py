"""Tests for the end-to-end offloading controller."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DeadlineBatcher,
    EagerScheduler,
    Environment,
    Job,
    ObjectiveWeights,
    OffloadController,
    photo_backup_app,
)
from repro.core.allocation import AllocationDecision
from repro.core.partitioning import FixedPartitioner, Partition, evaluate_partition
from repro.device.ue import DeviceSpec
from repro.traces.bandwidth import ConstantBandwidth, StepBandwidth


def make_controller(seed=0, app=None, **kwargs):
    env = Environment.build(seed=seed, connectivity="4g")
    app = app or photo_backup_app()
    return OffloadController(env, app, **kwargs)


class TestPlanning:
    def test_plan_deploys_cloud_functions(self):
        controller = make_controller()
        controller.profile_offline()
        partition = controller.plan(input_mb=4.0)
        platform = controller.env.platform
        for name in partition.cloud:
            assert platform.is_deployed(f"photo_backup.{name}")
        assert set(controller.allocation) == set(partition.cloud)

    def test_pinned_never_deployed(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        assert not controller.env.platform.is_deployed("photo_backup.capture")

    def test_replanning_is_idempotent_without_change(self):
        controller = make_controller()
        controller.profile_offline()
        first = controller.plan(input_mb=4.0)
        # Touch the warm pool, replan with the same inputs: pools survive
        # because nothing redeploys.
        second = controller.plan(input_mb=4.0)
        assert first == second

    def test_estimate_completion_positive_and_conservative(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0)
        estimate = controller.estimate_completion(job)
        assert estimate > 0

    def test_submitting_foreign_job_rejected(self):
        from repro.apps import ml_training_app

        controller = make_controller()
        with pytest.raises(ValueError):
            controller.submit(Job(ml_training_app()))

    def test_replan_every_validation(self):
        with pytest.raises(ValueError):
            make_controller(replan_every=0)


def _forced_two_pass_plan(controller, input_mb):
    """``plan()`` with the second ``allocate_app`` always run; returns the
    first-pass partition."""
    first = controller.partitioner.partition(controller.build_context(input_mb))
    controller.allocation = controller.allocator.allocate_app(
        controller.app, first, controller.demand, input_mb, controller.latency_slo_s
    )
    controller.partition = controller.partitioner.partition(
        controller.build_context(input_mb)
    )
    controller.allocation = controller.allocator.allocate_app(
        controller.app,
        controller.partition,
        controller.demand,
        input_mb,
        controller.latency_slo_s,
    )
    controller._deploy()
    return first


def _flip_app():
    """``b`` needs 10 GB: cheap to offload at the 1769 MB first-pass
    default, too dear once the allocator sizes it."""
    from repro.apps import AppGraph, Component, DataFlow

    return AppGraph(
        "flip",
        [
            Component("a", work_gcycles=0.5, offloadable=False),
            Component("b", work_gcycles=8.0, min_memory_mb=10240),
        ],
        [DataFlow("a", "b", bytes_fixed=2e5)],
    )


class TestPlanAllocationSkip:
    """``plan()`` skips the second allocation when the refined partition
    equals the first; the outcome must equal always allocating twice."""

    @pytest.mark.parametrize(
        "app_factory, weights, flips",
        [
            (photo_backup_app, ObjectiveWeights.non_time_critical(), False),
            (photo_backup_app, ObjectiveWeights.interactive(), False),
            (_flip_app, ObjectiveWeights(0.0, 1.0, 30000.0), True),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_forced_second_allocation(self, app_factory, weights, flips, seed):
        planned = make_controller(seed=seed, app=app_factory(), weights=weights)
        forced = make_controller(seed=seed, app=app_factory(), weights=weights)
        for controller in (planned, forced):
            controller.profile_offline()
        partition = planned.plan(input_mb=2.0)
        first = _forced_two_pass_plan(forced, input_mb=2.0)
        assert (first != forced.partition) is flips
        assert partition == planned.partition == forced.partition
        assert planned.allocation == forced.allocation

        def deployed(controller):
            platform = controller.env.platform
            return {
                name: platform.spec(name) for name in platform.deployed_functions()
            }

        assert deployed(planned) == deployed(forced)


class TestEstimateCompletion:
    """``estimate_completion`` computes only the makespan; it must equal
    the full ``evaluate_partition`` of ``build_context`` (UE speed scaled
    by the DVFS fraction) plus the cold-start allowance, bit for bit."""

    @staticmethod
    def _reference(controller, job, fraction):
        context = controller.build_context(job.input_mb)
        context = replace(
            context, ue_cycles_per_second=context.ue_cycles_per_second * fraction
        )
        partition = controller.partition
        makespan = evaluate_partition(context, partition).makespan_s
        platform = controller.env.platform
        functions = [controller._function_name(name) for name in partition.cloud]
        cold = sum(
            platform.config.cold_start_duration(platform.spec(function))
            for function in functions
            if platform.is_deployed(function)
        )
        return makespan + cold

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        cloud_mask=st.lists(st.booleans(), min_size=8, max_size=8),
        keep_mask=st.lists(st.booleans(), min_size=8, max_size=8),
        input_mb=st.floats(0.05, 64.0),
        fraction=st.one_of(st.just(1.0), st.floats(0.1, 1.0)),
        uplink_bps=st.floats(1e4, 1e8),
        downlink_bps=st.floats(1e4, 1e8),
        outage=st.sampled_from(["none", "held", "never-seen"]),
    )
    def test_matches_full_evaluation(
        self, seed, cloud_mask, keep_mask, input_mb, fraction,
        uplink_bps, downlink_bps, outage,
    ):
        controller = make_controller(seed=seed)
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        env = controller.env
        app = controller.app
        offloadable = app.offloadable_names()
        cloud = frozenset(
            name for name, on in zip(offloadable, cloud_mask) if on
        )
        controller.partition = Partition(app.name, cloud)
        # Some cloud components keep a planned size, the rest fall back
        # to the context's default memory.
        controller.allocation = {
            name: AllocationDecision(name, 512.0 + 256.0 * i, 1.0, 1e-6)
            for i, (name, keep) in enumerate(zip(offloadable, keep_mask))
            if keep
        }
        env.uplink.links[0].trace = ConstantBandwidth(uplink_bps)
        env.downlink.links[0].trace = ConstantBandwidth(downlink_bps)
        job = Job(app, input_mb=input_mb)
        if outage == "held":
            controller.estimate_completion(job)  # remembers the live rate
        elif outage == "never-seen":
            controller._last_rates.clear()  # planning saw the link up
        if outage != "none":
            env.uplink.links[0].trace = StepBandwidth([(0.0, 0.0)])

        calls = []
        usable_rate = controller._usable_rate

        def recording(path, key):
            rate = usable_rate(path, key)
            calls.append((key, rate))
            return rate

        controller._usable_rate = recording
        estimate = controller.estimate_completion(job, fraction)
        estimate_calls, calls[:] = list(calls), []
        expected = self._reference(controller, job, fraction)
        assert estimate.hex() == expected.hex()
        # The same rate lookups, in the same order, as build_context.
        assert estimate_calls == calls
        if outage == "held":
            assert calls[0] == ("uplink", controller._last_rates["uplink"])
        elif outage == "never-seen":
            assert calls[0] == ("uplink", 125.0)

    def test_input_checks_kept(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0)
        with pytest.raises(ValueError, match="UE speed must be > 0"):
            controller.estimate_completion(job, 0.0)
        controller.partition = Partition(
            controller.app.name, frozenset({"capture"})
        )
        with pytest.raises(ValueError, match="non-offloadable"):
            controller.estimate_completion(job)


class TestExecution:
    def test_single_job_completes(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0, deadline=3600.0)
        report = controller.run_workload([job])
        assert report.jobs_completed == 1
        assert not report.failures
        result = report.results[0]
        assert result.finished_at > result.started_at
        assert set(result.component_finish_times) == set(
            controller.app.component_names
        )

    def test_component_order_respects_dag(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        report = controller.run_workload([Job(controller.app, input_mb=2.0)])
        finish = report.results[0].component_finish_times
        for flow in controller.app.flows:
            assert finish[flow.src] <= finish[flow.dst]

    def test_energy_and_cost_accounted(self):
        controller = make_controller()
        controller.profile_offline()
        partition = controller.plan(input_mb=4.0)
        report = controller.run_workload([Job(controller.app, input_mb=4.0)])
        result = report.results[0]
        assert result.ue_energy_j > 0
        if partition.cloud:
            assert result.cloud_cost_usd > 0
            assert result.cloud_cost_usd == pytest.approx(
                controller.env.platform.total_cost
            )

    def test_local_only_partition_runs_entirely_on_ue(self):
        app = photo_backup_app()
        controller = make_controller(
            app=app, partitioner=FixedPartitioner(Partition.local_only(app))
        )
        controller.plan(input_mb=2.0)
        report = controller.run_workload([Job(app, input_mb=2.0)])
        assert report.results[0].cloud_cost_usd == 0.0
        assert controller.env.platform.total_cost == 0.0

    def test_auto_plan_on_first_submit(self):
        controller = make_controller()
        report = controller.run_workload([Job(controller.app, input_mb=1.0)])
        assert report.jobs_completed == 1
        assert controller.partition is not None

    def test_multiple_jobs_all_complete(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        jobs = [
            Job(controller.app, input_mb=2.0, released_at=20.0 * i)
            for i in range(8)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 8
        finishes = [r.finished_at for r in report.results]
        assert finishes == sorted(finishes)


class TestScheduling:
    def test_batcher_defers_dispatch(self):
        eager = make_controller(seed=1, scheduler=EagerScheduler())
        eager.profile_offline()
        eager.plan(input_mb=2.0)
        eager_report = eager.run_workload(
            [Job(eager.app, input_mb=2.0, released_at=10.0, deadline=7200.0)]
        )

        batched = make_controller(
            seed=1, scheduler=DeadlineBatcher(window_s=600.0)
        )
        batched.profile_offline()
        batched.plan(input_mb=2.0)
        batched_report = batched.run_workload(
            [Job(batched.app, input_mb=2.0, released_at=10.0, deadline=7200.0)]
        )
        assert (
            batched_report.results[0].started_at
            > eager_report.results[0].started_at + 500.0
        )
        assert batched_report.deadline_miss_rate == 0.0

    def test_deadline_miss_recorded(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        impossible = Job(controller.app, input_mb=4.0, deadline=0.001)
        report = controller.run_workload([impossible])
        assert report.deadline_miss_rate == 1.0


class TestAdaptivity:
    def test_online_observations_accumulate(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        before = controller.demand.estimators["transcode"].observation_count
        controller.run_workload([Job(controller.app, input_mb=2.0)])
        after = controller.demand.estimators["transcode"].observation_count
        assert after == before + 1

    def test_adaptive_replans(self):
        controller = make_controller(adaptive=True, replan_every=2)
        controller.profile_offline()
        controller.plan(input_mb=2.0)
        jobs = [
            Job(controller.app, input_mb=2.0, released_at=10.0 * i)
            for i in range(5)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 5


class TestBatteryFailure:
    def test_depletion_recorded_as_failure(self):
        env = Environment.build(seed=0, device=DeviceSpec(battery_capacity_j=0.5))
        app = photo_backup_app()
        controller = OffloadController(
            env, app, partitioner=FixedPartitioner(Partition.local_only(app))
        )
        controller.plan(input_mb=10.0)
        report = controller.run_workload([Job(app, input_mb=10.0)])
        assert len(report.failures) == 1
        assert report.jobs_completed == 0
        assert report.deadline_miss_rate == 1.0


class TestAdmissionControl:
    def test_unmeetable_job_rejected_without_execution(self):
        from repro.core.controller import JobRejectedError

        env = Environment.build(seed=4)
        controller = make_controller(seed=4, admission_control=True)
        controller = OffloadController(
            env, photo_backup_app(), admission_control=True
        )
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        start_battery = env.ue.battery_level_j
        impossible = Job(controller.app, input_mb=4.0, deadline=0.5)
        report = controller.run_workload([impossible])
        assert report.rejections == 1
        assert report.jobs_completed == 0
        assert isinstance(report.failures[0].error, JobRejectedError)
        # Nothing ran: no energy drained, no invocations billed.
        assert env.ue.battery_level_j == start_battery
        assert env.platform.total_cost == 0.0

    def test_feasible_job_admitted(self):
        controller = make_controller(seed=5, admission_control=True)
        controller.profile_offline()
        controller.plan(input_mb=4.0)
        job = Job(controller.app, input_mb=4.0, deadline=3600.0)
        report = controller.run_workload([job])
        assert report.rejections == 0
        assert report.jobs_completed == 1

    def test_best_effort_jobs_never_rejected(self):
        controller = make_controller(seed=6, admission_control=True)
        report = controller.run_workload([Job(controller.app, input_mb=2.0)])
        assert report.rejections == 0
        assert report.jobs_completed == 1

    def test_off_by_default(self):
        controller = make_controller(seed=7)
        impossible = Job(controller.app, input_mb=4.0, deadline=0.5)
        report = controller.run_workload([impossible])
        assert report.rejections == 0  # ran and missed instead
        assert report.jobs_completed == 1
        assert report.deadline_miss_rate == 1.0


class TestFailureInjectionIntegration:
    def test_retries_absorb_transient_failures(self):
        from repro.serverless import PlatformConfig, RetryPolicy

        env = Environment.build(
            seed=3, platform_config=PlatformConfig(failure_probability=0.25)
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.5),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        jobs = [
            Job(controller.app, input_mb=3.0, released_at=30.0 * i,
                deadline=30.0 * i + 3600.0)
            for i in range(8)
        ]
        report = controller.run_workload(jobs)
        assert report.jobs_completed == 8
        assert not report.failures
        assert env.metrics.snapshot()["faas.failures"] > 0
        # Job costs include the wasted failed attempts, matching the
        # platform's own bill.
        assert report.total_cloud_cost_usd == pytest.approx(
            env.platform.total_cost
        )

    def test_exhausted_retries_fail_the_job(self):
        from repro.serverless import PlatformConfig, RetryPolicy

        env = Environment.build(
            seed=5, platform_config=PlatformConfig(failure_probability=0.97)
        )
        controller = OffloadController(
            env,
            photo_backup_app(),
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.1),
        )
        controller.profile_offline()
        controller.plan(input_mb=3.0)
        report = controller.run_workload(
            [Job(controller.app, input_mb=3.0, deadline=3600.0)]
        )
        assert len(report.failures) == 1
        assert report.deadline_miss_rate == 1.0


class TestReport:
    def test_percentiles(self):
        controller = make_controller()
        controller.profile_offline()
        controller.plan(input_mb=1.0)
        jobs = [
            Job(controller.app, input_mb=1.0, released_at=5.0 * i) for i in range(6)
        ]
        report = controller.run_workload(jobs)
        assert report.percentile_response_s(0) <= report.percentile_response_s(99)
        assert report.mean_response_s > 0

    def test_empty_report_stats(self):
        from repro.core.controller import ControllerReport

        report = ControllerReport()
        assert report.deadline_miss_rate == 0.0
        assert math.isnan(report.mean_response_s)
        assert math.isnan(report.percentile_response_s(50))
