"""RunSpec validation, its JSON boundary, and assemble()'s wiring."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultSchedule, FaultWindow
from repro.run import PLANES, SCHEDULERS, WEIGHTS, RunSpec, assemble


class TestValidation:
    @pytest.mark.parametrize("fields,message", [
        ({"jobs": 0}, "jobs must be an integer >= 1"),
        ({"input_mb": -1.0}, "input_mb must be a finite number >= 0"),
        ({"input_mb": float("nan")}, "input_mb"),
        ({"spacing_s": float("inf")}, "spacing_s"),
        ({"slack_s": 0.0}, "slack_s must be a finite number > 0"),
        ({"window_s": 0.0}, "window_s must be a finite number > 0"),
        ({"app": "nope"}, "unknown app 'nope'; choose from"),
        ({"scheduler": "psychic"}, "unknown scheduler"),
        ({"weights": "vibes"}, "unknown weights"),
        ({"plane": "radar"}, "unknown plane"),
        ({"jobs": "3"}, "jobs must be int"),
        ({"links": {"uplink_bandwidth": 0.0}}, "links.uplink_bandwidth"),
        ({"retry": {"max_attempts": 0}}, "retry: max_attempts"),
        ({"degradation": {"hedge_ms": 1.0}}, "unknown degradation keys"),
        ({"faults": [{"kind": "meteor", "start": 0.0, "end": 1.0}]},
         "faults[]"),
    ])
    def test_bad_fields_raise_value_error(self, fields, message):
        with pytest.raises(ValueError, match=message.replace("[", r"\[")):
            RunSpec(**fields)

    def test_choice_errors_list_the_choices(self):
        with pytest.raises(ValueError) as error:
            RunSpec(scheduler="psychic")
        for name in SCHEDULERS:
            assert name in str(error.value)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown run spec keys"):
            RunSpec.from_dict({"jobs": 2, "label": "x"})

    def test_sweep_keys_and_integral_numbers_normalise(self):
        spec = RunSpec.from_dict(
            {"input_mb": 1, "spacing_s": 30, "jobs": 2.0, "seed": 4}
        )
        assert spec.input_mb == 1.0 and isinstance(spec.input_mb, float)
        assert spec.jobs == 2 and isinstance(spec.jobs, int)

    def test_fault_schedule_is_stored_as_window_dicts(self):
        schedule = FaultSchedule(
            [FaultWindow(FaultKind.LINK_OUTAGE, 5.0, 9.0, target="uplink")]
        )
        spec = RunSpec(faults=schedule)
        assert spec.faults == ({
            "kind": "link_outage", "start": 5.0, "end": 9.0,
            "target": "uplink", "magnitude": 1.0,
        },)

    def test_remediate_plane_gets_a_degradation_policy(self):
        assert RunSpec(plane="remediate").degradation is not None
        assert RunSpec(plane="alerts").degradation is None


class TestAssemble:
    def test_planes_wire_as_far_as_they_reach(self):
        for plane, wired in [
            ("none", (False, False, False)),
            ("monitor", (True, False, False)),
            ("alerts", (True, True, False)),
            ("remediate", (True, True, True)),
        ]:
            run = assemble(RunSpec(jobs=1, plane=plane))
            got = (run.monitor is not None, run.engine is not None,
                   run.remediation is not None)
            assert got == wired, plane
            assert (run.tracer is not None) == (plane != "none")
            assert run.execute().jobs_completed == 1

    def test_jobs_follow_the_spec(self):
        run = assemble(RunSpec(jobs=3, spacing_s=10.0, slack_s=50.0,
                               first_job_id=40))
        assert [job.job_id for job in run.jobs] == [40, 41, 42]
        assert [job.released_at for job in run.jobs] == [0.0, 10.0, 20.0]
        assert [job.deadline for job in run.jobs] == [50.0, 60.0, 70.0]
        assert run.controller.partition is not None  # planned

    def test_workload_without_matching_jobs_raises(self, tmp_path):
        from repro.apps import Job, photo_backup_app
        from repro.traces import save_workload

        trace = tmp_path / "trace.json"
        save_workload(trace, [Job(photo_backup_app(), input_mb=1.0)])
        with pytest.raises(ValueError, match="no jobs for app"):
            assemble(RunSpec(app="ml_training", workload=str(trace)))


def _finite(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


valid_specs = st.builds(
    RunSpec,
    app=st.sampled_from(["photo_backup", "ml_training"]),
    seed=st.integers(0, 2**32),
    input_mb=_finite(0.0, 1e3),
    jobs=st.integers(1, 50),
    spacing_s=_finite(0.0, 1e4),
    slack_s=_finite(1e-3, 1e5),
    first_job_id=st.none() | st.integers(0, 10**6),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    window_s=_finite(1e-3, 1e4),
    weights=st.sampled_from(sorted(WEIGHTS)),
    links=st.none() | st.fixed_dictionaries(
        {"uplink_bandwidth": _finite(1.0, 1e9)},
        optional={"access_latency_s": _finite(0.0, 1.0)},
    ),
    retry=st.none() | st.fixed_dictionaries(
        {"max_attempts": st.integers(1, 5)},
        optional={"base_delay_s": _finite(0.0, 10.0)},
    ),
    faults=st.lists(
        st.builds(
            lambda start, length: {"kind": "link_outage", "start": start,
                                   "end": start + length,
                                   "target": "uplink"},
            _finite(0.0, 1e3), _finite(1.0, 1e3),
        ),
        max_size=3,
    ),
    trace=st.booleans(),
    plane=st.sampled_from(PLANES),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
field_names = st.sampled_from(sorted(RunSpec().to_dict()))


class TestSpecBoundaryProperties:
    @given(spec=valid_specs)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_is_identity(self, spec):
        document = json.loads(json.dumps(spec.to_dict()))
        assert RunSpec.from_dict(document) == spec

    @given(document=st.dictionaries(field_names | st.text(), json_values,
                                    max_size=4) | json_values)
    @settings(max_examples=150, deadline=None)
    def test_any_json_is_a_spec_or_a_value_error(self, document):
        try:
            spec = RunSpec.from_dict(document)
        except ValueError:
            return
        assert RunSpec.from_dict(spec.to_dict()) == spec
