"""Golden-trace regression tests.

Each test replays the pinned end-to-end scenario from
:mod:`repro.testing.golden` and compares the rendered trace — every job
outcome, failure, and metric, with ``repr`` floats — against the fixture
committed under ``tests/golden/``.  A mismatch means simulated behaviour
changed; if the change is intentional, regenerate with::

    PYTHONPATH=src python tools/regen_golden.py

and commit the fixture diff so review sees exactly which numbers moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.testing.golden import (
    GOLDEN_SEED,
    TRACE_SCHEMA,
    run_golden_scenario,
    run_monitored_scenario,
    trace_digest,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN_HINT = (
    "Simulated behaviour diverged from the committed golden trace. If this "
    "change is intentional, run `PYTHONPATH=src python tools/regen_golden.py` "
    "and commit the fixture diff."
)

VARIANTS = [
    ("pipeline_baseline.json", False),
    ("pipeline_faults.json", True),
]

TRACED_FIXTURE = "pipeline_traced.json"
MONITORED_FIXTURE = "pipeline_monitored.json"


def _load(filename: str) -> dict:
    path = GOLDEN_DIR / filename
    assert path.exists(), f"missing golden fixture {path}"
    return json.loads(path.read_text())


@pytest.mark.parametrize("filename,with_faults", VARIANTS)
def test_trace_matches_committed_fixture(filename, with_faults):
    fixture = _load(filename)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["seed"] == GOLDEN_SEED
    assert fixture["with_faults"] is with_faults

    lines = run_golden_scenario(with_faults)
    # Compare lines first: on drift, the assertion diff shows *which*
    # trace entries moved, not just that two digests differ.
    assert lines == fixture["lines"], REGEN_HINT
    assert trace_digest(lines) == fixture["digest"], REGEN_HINT


@pytest.mark.parametrize("with_faults", [False, True])
def test_scenario_is_deterministic_in_process(with_faults):
    """Two fresh runs in one interpreter produce byte-identical traces."""
    first = run_golden_scenario(with_faults)
    second = run_golden_scenario(with_faults)
    assert first == second
    assert trace_digest(first) == trace_digest(second)


def test_fixture_digest_is_self_consistent():
    """The stored digest matches the stored lines (fixtures not hand-edited)."""
    for filename, _ in VARIANTS:
        fixture = _load(filename)
        assert trace_digest(fixture["lines"]) == fixture["digest"], filename


def test_traced_variant_matches_committed_fixture():
    """The telemetry-enabled run — spans, attribution, labeled metrics,
    and the Chrome-export digest — replays bit-for-bit, so trace-schema
    drift is caught exactly like behavioural drift."""
    fixture = _load(TRACED_FIXTURE)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["traced"] is True

    lines = run_golden_scenario(fixture["with_faults"], traced=True)
    assert lines == fixture["lines"], REGEN_HINT
    assert trace_digest(lines) == fixture["digest"], REGEN_HINT


@pytest.mark.parametrize("with_faults", [False, True])
def test_monitored_variant_matches_committed_fixture(with_faults):
    """The monitored scenario's alert log, fired SLOs and health replay
    bit-for-bit against the fixture, faults off and on."""
    fixture = _load(MONITORED_FIXTURE)
    assert fixture["schema"] == TRACE_SCHEMA
    assert fixture["seed"] == GOLDEN_SEED
    pinned = fixture["runs"]["faults" if with_faults else "baseline"]
    result = run_monitored_scenario(with_faults)
    assert {key: result[key] for key in pinned} == pinned, REGEN_HINT


def test_tracing_does_not_perturb_the_simulation():
    """The standard lines of a traced run are byte-identical to the
    untraced variant: instrumentation adds no events and no RNG draws."""
    untraced = run_golden_scenario(True)
    traced = run_golden_scenario(True, traced=True)
    assert traced[: len(untraced)] == untraced
    extra = traced[len(untraced):]
    assert extra, "traced run should append telemetry lines"
    assert all(
        line.split(" ", 1)[0] in {"trace", "span", "attribution", "labeled"}
        for line in extra
    )


def test_traced_fixture_covers_fault_annotations():
    """The traced fixture actually contains fault-window spans, retry
    instants, and per-phase attribution — not just job spans."""
    joined = "\n".join(_load(TRACED_FIXTURE)["lines"])
    for marker in (
        "cat=fault",
        "cat=cold_start",
        "cat=upload",
        "cat=execute",
        "attribution job=",
        "labeled fault_windows_total",
        "labeled jobs_total",
    ):
        assert marker in joined, f"expected telemetry marker {marker!r}"


def test_fault_variant_actually_injects_faults():
    """The faulted trace differs from the baseline and shows fault activity."""
    baseline = _load("pipeline_baseline.json")
    faulted = _load("pipeline_faults.json")
    assert baseline["digest"] != faulted["digest"]
    joined = "\n".join(faulted["lines"])
    for marker in (
        "faults.injected.zone_outage",
        "faas.retry.outage_waits",
        "faas.hedges",
        "faas.reclamations",
        "faas.straggler_slowdowns",
        "photo_backup.fallbacks",
        "ue.brownouts",
    ):
        assert marker in joined, f"expected fault marker {marker!r} in trace"
    assert not any(line.startswith("metric faults") for line in baseline["lines"])
