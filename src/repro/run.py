"""One way to assemble a single-environment run.

:class:`RunSpec` holds everything that varies between runs as validated,
JSON-round-trippable fields; :func:`assemble` wires it in the canonical
order (see ``docs/modeling.md``, "Assembling a run")::

    env → tracer → faults → controller (profile_offline + plan) → plane → jobs
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.apps.catalog import CATALOG
from repro.apps.jobs import Job
from repro.core.controller import Environment, OffloadController
from repro.core.partitioning import ObjectiveWeights
from repro.core.scheduler import (
    CostWindowScheduler, DeadlineBatcher, EagerScheduler, EdfScheduler,
)
from repro.faults import DegradationPolicy, FaultSchedule, FaultWindow, inject_faults
from repro.network.profiles import CONNECTIVITY_PROFILES
from repro.serverless.retry import RetryPolicy

#: Scheduler factories by name, each taking the spec's ``window_s``.
SCHEDULERS = {
    "eager": lambda window_s: EagerScheduler(),
    "edf": lambda window_s: EdfScheduler(),
    "batcher": lambda window_s: DeadlineBatcher(window_s=window_s),
    # A generic diurnal congestion price anchored at t=0.
    "costwindow": lambda window_s: CostWindowScheduler(
        lambda t: 1.0 + 0.8 * math.sin(2 * math.pi * t / 86_400.0),
        resolution_s=max(window_s, 60.0),
    ),
}
#: Objective-weight presets by name.
WEIGHTS = {
    "balanced": ObjectiveWeights,
    "interactive": ObjectiveWeights.interactive,
    "non-time-critical": ObjectiveWeights.non_time_critical,
}
#: Observability planes, each adding to the one before it: a monitor,
#: then an SLO engine raising alerts, then remediation acting on them.
PLANES = ("none", "monitor", "alerts", "remediate")
#: The policy remediation acts on when a spec names none: hedging starts
#: disabled and is escalated by the engine on availability burn.
REMEDIATION_DEGRADATION = {
    "outage_aware_backoff": True, "hedge_after_s": None, "fallback_local": True,
}

# Field kinds: a type, ``(kind, None)`` if optional, a dict for an object.
_FLOATS = lambda *keys: dict.fromkeys(keys, float)
_KINDS = {
    "app": str, "seed": int, "connectivity": str, "with_storage": bool,
    "input_mb": float, "jobs": int, "spacing_s": float, "slack_s": float,
    "first_job_id": (int, None), "workload": (str, None), "scheduler": str,
    "window_s": float, "weights": str, "trace": bool, "plane": str,
    "links": (_FLOATS("uplink_bandwidth", "downlink_bandwidth",
                      "access_latency_s", "wan_latency_s"), None),
    "retry": ({"max_attempts": int,
               **_FLOATS("base_delay_s", "multiplier", "jitter")}, None),
    "degradation": ({
        "outage_aware_backoff": bool, "fallback_local": bool,
        "hedge_after_s": (float, None),
        **_FLOATS("fallback_after_s", "fallback_slack_fraction"),
    }, None),
}
_FAULT = {"kind": str, "target": (str, None), **_FLOATS("start", "end", "magnitude")}


def _known(name: str, keys, allowed) -> None:
    unknown = sorted(str(key) for key in keys if key not in allowed)
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; choose from {sorted(allowed)}")


def _check(name: str, value: Any, kind: Any) -> Any:
    """``value`` checked against ``kind``; numbers of float kinds come
    back as floats (JSON ``1`` and ``1.0`` are the same input)."""
    if isinstance(kind, tuple):
        return None if value is None else _check(name, value, kind[0])
    if isinstance(kind, dict):
        if not isinstance(value, Mapping):
            raise ValueError(f"{name} must be an object, got {value!r}")
        _known(name, value, kind)
        out = {key: _check(f"{name}.{key}", v, kind[key]) for key, v in value.items()}
        for key, v in out.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name}.{key} must be finite, got {v!r}")
        return out
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number and (isinstance(value, float) or abs(value) <= 2**1023):
        return float(value)  # may be inf or nan: the range checks name the field
    if kind in (str, bool) and isinstance(value, kind):
        return value
    raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def _at_least(name: str, value: float, low: float, strict: bool = False) -> None:
    integral = isinstance(value, int)
    if not ((integral or math.isfinite(value)) and (value > low if strict else value >= low)):
        what = "an integer" if integral else "a finite number"
        raise ValueError(f"{name} must be {what} {'>' if strict else '>='} {low}, got {value!r}")


def _choose(name: str, value: str, choices) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from {sorted(choices)}")


def _build(name: str, factory, kwargs: Dict[str, Any]) -> Any:
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as error:
        raise ValueError(f"{name}: {error}") from None


@dataclass(frozen=True)
class RunSpec:
    """Everything that varies between single-environment runs.

    ``links`` replaces the connectivity preset with ``build_custom``
    settings; ``retry``, ``degradation`` and each of ``faults`` are
    keyword dicts of their policy/window classes (a ``FaultSchedule`` is
    stored as its windows); ``workload`` replays a saved job trace.  Bad
    input raises ``ValueError`` naming the field and its allowed values.
    """

    app: str = "photo_backup"
    seed: int = 0
    connectivity: str = "4g"
    links: Optional[Dict[str, float]] = None
    with_storage: bool = False
    input_mb: float = 4.0
    jobs: int = 5
    spacing_s: float = 60.0
    slack_s: float = 3600.0
    first_job_id: Optional[int] = None
    workload: Optional[str] = None
    scheduler: str = "eager"
    window_s: float = 300.0
    weights: str = "non-time-critical"
    retry: Optional[Dict[str, Any]] = None
    degradation: Optional[Dict[str, Any]] = None
    faults: Tuple[Dict[str, Any], ...] = ()
    trace: bool = False
    plane: str = "none"

    def __post_init__(self) -> None:
        def set_(name: str, value: Any) -> None:  # normalise a frozen field
            object.__setattr__(self, name, value)

        for name, kind in _KINDS.items():
            set_(name, _check(name, getattr(self, name), kind))
        for name, table in (("app", CATALOG), ("connectivity", CONNECTIVITY_PROFILES),
                            ("scheduler", SCHEDULERS), ("weights", WEIGHTS),
                            ("plane", PLANES)):
            _choose(name, getattr(self, name), table)
        _at_least("jobs", self.jobs, 1)
        _at_least("input_mb", self.input_mb, 0)
        _at_least("spacing_s", self.spacing_s, 0)
        _at_least("slack_s", self.slack_s, 0, strict=True)
        _at_least("window_s", self.window_s, 0, strict=True)
        for key, value in (self.links or {}).items():
            _at_least(f"links.{key}", value, 0, strict=key.endswith("bandwidth"))
        if self.degradation is None and self.plane == "remediate":
            set_("degradation", dict(REMEDIATION_DEGRADATION))
        for name, policy in (("retry", RetryPolicy), ("degradation", DegradationPolicy)):
            if getattr(self, name) is not None:
                _build(name, policy, getattr(self, name))
        faults = self.faults
        if isinstance(faults, FaultSchedule):
            faults = [asdict(window) for window in faults.windows]
        if not isinstance(faults, (list, tuple)):
            raise ValueError(f"faults must be a list of windows, got {faults!r}")
        set_("faults", tuple(_check("faults[]", w, _FAULT) for w in faults))
        for window in self.faults:
            _build("faults[]", FaultWindow, window)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-serialisable document."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["faults"] = [dict(window) for window in self.faults]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (also the ``offload_run`` sweep
        config); unknown keys raise ``ValueError``."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a run spec must be an object, got {data!r}")
        _known("run spec", data, {f.name for f in fields(cls)})
        return cls(**data)


@dataclass
class Run:
    """An assembled run.  ``monitor``, ``engine`` (SLO) and
    ``remediation`` are set as far as the spec's plane reaches."""

    env: Environment
    controller: OffloadController
    jobs: List[Job]
    tracer: Any = None
    monitor: Any = None
    engine: Any = None
    remediation: Any = None

    def execute(self):
        """Run the jobs, then finalize the SLO engine; returns the report."""
        report = self.controller.run_workload(self.jobs)
        if self.engine is not None:
            self.engine.finalize(float(self.env.sim.now))
        return report


def _jobs(spec: RunSpec, app) -> List[Job]:
    if spec.workload is None:
        first = spec.first_job_id
        return [
            Job(app, input_mb=spec.input_mb, released_at=spec.spacing_s * i,
                deadline=spec.spacing_s * i + spec.slack_s,
                **({} if first is None else {"job_id": first + i}))
            for i in range(spec.jobs)
        ]
    from repro.traces.replay import load_workload

    def resolve(name: str):
        _choose("app", name, CATALOG)
        return CATALOG[name]()

    jobs = [j for j in load_workload(spec.workload, resolve) if j.app.name == spec.app]
    if not jobs:
        raise ValueError(f"trace {spec.workload!r} has no jobs for app {spec.app!r}")
    # Rebind to the controller's graph instance.
    return [Job(app, input_mb=j.input_mb, released_at=j.released_at,
                deadline=j.deadline) for j in jobs]


def assemble(spec: RunSpec) -> Run:
    """Wire ``spec`` in the canonical order, ready to :meth:`Run.execute`."""
    if spec.links is None:
        env = Environment.build(seed=spec.seed, connectivity=spec.connectivity,
                                with_storage=spec.with_storage)
    else:
        env = Environment.build_custom(seed=spec.seed, with_storage=spec.with_storage,
                                       **spec.links)
    tracer = None
    if spec.trace or spec.plane != "none":
        from repro.telemetry import attach_tracer

        tracer = attach_tracer(env)  # before faults, so windows are annotated
    if spec.faults:
        inject_faults(env, FaultSchedule(FaultWindow(**w) for w in spec.faults))
    retry, degradation = spec.retry, spec.degradation
    controller = OffloadController(
        env, CATALOG[spec.app](),
        scheduler=SCHEDULERS[spec.scheduler](spec.window_s),
        weights=WEIGHTS[spec.weights](),
        retry_policy=None if retry is None else RetryPolicy(**retry),
        degradation=None if degradation is None else DegradationPolicy(**degradation),
    )
    controller.profile_offline()
    controller.plan(input_mb=spec.input_mb)
    run = Run(env, controller, [], tracer)
    if spec.plane == "monitor":
        from repro.monitor import attach_monitor

        run.monitor = attach_monitor(env)
    elif spec.plane == "alerts":
        from repro.monitor import FLEET_RULES, attach_monitoring
        from repro.monitor.fleet import default_fleet_rule_overrides, live_fleet_slos

        slos = live_fleet_slos("faas")
        plane = attach_monitoring(env, slos, rules=FLEET_RULES,
                                  rule_overrides=default_fleet_rule_overrides(slos))
        run.monitor, run.engine = plane.monitor, plane.engine
    elif spec.plane == "remediate":
        from repro.remediate import attach_remediation

        plane = attach_remediation(env, [controller])
        run.monitor, run.engine = plane.monitor, plane.engine
        run.remediation = plane.remediation
    run.jobs = _jobs(spec, controller.app)
    return run


__all__ = ["PLANES", "REMEDIATION_DEGRADATION", "Run", "RunSpec", "SCHEDULERS",
           "WEIGHTS", "assemble"]
