#!/usr/bin/env python
"""Regenerate the golden-trace fixtures under tests/golden/.

Run this ONLY when a change is *supposed* to alter simulated behaviour
(new fault mode, different draw order, a fixed bug).  Commit the fixture
diff alongside the change so review sees exactly which numbers moved:

    PYTHONPATH=src python tools/regen_golden.py [--check]

``--check`` regenerates in memory and exits non-zero if the committed
fixtures are stale, without writing anything (useful in CI).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.testing.golden import (  # noqa: E402 - path bootstrap above
    GOLDEN_SEED,
    TRACE_SCHEMA,
    run_golden_scenario,
    run_monitored_scenario,
    trace_digest,
)

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
#: Keys of one monitored run that the monitored fixture pins.
MONITORED_KEYS = (
    "jobs_completed", "failures", "sim_end_s", "alert_log", "fired_slos",
    "health",
)


def render(with_faults: bool, traced: bool = False) -> dict:
    lines = run_golden_scenario(with_faults, traced=traced)
    doc = {
        "schema": TRACE_SCHEMA,
        "seed": GOLDEN_SEED,
        "with_faults": with_faults,
        "digest": trace_digest(lines),
        "lines": lines,
    }
    if traced:
        # Keyed only when set, so the pre-telemetry fixtures regenerate
        # byte-identically.
        doc["traced"] = True
    return doc


def render_monitored() -> dict:
    """The monitored scenario's alerting outcome, faults off and on."""
    runs = {}
    for with_faults in (False, True):
        result = run_monitored_scenario(with_faults)
        runs["faults" if with_faults else "baseline"] = {
            key: result[key] for key in MONITORED_KEYS
        }
    canonical = json.dumps(runs, sort_keys=True).encode("utf-8")
    return {
        "schema": TRACE_SCHEMA,
        "seed": GOLDEN_SEED,
        "digest": hashlib.sha256(canonical).hexdigest(),
        "runs": runs,
    }


VARIANTS = {
    "pipeline_baseline.json": lambda: render(False),
    "pipeline_faults.json": lambda: render(True),
    "pipeline_traced.json": lambda: render(True, traced=True),
    "pipeline_monitored.json": render_monitored,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify fixtures are current instead of rewriting them",
    )
    args = parser.parse_args()

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    stale = []
    for filename, build in VARIANTS.items():
        path = GOLDEN_DIR / filename
        fresh = build()
        if args.check:
            current = json.loads(path.read_text()) if path.exists() else None
            if current != fresh:
                stale.append(filename)
                continue
            print(f"ok       {filename}  digest={fresh['digest'][:16]}…")
        else:
            path.write_text(json.dumps(fresh, indent=1) + "\n")
            print(f"written  {filename}  digest={fresh['digest'][:16]}…")
    if stale:
        print(f"STALE fixtures: {', '.join(stale)} — rerun without --check")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
