"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_requires_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_unknown_connectivity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--app", "photo_backup", "--connectivity", "6g"]
            )

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--app", "photo_backup", "--scheduler", "psychic"]
            )


class TestListCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        for app in ("photo_backup", "nightly_analytics", "ml_training"):
            assert app in out

    def test_list_profiles(self, capsys):
        assert main(["list-profiles"]) == 0
        out = capsys.readouterr().out
        for profile in ("3g", "4g", "5g", "wifi", "broadband"):
            assert profile in out


class TestPlan:
    def test_plan_outputs_partition_and_allocation(self, capsys):
        code = main(
            ["plan", "--app", "photo_backup", "--seed", "1", "--input-mb", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cloud components" in out
        assert "Memory allocation" in out
        assert "capture" in out  # pinned, listed as local

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit, match="unknown app"):
            main(["plan", "--app", "nope"])

    def test_unknown_weights_exits(self):
        with pytest.raises(SystemExit, match="weights"):
            main(["plan", "--app", "photo_backup", "--weights", "vibes"])


class TestBoundaryValidation:
    """Bad ``common()``/``run``/``fleet`` input exits 2 with one line
    naming the field, instead of an empty run or a traceback."""

    @pytest.mark.parametrize("argv,field", [
        (["run", "--app", "photo_backup", "--jobs", "-3"], "jobs"),
        (["run", "--app", "photo_backup", "--spacing", "-5"], "spacing_s"),
        (["plan", "--app", "photo_backup", "--input-mb", "-5"], "input_mb"),
        (["plan", "--app", "photo_backup", "--input-mb", "nan"], "input_mb"),
        (["run", "--app", "photo_backup", "--slack", "-5"], "slack_s"),
        (["run", "--app", "photo_backup", "--window", "-1",
          "--scheduler", "batcher"], "window_s"),
        (["analyze", "--app", "photo_backup", "--input-mb", "inf"],
         "input_mb"),
        (["pipeline", "--app", "nope"], "app"),
        (["fleet", "--zones", "0"], "--zones"),
        (["fleet", "--shards", "0"], "--shards"),
        (["fleet", "--ues-per-zone", "-1"], "--ues-per-zone"),
        (["fleet", "--ues-per-zone", "0"], "--ues-per-zone"),
        (["fleet", "--jobs-per-ue", "0"], "--jobs-per-ue"),
        (["fleet", "--workers", "-1"], "--workers"),
        (["fleet", "--input-mb", "nan"], "input_mb"),
        (["fleet", "--app", "nope"], "app"),
    ])
    def test_bad_input_exits_two_with_one_line(self, argv, field, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err, err
        assert "Traceback" not in err


class TestRun:
    def test_run_reports_metrics(self, capsys):
        code = main(
            [
                "run", "--app", "nightly_analytics", "--jobs", "2",
                "--seed", "2", "--slack", "3600",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs completed" in out
        assert "deadline miss %" in out

    @pytest.mark.parametrize("scheduler", ["eager", "edf", "batcher", "costwindow"])
    def test_all_schedulers_run(self, scheduler, capsys):
        code = main(
            [
                "run", "--app", "photo_backup", "--jobs", "1",
                "--scheduler", scheduler, "--slack", "7200",
            ]
        )
        assert code == 0

    def test_with_storage_flag(self, capsys):
        code = main(
            [
                "run", "--app", "photo_backup", "--jobs", "1",
                "--with-storage", "--slack", "3600",
            ]
        )
        assert code == 0

    def test_deterministic_output(self, capsys):
        argv = ["run", "--app", "photo_backup", "--jobs", "2", "--seed", "7"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestTrace:
    def test_run_trace_then_report(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        code = main(
            [
                "run", "--app", "photo_backup", "--jobs", "2",
                "--seed", "3", "--trace", str(trace),
            ]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        assert trace.exists()

        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-job phase attribution" in out
        assert "dominant" in out
        assert "app=photo_backup" in out

    def test_trace_is_perfetto_loadable_json(self, tmp_path):
        import json

        trace = tmp_path / "run.trace.json"
        main(
            [
                "run", "--app", "photo_backup", "--jobs", "1",
                "--trace", str(trace),
            ]
        )
        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"X", "i"}
        assert doc["metadata"]["app"] == "photo_backup"

    def test_report_prometheus_flag(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        main(
            [
                "run", "--app", "photo_backup", "--jobs", "1",
                "--trace", str(trace),
            ]
        )
        capsys.readouterr()
        assert main(["report", str(trace), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert 'jobs_total{app="photo_backup"' in out

    def test_trace_flag_deterministic(self, tmp_path):
        traces = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(
                [
                    "run", "--app", "photo_backup", "--jobs", "2",
                    "--seed", "11", "--trace", str(path),
                ]
            )
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]


class TestWorkloadReplay:
    def test_run_from_trace_and_save_report(self, tmp_path, capsys):
        from repro import Job, photo_backup_app
        from repro.traces import load_report_summary, save_workload

        trace = tmp_path / "trace.json"
        jobs = [
            Job(photo_backup_app(), input_mb=2.0, released_at=20.0 * i,
                deadline=20.0 * i + 3600.0)
            for i in range(3)
        ]
        save_workload(trace, jobs)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "run", "--app", "photo_backup",
                "--workload", str(trace),
                "--save-report", str(report_path),
            ]
        )
        assert code == 0
        summary = load_report_summary(report_path)
        assert summary["jobs_completed"] == 3

    def test_trace_without_matching_app_exits(self, tmp_path):
        from repro import Job, photo_backup_app
        from repro.traces import save_workload

        trace = tmp_path / "trace.json"
        save_workload(trace, [Job(photo_backup_app(), input_mb=1.0)])
        with pytest.raises(SystemExit, match="no jobs"):
            main(["run", "--app", "ml_training", "--workload", str(trace)])


class TestSweep:
    def _argv(self, tmp_path, tag, workers):
        return [
            "sweep",
            "--scenario", "repro.sweep.scenarios:kernel_smoke",
            "--grid", '{"processes": [2, 4, 6], "interrupt_every": [2, 3]}',
            "--workers", str(workers),
            "--cache-dir", str(tmp_path / f"cache-{tag}"),
            "--out", str(tmp_path / f"merged-{tag}.json"),
            "--manifest", str(tmp_path / f"manifest-{tag}.json"),
        ]

    def test_sweep_writes_merged_output_and_manifest(self, tmp_path, capsys):
        import json

        assert main(self._argv(tmp_path, "a", 1)) == 0
        out = capsys.readouterr().out
        assert "Sweep summary" in out
        merged = json.loads((tmp_path / "merged-a.json").read_text())
        assert len(merged["runs"]) == 6
        manifest = json.loads((tmp_path / "manifest-a.json").read_text())
        assert manifest["total"] == 6
        assert manifest["executed"] == 6

    def test_sweep_output_byte_identical_across_workers(self, tmp_path):
        main(self._argv(tmp_path, "serial", 1))
        main(self._argv(tmp_path, "parallel", 2))
        serial = (tmp_path / "merged-serial.json").read_bytes()
        parallel = (tmp_path / "merged-parallel.json").read_bytes()
        assert serial == parallel

    def test_sweep_cached_rerun_is_byte_identical(self, tmp_path, capsys):
        import json

        argv = self._argv(tmp_path, "c", 1)
        main(argv)
        first = (tmp_path / "merged-c.json").read_bytes()
        main(argv)
        second = (tmp_path / "merged-c.json").read_bytes()
        assert first == second
        manifest = json.loads((tmp_path / "manifest-c.json").read_text())
        assert manifest["executed"] == 0
        assert manifest["cached"] == 6

    def test_sweep_from_spec_file(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "scenario": "repro.sweep.scenarios:kernel_smoke",
            "grid": {"processes": [2, 3]},
            "seeds": 2,
        }))
        out = tmp_path / "merged.json"
        assert main(["sweep", "--spec", str(spec), "--workers", "1",
                     "--out", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert len(merged["runs"]) == 4

    def test_sweep_rejects_bad_grid_json(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "{not json", "--workers", "1"])


class TestDiff:
    def _report(self, tmp_path, name, summary):
        import json

        path = tmp_path / name
        path.write_text(json.dumps({"version": 1, "summary": summary}))
        return str(path)

    def test_identical_reports_exit_zero(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json", {"mean_response_s": 10.0})
        b = self._report(tmp_path, "b.json", {"mean_response_s": 10.0})
        assert main(["diff", a, b]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json", {"mean_response_s": 10.0})
        b = self._report(tmp_path, "b.json", {"mean_response_s": 12.0})
        assert main(["diff", a, b, "--threshold", "0.1"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "mean_response_s" in out

    def test_improvement_exits_zero(self, tmp_path, capsys):
        a = self._report(tmp_path, "a.json", {"mean_response_s": 10.0})
        b = self._report(tmp_path, "b.json", {"mean_response_s": 5.0})
        assert main(["diff", a, b]) == 0

    def test_out_flag_writes_canonical_json(self, tmp_path, capsys):
        import json

        a = self._report(tmp_path, "a.json", {"cost": 1.0})
        b = self._report(tmp_path, "b.json", {"cost": 2.0})
        out = tmp_path / "diff.json"
        main(["diff", a, b, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["version"] == 1
        assert doc["ok"] is False
        assert doc["rows"][0]["metric"] == "cost"

    def test_mixed_kinds_exit_two(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        main(
            [
                "run", "--app", "photo_backup", "--jobs", "1",
                "--trace", str(trace),
            ]
        )
        report = self._report(tmp_path, "r.json", {"cost": 1.0})
        capsys.readouterr()
        assert main(["diff", str(trace), report]) == 2
        err = capsys.readouterr().err
        assert "cannot diff" in err

    def test_trace_diff_same_run_exits_zero(self, tmp_path, capsys):
        traces = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(
                [
                    "run", "--app", "photo_backup", "--jobs", "2",
                    "--seed", "11", "--trace", str(path),
                ]
            )
            traces.append(str(path))
        capsys.readouterr()
        assert main(["diff", *traces]) == 0


class TestArtifactErrors:
    """Missing/truncated/non-JSON inputs: one stderr line, exit 2."""

    def _assert_one_error_line(self, capsys):
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["report", "diff"])
    def test_missing_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        argv = [command, missing] + ([missing] if command == "diff" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["report", "diff"])
    def test_truncated_json(self, command, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text('{"traceEvents": [')
        argv = [command, str(path)] + (
            [str(path)] if command == "diff" else []
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["report", "diff"])
    def test_wrong_shape_json(self, command, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        argv = [command, str(path)] + (
            [str(path)] if command == "diff" else []
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        self._assert_one_error_line(capsys)


class TestAnalyze:
    def test_analyze_outputs_breakevens(self, capsys):
        code = main(["analyze", "--app", "photo_backup"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Lint: clean." in out
        assert "crossover" in out
        assert "Edge breakeven" in out
        assert "jobs/hour" in out

    def test_analyze_all_catalog_apps(self, capsys):
        from repro.apps.catalog import CATALOG

        for name in CATALOG:
            assert main(["analyze", "--app", name]) == 0


class TestPipeline:
    def test_pipeline_promotes(self, capsys):
        code = main(
            ["pipeline", "--app", "nightly_analytics", "--canary-jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PROMOTED" in out
        assert "deploy-canary" in out


class TestFleet:
    def _argv(self, tmp_path, tag, shards, workers=1, extra=()):
        return [
            "fleet",
            "--zones", "3", "--ues-per-zone", "2",
            "--window", "600", "--slack", "1200",
            "--shards", str(shards), "--workers", str(workers),
            "--out", str(tmp_path / f"fleet-{tag}.json"),
            *extra,
        ]

    def test_fleet_reports_metrics(self, tmp_path, capsys):
        import json

        assert main(self._argv(tmp_path, "a", 2)) == 0
        out = capsys.readouterr().out
        assert "Sharded fleet report" in out
        assert "exact" in out
        document = json.loads((tmp_path / "fleet-a.json").read_text())
        assert document["schema"] == "repro.fleet.sharded/1"
        assert document["aggregates"]["jobs_completed"] == 6

    def test_fleet_byte_identical_across_shards_and_workers(self, tmp_path):
        main(self._argv(tmp_path, "1s", 1))
        main(self._argv(tmp_path, "4s", 4, workers=2))
        one = (tmp_path / "fleet-1s.json").read_bytes()
        four = (tmp_path / "fleet-4s.json").read_bytes()
        assert one == four

    def test_fleet_split_coupled_prints_bound(self, tmp_path, capsys):
        argv = self._argv(
            tmp_path, "split", 4,
            extra=("--couple", "pairs", "--split-coupled", "--zones", "4"),
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bounded-error" in out
        assert "error bound" in out
