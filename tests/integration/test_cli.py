"""The command-line interface, exercised in-process."""

from pathlib import Path

import pytest

from repro.cli import main


class TestGenerate:
    def test_generate_binomial(self, tmp_path, capsys):
        out = str(tmp_path / "data.tsv")
        code = main(
            ["generate", "binomial", "--rows", "300", "--skew", "0.5",
             "-o", out]
        )
        assert code == 0
        assert "wrote 300 rows" in capsys.readouterr().out
        assert len(open(out).readlines()) == 301  # header + rows

    @pytest.mark.parametrize("dataset", ["zipf", "wikipedia", "usagov"])
    def test_generate_other_datasets(self, tmp_path, dataset):
        out = str(tmp_path / "data.tsv")
        assert main(
            ["generate", dataset, "--rows", "100", "-o", out]
        ) == 0


class TestCube:
    def test_cube_with_output(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        cube = str(tmp_path / "cube.tsv")
        main(["generate", "binomial", "--rows", "400", "-o", data])
        code = main(
            ["cube", data, "--engine", "spcube", "--machines", "4",
             "-o", cube]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SP-Cube" in out
        assert "c-groups" in out
        assert open(cube).read().count("\n") > 100

    def test_cube_each_engine(self, tmp_path):
        data = str(tmp_path / "data.tsv")
        main(["generate", "binomial", "--rows", "200", "-o", data])
        for engine in ("naive", "mrcube", "hive"):
            assert main(
                ["cube", data, "--engine", engine, "--machines", "3"]
            ) == 0

    def test_cube_with_sum_aggregate(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "zipf", "--rows", "200", "-o", data])
        assert main(["cube", data, "--aggregate", "sum"]) == 0


class TestCompare:
    def test_compare_verified(self, capsys):
        code = main(
            ["compare", "binomial", "--rows", "400", "--skew", "0.4",
             "--machines", "4", "--engines", "spcube", "naive",
             "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spcube" in out and "naive" in out
        assert "identical cubes" in out


class TestFaultKnobs:
    def test_cube_with_fault_seed_reports_recovery(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "binomial", "--rows", "300", "-o", data])
        code = main(
            ["cube", data, "--machines", "4", "--fault-seed", "3",
             "--max-task-attempts", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault recovery" in out
        assert "attempts" in out

    def test_cube_fault_free_by_default(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "binomial", "--rows", "200", "-o", data])
        assert main(["cube", data, "--machines", "3"]) == 0
        assert "fault recovery" not in capsys.readouterr().out

    def test_compare_with_faults_keeps_cubes_identical(self, capsys):
        code = main(
            ["compare", "binomial", "--rows", "400", "--machines", "4",
             "--engines", "spcube", "naive", "--fault-seed", "3",
             "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attempts" in out and "recovered" in out
        assert "identical cubes" in out

    def test_crashy_cluster_reports_stuck_not_traceback(self, capsys):
        # crash probability 1.0: every attempt of every task dies, every
        # engine aborts — the CLI must report it, not blow up.
        code = main(
            ["compare", "binomial", "--rows", "200", "--machines", "3",
             "--engines", "spcube", "naive", "--fault-seed", "1",
             "--crash-prob", "1.0", "--straggle-prob", "0.0"]
        )
        assert code == 0
        assert "stuck" in capsys.readouterr().out


class TestInputErrors:
    """A bad input file or knob is one ``repro: error:`` line, exit 1."""

    @pytest.mark.parametrize("argv", [
        ["cube", "{data}", "--machines", "0"],
        ["cube", "{data}", "--machines", "-1"],
        ["compare", "zipf", "--rows", "50", "--machines", "0"],
        ["sketch", "{data}", "--machines", "0"],
        ["sketch", "{data}", "--machines", "-1"],
        ["cube", "{missing}"],
        ["sketch", "{missing}"],
    ], ids=" ".join)
    def test_one_error_line_and_no_traceback(self, tmp_path, argv):
        import subprocess
        import sys

        data = str(tmp_path / "data.tsv")
        main(["generate", "zipf", "--rows", "50", "-o", data])
        missing = str(tmp_path / "missing.tsv")
        argv = [arg.format(data=data, missing=missing) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error:"), lines


class TestParallelism:
    def test_the_flag_is_gone(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "binomial", "--rows", "100", "-o", data])
        with pytest.raises(SystemExit) as caught:
            main(["cube", data, "--parallelism", "2"])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSketch:
    def test_sketch_describes_and_writes(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        sketch_path = str(tmp_path / "sketch.json")
        main(
            ["generate", "binomial", "--rows", "500", "--skew", "0.6",
             "-o", data]
        )
        code = main(
            ["sketch", data, "--machines", "4", "--limit", "2",
             "-o", sketch_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skewed c-groups" in out
        assert "written to" in out

        from repro.io import sketch_from_json

        sketch = sketch_from_json(Path(sketch_path).read_text())
        assert sketch.num_skewed > 0

    def test_sketch_exact_mode(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "binomial", "--rows", "300", "-o", data])
        assert main(["sketch", data, "--exact", "--machines", "3"]) == 0
        assert "exact" in capsys.readouterr().out


class TestTraceCommands:
    def test_cube_trace_then_analyze(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        trace = str(tmp_path / "run.trace.jsonl")
        main(["generate", "zipf", "--rows", "600", "-o", data])
        code = main(
            ["cube", data, "--machines", "6", "--fault-seed", "7",
             "--trace", trace, "--trace-level", "debug"]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        code = main(["analyze-trace", trace])
        assert code == 0
        out = capsys.readouterr().out
        assert "run SP-Cube" in out
        assert "per-reducer records" in out

    def test_compare_trace_covers_all_engines(self, tmp_path, capsys):
        trace = str(tmp_path / "cmp.trace.jsonl")
        code = main(
            ["compare", "zipf", "--rows", "400", "--machines", "4",
             "--engines", "spcube", "naive", "--trace", trace]
        )
        assert code == 0
        code = main(["analyze-trace", trace])
        assert code == 0
        out = capsys.readouterr().out
        assert "run SP-Cube" in out
        assert "run Naive-MR" in out

    def test_progress_prints_to_stderr(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        main(["generate", "zipf", "--rows", "300", "-o", data])
        assert main(
            ["cube", data, "--machines", "4", "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "[job ]" in err
        assert "[run ]" in err

    def test_analyze_trace_missing_file(self):
        with pytest.raises(SystemExit, match="error"):
            main(["analyze-trace", "/nonexistent/trace.jsonl"])

    def test_analyze_trace_validate_fails_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "kind": "mystery"}\n')
        code = main(["analyze-trace", str(bad)])
        assert code == 1
        assert "schema violation" in capsys.readouterr().err


class TestAnalyzeTraceExitCodes:
    """The schema check always runs: clean traces pass, broken ones don't."""

    def test_valid_trace_without_flag_exits_zero(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        trace = str(tmp_path / "ok.trace.jsonl")
        main(["generate", "zipf", "--rows", "300", "-o", data])
        main(["cube", data, "--machines", "4", "--trace", trace])
        capsys.readouterr()
        assert main(["analyze-trace", trace]) == 0
        out = capsys.readouterr().out
        assert "run SP-Cube" in out

    def test_invalid_trace_without_flag_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "kind": "mystery"}\n')
        code = main(["analyze-trace", str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert "trace schema violation" in captured.err
        assert captured.err.count("\n") == 1  # one-line reason
        assert "run " not in captured.out  # no summary from a broken trace


class TestDoctor:
    def test_doctor_writes_reports_and_passes_strict(self, tmp_path, capsys):
        import json

        json_out = str(tmp_path / "doctor.json")
        md_out = str(tmp_path / "doctor.md")
        code = main(
            ["doctor", "--rows", "600", "--machines", "4",
             "--engines", "spcube",
             "--binomial-skews", "0.4", "--zipf-exponents", "1.3",
             "--json", json_out, "--markdown", md_out, "--strict"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cube doctor report" in out
        assert "Sketch accuracy" in out
        assert "Reducer load attribution" in out
        with open(json_out) as handle:
            report = json.load(handle)
        assert report["healthy"] is True
        assert report["problems"] == []
        assert [d["name"] for d in report["datasets"]] == [
            "binomial(p=0.4)", "zipf(s=1.3)"
        ]
        with open(md_out) as handle:
            markdown = handle.read()
        assert "Cube doctor report" in markdown
        # The run report's doctor section is the same text, byte for byte.
        report_out = str(tmp_path / "report.md")
        assert main(["report", "--doctor-json", json_out,
                     "-o", report_out]) == 0
        with open(report_out) as handle:
            assert f"\n## Doctor audit\n\n{markdown}\n## Bench: suite\n" \
                in handle.read()

    def test_doctor_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["doctor", "--rows", "100", "--engines", "spark"])


class TestTelemetryCommands:
    """metrics-export, analyze-trace --format json and report, all from
    the one trace file."""

    def make_artifacts(self, tmp_path):
        data = str(tmp_path / "data.tsv")
        trace = str(tmp_path / "run.trace.jsonl")
        main(["generate", "binomial", "--rows", "300", "-o", data])
        assert main(
            ["cube", data, "--machines", "4", "--trace", trace]
        ) == 0
        return data, trace

    def test_cube_writes_timeline(self, tmp_path, capsys):
        """The trace is the only artifact a run writes, and it is pure
        span/event records — no second dialect rides in the file."""
        import json

        _data, trace = self.make_artifacts(tmp_path)
        out = capsys.readouterr().out
        assert "trace written to" in out and "telemetry" not in out
        types = {json.loads(line)["type"] for line in open(trace)}
        assert types == {"span", "event"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.tsv", "run.trace.jsonl",
        ]

    def test_metrics_export_prints_valid_exposition(self, tmp_path, capsys):
        _data, trace = self.make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["metrics-export", trace]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "# TYPE repro_jobs_total counter" in captured.out
        assert "repro_phase_seconds_bucket" in captured.out
        assert "repro_reduce_task_records_bucket" in captured.out
        assert "rss" not in captured.out  # no host facts on the sim clock

    def test_metrics_export_to_file(self, tmp_path, capsys):
        _data, trace = self.make_artifacts(tmp_path)
        out = str(tmp_path / "metrics.prom")
        assert main(["metrics-export", trace, "-o", out]) == 0
        assert "# HELP" in open(out).read()

    def test_metrics_export_missing_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="error"):
            main(["metrics-export", "/nonexistent/run.trace.jsonl"])

    def test_analyze_trace_json_format(self, tmp_path, capsys):
        import json

        _data, trace = self.make_artifacts(tmp_path)
        capsys.readouterr()
        assert main(["analyze-trace", trace, "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema_version"] == 1
        assert summary["dominant_job"] == "sp-cube"
        assert summary["recovery"]["attempts"] > 0

    def test_report_stitches_everything(self, tmp_path, capsys):
        _data, trace = self.make_artifacts(tmp_path)
        out = str(tmp_path / "report.md")
        assert main(["report", "--trace", trace, "-o", out]) == 0
        report = open(out).read()
        assert report.startswith("# repro run report\n")
        assert "per-reducer records, job 'sp-cube'" in report  # Trace
        assert "# TYPE repro_jobs_total counter" in report  # Telemetry
        assert "<svg" not in report and "<html" not in report
        # Sections without inputs say so instead of vanishing.
        assert "(doctor report not provided)" in report

    def test_report_without_inputs_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="at least one input"):
            main(["report", "-o", str(tmp_path / "r.md")])

    @pytest.mark.parametrize("flag, text", [
        ("--doctor-json", "[1]"),
        ("--recovery-json", '{"points": [1]}'),
    ])
    def test_report_on_a_foreign_json_exits_cleanly(self, tmp_path, flag,
                                                    text):
        path = tmp_path / "foreign.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match="^repro: error: "):
            main(["report", flag, str(path), "-o", str(tmp_path / "r.md")])
        assert not (tmp_path / "r.md").exists()


class TestLineageCommands:
    """A debug-level trace carries the flows and the watchdog's alerts;
    the explain query commands walk it."""

    def adversarial_artifact(self, tmp_path):
        """The CI smoke pair's skewed half: a run that must alert."""
        data = str(tmp_path / "adv.tsv")
        lineage = str(tmp_path / "adv.trace.jsonl")
        main(["generate", "binomial", "--rows", "1500", "--skew", "0.9",
              "--seed", "11", "-o", data])
        assert main(
            ["cube", data, "--machines", "4", "--memory-records", "32",
             "--trace", lineage, "--trace-level", "debug"]
        ) == 0
        return data, lineage

    def test_cube_writes_lineage_and_alerts_on_skew(self, tmp_path, capsys):
        import json

        _data, lineage = self.adversarial_artifact(tmp_path)
        out = capsys.readouterr().out
        assert "watchdog:        1 skew_alert" in out
        records = [
            json.loads(line) for line in open(lineage).read().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert "flow" in kinds
        # The alert is an ordinary event, right behind its job's span.
        span = max(i for i, r in enumerate(records)
                   if r["kind"] == "job" and r["name"] == "sp-cube")
        assert kinds[span + 1] == "skew_alert"

    def test_uniform_run_stays_quiet(self, tmp_path, capsys):
        data = str(tmp_path / "uni.tsv")
        trace = str(tmp_path / "uni.trace.jsonl")
        main(["generate", "binomial", "--rows", "1500", "--skew", "0.0",
              "--seed", "11", "-o", data])
        assert main(
            ["cube", data, "--machines", "4", "--memory-records", "32",
             "--trace", trace, "--trace-level", "debug"]
        ) == 0
        assert "watchdog:        no alerts" in capsys.readouterr().out
        assert "_alert" not in open(trace).read()

    def test_explain_reducer_markdown_and_json(self, tmp_path, capsys):
        import json

        _data, lineage = self.adversarial_artifact(tmp_path)
        capsys.readouterr()
        assert main(["explain-reducer", lineage]) == 0
        markdown = capsys.readouterr().out
        assert "## Reducer" in markdown
        assert "`sp-cube`" in markdown
        assert "| cuboid | records |" in markdown
        assert main(
            ["explain-reducer", lineage, "--format", "json"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["query"] == "explain-reducer"
        assert result["job"] == "sp-cube"
        assert result["by_cuboid"]

    def test_explain_group_follows_a_hot_cuboid(self, tmp_path, capsys):
        import json

        _data, lineage = self.adversarial_artifact(tmp_path)
        capsys.readouterr()
        assert main(
            ["explain-reducer", lineage, "--format", "json"]
        ) == 0
        hottest = json.loads(capsys.readouterr().out)
        cuboid = next(iter(hottest["by_cuboid"]))
        assert main(
            ["explain-group", lineage, "--cuboid", cuboid,
             "--format", "json"]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["cuboid"] == int(cuboid)
        assert result["by_reducer"]

    def test_explain_missing_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="error"):
            main(["explain-reducer", "/nonexistent/run.trace.jsonl"])
        with pytest.raises(SystemExit, match="error"):
            main(["explain-group", "/nonexistent/run.trace.jsonl",
                  "--cuboid", "3"])

    def test_explain_bad_cuboid_exits_cleanly(self, tmp_path):
        _data, lineage = self.adversarial_artifact(tmp_path)
        with pytest.raises(SystemExit, match="lattice mask"):
            main(["explain-group", lineage, "--cuboid", "xyz"])

    def test_explain_truncated_artifact_names_line(self, tmp_path):
        _data, lineage = self.adversarial_artifact(tmp_path)
        text = open(lineage).read()
        truncated = str(tmp_path / "truncated.trace.jsonl")
        open(truncated, "w").write(text[: len(text) // 2])
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["explain-reducer", truncated])

    def test_report_with_only_lineage(self, tmp_path, capsys):
        _data, lineage = self.adversarial_artifact(tmp_path)
        out = str(tmp_path / "report.md")
        assert main(["report", "--trace", lineage, "-o", out]) == 0
        report = open(out).read()
        assert "\n## Lineage & alerts\n\n## Reducer 0 of `sp-cube`" in report
        assert "skew_alert" in report
        # Every other section degrades to its placeholder.
        assert "(BENCH_recovery.json not provided)" in report


class TestTruncatedTrace:
    """A partially-written trace must die with a line number, not a
    traceback (the crashed-run postmortem scenario)."""

    def write_trace(self, tmp_path):
        data = str(tmp_path / "data.tsv")
        trace = str(tmp_path / "run.trace.jsonl")
        main(["generate", "binomial", "--rows", "300", "-o", data])
        assert main(["cube", data, "--machines", "4", "--trace", trace]) == 0
        return trace

    def test_truncated_final_line_exits_one_with_line_number(
        self, tmp_path, capsys
    ):
        trace = self.write_trace(tmp_path)
        lines = open(trace).read().splitlines()
        broken = str(tmp_path / "broken.trace.jsonl")
        open(broken, "w").write(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze-trace", broken])
        message = str(excinfo.value)
        assert f"{broken}:{len(lines)}:" in message
        assert "not valid JSON" in message
        assert "\n" not in message  # one-line reason

    def test_scalar_record_exits_one_with_line_number(self, tmp_path):
        trace = self.write_trace(tmp_path)
        broken = str(tmp_path / "scalar.trace.jsonl")
        open(broken, "w").write(open(trace).read() + "42\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze-trace", broken])
        message = str(excinfo.value)
        assert "must be a JSON object, got int" in message
        assert f":{len(open(trace).readlines()) + 1}:" in message


class TestDamagedArtifact:
    """One loader, one contract: every trace consumer answers a damaged
    file with a one-line ``PATH[:LINE]: reason`` and a non-zero exit."""

    VALID = ('{"type": "event", "kind": "spill", "at": 0, "fields": {}, '
             '"seq": 0}\n')
    DAMAGE = {
        "empty": ("", r"bad\.jsonl: empty trace"),
        "truncated last line": (VALID + VALID[:30], ":2: not valid JSON"),
        "JSON scalar line": (VALID + "42\n", ":2: .*got int"),
        "non-numeric time": (
            VALID + '{"type": "span", "kind": "run", "name": "r", "t0": "0",'
            ' "t1": 1, "status": "ok", "counters": {}, "seq": 1}\n',
            ":2: span needs numeric t0 and t1",
        ),
        "pre-PR lineage file": (
            '{"type": "lineage_meta", "version": 1, "run_id": "r"}\n'
            '{"type": "job", "job": "sp-cube", "execution": 0}\n',
            ":1: type must be 'span' or 'event', got 'lineage_meta'",
        ),
        "pre-PR timeline file": (
            '{"type": "meta", "version": 1, "run_id": "r", "cadence": 0}\n'
            '{"type": "sample", "series": "s", "t": 0, "value": "x"}\n',
            ":1: type must be 'span' or 'event', got 'meta'",
        ),
    }
    COMMANDS = {
        "analyze-trace": ["analyze-trace", "{path}"],
        "metrics-export": ["metrics-export", "{path}"],
        "explain-reducer": ["explain-reducer", "{path}"],
        "explain-group": ["explain-group", "{path}", "--cuboid", "1"],
        "report": ["report", "--trace", "{path}", "-o", "{path}.md"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_line_reason_and_nonzero_exit(self, tmp_path, capsys, command):
        import re

        path = tmp_path / "bad.jsonl"
        argv = [arg.format(path=path) for arg in self.COMMANDS[command]]
        for damage, (text, reason) in self.DAMAGE.items():
            path.write_text(text)
            try:
                code, message = main(argv), capsys.readouterr().err.strip()
            except SystemExit as exit_:
                code, message = exit_.code, str(exit_.code)
            assert code not in (0, None), damage
            assert re.search(reason, message), (damage, message)
            assert "\n" not in message, damage
            assert capsys.readouterr().out == "", damage
            assert not (tmp_path / "bad.jsonl.md").exists(), damage


class TestServeCube:
    def test_port_in_use_is_one_line_and_closes_the_view(
        self, tmp_path, monkeypatch
    ):
        import socket

        from repro.serving import StoredCubeView

        data = str(tmp_path / "data.tsv")
        store = str(tmp_path / "cube.store")
        main(["generate", "binomial", "--rows", "200", "-o", data])
        assert main(["cube", data, "--machines", "3", "--store", store]) == 0

        closed = []
        close = StoredCubeView.close
        monkeypatch.setattr(
            StoredCubeView, "close",
            lambda view: (closed.append(view), close(view))[1],
        )
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit) as exc:
                main(["serve-cube", store, "--port", str(port)])
        message = str(exc.value)
        assert message.startswith(
            f"repro: error: cannot listen on 127.0.0.1:{port}: "
        )
        assert "\n" not in message
        assert len(closed) == 1


class TestEngineRegistry:
    def test_parser_choices_are_the_registry(self):
        from repro.cli import build_parser
        from repro.engines import ENGINE_NAMES, load_engines

        assert ENGINE_NAMES == ("hive", "mrcube", "naive", "spcube")
        engines = load_engines(ENGINE_NAMES)
        assert tuple(engines) == ENGINE_NAMES
        assert {cls.__name__ for cls in engines.values()} == {
            "HiveCube", "MRCube", "NaiveCube", "SPCube"
        }
        args = build_parser().parse_args(["doctor"])
        assert args.engines == list(ENGINE_NAMES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cube", "data.tsv", "--engine", "spark"],
            ["compare", "zipf", "--engines", "spcube", "spark"],
        ],
        ids=["cube", "compare"],
    )
    def test_unknown_engine_is_one_error_line(self, argv, capsys):
        # The parser's choices are the registry's names, so argparse
        # refuses the name before any engine is imported.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        error_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith(f"repro {argv[0]}: error:")
        ]
        assert len(error_lines) == 1 and "'spark'" in error_lines[0]

    def test_unknown_engine_from_the_api_names_it(self):
        from repro.engines import load_engines

        with pytest.raises(ValueError, match=r"unknown engines: \['spark'\]"):
            load_engines(["spcube", "spark"])
