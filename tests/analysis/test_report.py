"""The markdown run report: each section is an existing renderer's text."""

import json

import pytest

from repro.analysis import build_report, format_recovery_tables, write_report
from repro.cli import main
from repro.observability import format_doctor_markdown

LABELS = ("Trace", "Telemetry", "Lineage & alerts", "Doctor audit",
          "Bench: suite", "Bench: recovery cost")


def section(report, label):
    """The body of one ``## label`` section."""
    start = report.index(f"\n## {label}\n\n") + len(f"\n## {label}\n\n")
    following = LABELS[LABELS.index(label) + 1:]
    if not following:
        return report[start:].rstrip("\n")
    return report[start:report.index(f"\n\n## {following[0]}\n", start)]


def fenced(text):
    return "```text\n" + text.rstrip("\n") + "\n```"


def suite_line(workload, failed=0, **metrics):
    """One line of ``benchmarks/suite/run.py --out``."""
    return json.dumps({
        "workload": workload, "seed": 600, "trace": 0, "quick": True,
        "attempted": 1006, "failed": failed, "correct": failed == 0,
        "metrics": {
            name: {"value": value, "n": 5, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


@pytest.fixture
def perf_json(tmp_path):
    path = tmp_path / "suite.jsonl"
    path.write_text("\n".join([
        suite_line("build-dense", build_wall_s=(0.7, "s"),
                   peak_rss_mb=(48.25, "MB")),
        suite_line("build-dense", build_wall_s=(0.9, "s"),
                   peak_rss_mb=(48.75, "MB")),
        suite_line("serve-hot", query_p50_ms=(1.73, "ms")),
    ]) + "\n")
    return str(path)


@pytest.fixture
def doctor_json(tmp_path):
    """An unhealthy doctor report: one problem, one failed engine."""
    engine = {"total_seconds": 41.7, "map_output_mb": 0.5,
              "reducer_balance": 1.4, "failed": False}
    report = {
        "config": {"rows": 600, "machines": 4, "seed": 7,
                   "engines": ["spcube", "hive"]},
        "healthy": False,
        "problems": ["binomial(p=0.4): worst imbalance 3.1 over tolerance"],
        "datasets": [{
            "name": "binomial(p=0.4)",
            "engines": {
                "spcube": engine,
                "hive": dict(engine, total_seconds=90.0,
                             reducer_balance=3.2, failed=True),
            },
            "audit": {
                "overall": {"true_positives": 3, "false_negatives": 1,
                            "precision": 1.0, "recall": 0.75, "f1": 0.857},
                "worst_imbalance": 3.1,
                "mean_gini": 0.2,
                "theory": {"false_negatives_within_bound": True,
                           "false_positives_within_bound": True},
            },
            "attribution": {"predicted": {"0": 40, "1": 560},
                            "matches": True},
        }],
    }
    path = tmp_path / "doctor.json"
    path.write_text(json.dumps(report))
    return str(path)


def perf_section(tmp_path, text):
    path = tmp_path / "suite.jsonl"
    path.write_text(text)
    return section(build_report(perf=str(path)), "Bench: suite")


def table_row(text, name):
    """The cells of the markdown table row whose first cell is ``name``."""
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] == name:
            return cells
    raise AssertionError(f"no {name} row in {text!r}")


class TestBuildReport:
    def test_all_sections_marked_missing_by_default(self):
        report = build_report()
        assert report.startswith("# repro run report\n\ninputs: none\n")
        for label in LABELS:
            assert f"\n## {label}\n" in report
        assert report.count("not provided)") == 6
        assert section(report, "Doctor audit") == (
            "(doctor report not provided)"
        )

    def test_doctor_section_lists_problems_and_engines(self, doctor_json):
        text = section(build_report(doctor=doctor_json), "Doctor audit")
        with open(doctor_json) as handle:
            assert text == format_doctor_markdown(
                json.load(handle)
            ).rstrip("\n")
        assert "1 problem(s) found:\n\n" \
            "- binomial(p=0.4): worst imbalance 3.1 over tolerance" in text
        # The accuracy table counts true skewed groups as TP + FN.
        assert table_row(text, "binomial(p=0.4)")[:2] == [
            "binomial(p=0.4)", "4"
        ]
        engines = {cells[1]: cells[-1] for cells in (
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in text.splitlines()
        ) if cells[1:2] in (["spcube"], ["hive"])}
        assert engines == {"spcube": "ok", "hive": "FAIL"}

    def test_perf_section_tabulates_suite_medians(self, perf_json):
        text = section(build_report(perf=perf_json), "Bench: suite")
        assert text.startswith(
            "3 suite run(s), median per cell; operations: 3018 ok\n\n"
        )
        assert table_row(text, "metric") == [
            "metric", "unit", "build-dense", "serve-hot"
        ]
        # Median of the two build-dense runs; no serve-hot build time.
        assert table_row(text, "build_wall_s") == ["build_wall_s", "s",
                                                   "0.8", ""]
        assert table_row(text, "peak_rss_mb")[2] == "48.5"
        assert table_row(text, "query_p50_ms") == ["query_p50_ms", "ms",
                                                   "", "1.73"]

    def test_perf_section_counts_failed_operations(self, tmp_path):
        text = perf_section(
            tmp_path,
            suite_line("build-dense", failed=2, build_wall_s=(0.7, "s"))
            + "\n",
        )
        assert "operations: 2 of 1006 FAILED" in text

    def test_null_metric_keeps_its_run_and_failures(self, tmp_path):
        """A degraded probe writes ``null``; its run and its failed
        operations still count."""
        text = perf_section(tmp_path, "\n".join([
            suite_line("build-dense", build_wall_s=(0.7, "s"),
                       query_p50_ms=(1.5, "ms")),
            suite_line("build-dense", failed=7, build_wall_s=(0.9, "s"),
                       query_p50_ms=(None, "ms")),
            suite_line("serve-hot", query_p50_ms=("fast", "ms")),
        ]) + "\n")
        assert text.startswith("3 suite run(s), median per cell; "
                               "operations: 7 of 3018 FAILED\n")
        assert table_row(text, "build_wall_s")[2] == "0.8"
        assert table_row(text, "query_p50_ms")[2:] == ["null", "null"]

    @pytest.mark.parametrize("text", [
        "",
        "not json\n",
        '{"workload": "build-dense"}\n[1, 2]\n3\n',
        '{"workload": "w", "failed": "x", "attempted": 1, "metrics": {}}\n',
    ])
    def test_perf_file_without_a_suite_run_is_a_one_line_note(
        self, tmp_path, text
    ):
        assert perf_section(tmp_path, text) == (
            f"(no suite runs in {tmp_path / 'suite.jsonl'})"
        )

    def test_garbled_lines_do_not_hide_the_good_ones(self, tmp_path):
        text = perf_section(
            tmp_path,
            '{"truncated": \n'
            + suite_line("build-dense", build_wall_s=(0.7, "s")) + "\n",
        )
        assert text.startswith("1 suite run(s)")
        assert table_row(text, "build_wall_s")[2] == "0.7"

    def test_recovery_section_is_the_golden_file_tables(self, tmp_path):
        bench = {
            "rows": 6000,
            "points": [
                {"engine": "SP-Cube", "pressure": 0.1, "total_seconds": 9.0,
                 "attempts": 7, "killed_tasks": 1, "speculative_wins": 0,
                 "recovered": 1, "recovery_overhead_seconds": 2.0,
                 "failed": True, "slowdown": 1.8},
            ],
        }
        path = tmp_path / "recovery.json"
        path.write_text(json.dumps(bench))
        text = section(build_report(recovery=str(path)),
                       "Bench: recovery cost")
        table = format_recovery_tables(bench)["points"]
        assert text == table
        # A failed run is a row that says so, not a dropped point.
        last = table.splitlines()[-1].strip("|").split("|")
        assert [cell.strip() for cell in last] == [
            "SP-Cube", "0.10", "9.0", "2.0", "1.80", "7", "1", "0", "1",
            "no",
        ]

    def test_write_report_creates_file(self, tmp_path, perf_json):
        out = tmp_path / "report.md"
        assert write_report(out, perf=perf_json) == out
        assert out.read_text() == build_report(perf=perf_json)

    def test_custom_title_heads_the_file(self, perf_json):
        report = build_report(perf=perf_json, title="nightly <run>")
        assert report.startswith(
            f"# nightly <run>\n\ninputs: bench: suite: `{perf_json}`\n"
        )


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """A skewed run traced at debug level (flow edges, a skew alert) and
    the same run at task level (no flow edges)."""
    tmp = tmp_path_factory.mktemp("traces")
    data = str(tmp / "adv.tsv")
    main(["generate", "binomial", "--rows", "1500", "--skew", "0.9",
          "--seed", "11", "-o", data])
    paths = {}
    for level in ("debug", "task"):
        paths[level] = str(tmp / f"{level}.trace.jsonl")
        assert main(["cube", data, "--machines", "4", "--memory-records",
                     "32", "--trace", paths[level],
                     "--trace-level", level]) == 0
    return paths


class TestTraceSections:
    """Each trace section is its CLI twin's text, byte for byte."""

    def cli(self, capsys, *argv):
        capsys.readouterr()
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_sections_equal_their_cli_twins(self, traces, capsys):
        trace = traces["debug"]
        report = build_report(trace=trace)
        assert section(report, "Trace") == fenced(
            self.cli(capsys, "analyze-trace", trace)
        )
        assert section(report, "Telemetry") == fenced(
            self.cli(capsys, "metrics-export", trace)
        )
        lineage = section(report, "Lineage & alerts")
        assert lineage == self.cli(
            capsys, "explain-reducer", trace
        ).rstrip("\n")
        assert 'repro_watchdog_alerts_total{kind="skew_alert"} 1' in report

    def test_lineage_without_flow_edges_is_a_one_line_note(self, traces):
        report = build_report(trace=traces["task"])
        assert section(report, "Lineage & alerts") == (
            "(trace records no flow events; re-run with --trace-level debug)"
        )
        assert section(report, "Doctor audit") == (
            "(doctor report not provided)"
        )
