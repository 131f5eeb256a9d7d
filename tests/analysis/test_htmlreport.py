"""The unified HTML run report builder."""

import json

import pytest

from repro.analysis import build_report, write_report


@pytest.fixture
def doctor_json(tmp_path):
    report = {
        "healthy": False,
        "problems": ["binomial(p=0.4): worst imbalance 3.1 over tolerance"],
        "datasets": [
            {
                "name": "binomial(p=0.4)",
                "params": {"generator": "binomial", "skew": 0.4},
                "engines": {
                    "spcube": {
                        "total_seconds": 41.7,
                        "reducer_balance": 1.4,
                        "failed": False,
                    },
                    "hive": {
                        "total_seconds": 90.0,
                        "reducer_balance": 3.2,
                        "failed": True,
                    },
                },
                "audit": {
                    "overall": {"f1": 0.93},
                    "worst_imbalance": 3.1,
                },
            }
        ],
    }
    path = tmp_path / "doctor.json"
    path.write_text(json.dumps(report))
    return str(path)


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
        suite_line("serve-<hot>", query_p50_ms=(1.73, "ms")),
    ]) + "\n")
    return str(path)


@pytest.fixture
def recovery_json(tmp_path):
    bench = {
        "rows": 6000,
        "points": [
            {"engine": "SP-Cube", "pressure": 0.0, "slowdown": 1.0,
             "failed": False},
            {"engine": "SP-Cube", "pressure": 0.1, "slowdown": 1.8,
             "failed": False},
            {"engine": "Hive", "pressure": 0.1, "slowdown": 9.9,
             "failed": True},
        ],
    }
    path = tmp_path / "recovery.json"
    path.write_text(json.dumps(bench))
    return str(path)


class TestBuildReport:
    def test_all_sections_marked_missing_by_default(self):
        html = build_report()
        for label in ("Trace", "Telemetry", "Lineage &amp; alerts",
                      "Doctor audit", "Bench: suite",
                      "Bench: recovery cost"):
            assert f"<h2>{label}</h2>" in html
        assert html.count("not provided") == 6

    def test_doctor_section_lists_problems_and_engines(self, doctor_json):
        html = build_report(doctor=doctor_json)
        assert "PROBLEMS" in html
        assert "worst imbalance 3.1" in html
        assert "spcube" in html and "hive" in html

    def test_perf_section_tabulates_suite_medians(self, perf_json):
        html = build_report(perf=perf_json)
        assert "3 suite run(s)" in html and "3018 ok" in html
        # Median of the two build-dense runs; no serve-<hot> build time.
        assert (
            '<td class="name">build_wall_s</td><td class="name">s</td>'
            "<td>0.8</td><td></td>"
        ) in html
        assert "<td>48.5</td>" in html and "<td>1.73</td>" in html
        assert "serve-&lt;hot&gt;" in html
        assert "<script" not in html and "serve-<hot>" not in html

    def test_perf_section_counts_failed_operations(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text(suite_line("build-dense", failed=2,
                                   build_wall_s=(0.7, "s")) + "\n")
        assert "2 of 1006 FAILED" in build_report(perf=str(path))

    @pytest.mark.parametrize("text", [
        "",
        "not json\n",
        '{"workload": "build-dense"}\n[1, 2]\n3\n',
        '{"workload": "w", "failed": 0, "attempted": 1, "metrics": '
        '{"m": {"value": "<script>"}}}\n',
    ])
    def test_perf_file_without_a_suite_run_is_a_one_line_note(
        self, tmp_path, text
    ):
        path = tmp_path / "suite.jsonl"
        path.write_text(text)
        html = build_report(perf=str(path))
        assert f'<p class="muted">(no suite runs in {path})</p>' in html
        assert "<table" not in html and "<script" not in html

    def test_garbled_lines_do_not_hide_the_good_ones(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        path.write_text(
            '{"truncated": \n'
            + suite_line("build-dense", build_wall_s=(0.7, "s")) + "\n"
        )
        html = build_report(perf=str(path))
        assert "1 suite run(s)" in html and "<td>0.7</td>" in html

    def test_recovery_section_drops_failed_points(self, recovery_json):
        html = build_report(recovery=recovery_json)
        assert "SP-Cube" in html
        # Hive's only point failed, so its curve must not render.
        assert "Hive" not in html

    def test_write_report_creates_file(self, tmp_path, perf_json):
        out = tmp_path / "report.html"
        assert write_report(out, perf=perf_json) == out
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_custom_title_is_escaped(self, perf_json):
        html = build_report(perf=perf_json, title="<run> & report")
        assert "&lt;run&gt; &amp; report" in html
        assert "<title>&lt;run&gt; &amp; report</title>" in html
