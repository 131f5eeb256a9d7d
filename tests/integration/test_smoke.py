"""Smoke checks through the real CLI: ``python -m repro`` in child
processes, the way a user runs it.

Each class is one end-to-end path: a fault-injected traced run, a
node-killed run resumed from checkpoints, one adversarial trace read by
every consumer, the cube doctor's strict audit, and a store built,
queried and served.  Marked ``smoke``, so tier-1 deselects them; CI's
``smoke`` job runs them all::

    PYTHONPATH=src python -m pytest -m smoke --basetemp=smoke-out

Each class writes its inputs, outputs and logs to one directory under
the base temp (``smoke-out/checkpoint`` and so on), which CI uploads.
"""

import contextlib
import hashlib
import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.smoke

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
#: ``python -X importtime`` lines naming a module a process may not load.
SERVER_NEVER_LOADS = re.compile(
    r"\| +(http\.(server|client)|email|_?ssl|_?hashlib)\b"
)


def repro_cli(cwd, *args, out=None):
    """Run ``python -m repro ARGS`` in ``cwd``; it must exit 0.  Returns
    its stdout, also written to ``cwd / out`` when given."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=cwd, env=ENV,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    if out:
        (cwd / out).write_text(result.stdout)
    return result.stdout


@pytest.fixture(scope="class")
def workdir(request, tmp_path_factory):
    """The class's one directory: its inputs, outputs and logs."""
    return tmp_path_factory.mktemp(request.cls.ARTIFACTS, numbered=False)


class TestTrace:
    ARTIFACTS = "trace"

    def test_fault_injected_compare_trace_passes_the_analyzer(self, workdir):
        repro_cli(workdir, "compare", "zipf", "--rows", "4000",
                  "--fault-seed", "7", "--trace", "trace.jsonl",
                  "--trace-level", "debug")
        repro_cli(workdir, "analyze-trace", "trace.jsonl")


class TestCheckpoint:
    """Fault seed 7 kills two of three nodes mid-run (CRC32 coins, the
    same on every machine): the MR-Cube run must complete by checkpoint
    resume, and the same run with ``--no-checkpoint`` must abort."""

    ARTIFACTS = "checkpoint"
    KILLS = ["--engine", "mrcube", "--machines", "6", "--num-nodes", "3",
             "--fault-seed", "7", "--node-crash-prob", "0.3"]

    @pytest.fixture(scope="class")
    def data(self, workdir):
        repro_cli(workdir, "generate", "zipf", "--rows", "3000",
                  "--seed", "9", "-o", "ckpt-data.tsv")
        return workdir

    @pytest.fixture(scope="class")
    def resumed(self, data):
        return repro_cli(data, "cube", "ckpt-data.tsv", *self.KILLS,
                         "--trace", "ckpt-trace.jsonl", out="ckpt-run.txt")

    def test_node_killed_run_resumes_from_checkpoints(self, workdir,
                                                      resumed):
        assert "round(s) resumed from checkpoint" in resumed
        assert "FAILED" not in resumed
        assert '"round_resume"' in (workdir / "ckpt-trace.jsonl").read_text()

    def test_same_kills_without_checkpointing_abort_the_run(self, data):
        out = repro_cli(data, "cube", "ckpt-data.tsv", *self.KILLS,
                        "--no-checkpoint", out="ckpt-abort.txt")
        assert "FAILED" in out
        assert "0 round(s) resumed" in out

    def test_trace_passes_the_analyzer(self, workdir, resumed):
        out = repro_cli(workdir, "analyze-trace", "ckpt-trace.jsonl",
                        out="ckpt-analysis.txt")
        assert "failure domains:" in out

    def test_doctor_passes_strict(self, workdir):
        repro_cli(workdir, "doctor", "--rows", "3000", "--machines", "6",
                  "--binomial-skews", "0.4", "--zipf-exponents", "1.1",
                  "--json", "ckpt-doctor.json",
                  "--markdown", "ckpt-doctor.md", "--strict")


class TestObservability:
    """One seeded adversarial run (heavy binomial skew, small reducer
    memory, injected task faults) writes one debug trace, and every
    consumer reads it: the analyzer counts the watchdog's skew alert,
    the exposition carries its families, both explain commands walk back
    to the hot reducer's cuboids and the run report carries its
    sections."""

    ARTIFACTS = "observability"

    @pytest.fixture(scope="class")
    def data(self, workdir):
        repro_cli(workdir, "generate", "binomial", "--rows", "1500",
                  "--skew", "0.9", "--seed", "11", "-o", "adversarial.tsv")
        return workdir

    @pytest.fixture(scope="class")
    def adversarial(self, data):
        return repro_cli(
            data, "cube", "adversarial.tsv", "--machines", "4",
            "--memory-records", "32", "--fault-seed", "7",
            "--trace", "adv.trace.jsonl", "--trace-level", "debug",
            out="adversarial-run.txt",
        )

    def test_sampled_and_exact_sketches_are_pinned(self, data):
        """A change to how the sketch is built may not move the sketch:
        these digests held before and after it became one sort per
        cuboid, under Python 3.11.7 and 3.12.1.  An intended sketch
        change edits both, reviewed."""
        repro_cli(data, "sketch", "adversarial.tsv", "--machines", "4",
                  "-o", "adv.sketch.json")
        repro_cli(data, "sketch", "adversarial.tsv", "--machines", "4",
                  "--exact", "-o", "adv.exact.sketch.json")
        digests = {
            name: hashlib.sha256((data / name).read_bytes()).hexdigest()
            for name in ("adv.sketch.json", "adv.exact.sketch.json")
        }
        assert digests == {
            "adv.sketch.json": "41be1e3d318a4ce9578339536cc1dbe3"
                               "0edd3971bb37b398694d487101a232e7",
            "adv.exact.sketch.json": "576ed5cba5351c73eb2fbd9cd87f8d3d"
                                     "0273664f65300b08c6e6f4870a6f8777",
        }

    def test_adversarial_run_writes_the_trace_and_alerts(self, adversarial):
        assert "trace written" in adversarial
        assert "skew_alert" in adversarial

    def test_alert_counts_survive_the_analyzer(self, workdir, adversarial):
        summary = json.loads(repro_cli(
            workdir, "analyze-trace", "adv.trace.jsonl", "--format", "json",
            out="adversarial-summary.json",
        ))
        assert summary["alerts"].get("skew_alert", 0) >= 1, summary["alerts"]

    def test_prometheus_exposition_carries_its_families(self, workdir,
                                                        adversarial):
        repro_cli(workdir, "metrics-export", "adv.trace.jsonl",
                  "-o", "metrics.prom")
        exposition = (workdir / "metrics.prom").read_text()
        assert "# TYPE repro_jobs_total counter" in exposition
        assert "repro_phase_seconds_bucket" in exposition
        assert "repro_watchdog_alerts_total" in exposition

    def test_explain_walks_back_to_the_hot_cuboid(self, workdir,
                                                  adversarial):
        reducer = repro_cli(workdir, "explain-reducer", "adv.trace.jsonl",
                            out="explain-reducer.md")
        assert "## Reducer" in reducer
        assert "Watchdog alerts" in reducer
        by_cuboid = json.loads(repro_cli(
            workdir, "explain-reducer", "adv.trace.jsonl", "--format", "json"
        ))["by_cuboid"]
        group = repro_cli(workdir, "explain-group", "adv.trace.jsonl",
                          "--cuboid", max(by_cuboid, key=by_cuboid.get),
                          out="explain-group.md")
        assert "## Cuboid" in group

    def test_run_report_carries_every_section(self, workdir, adversarial):
        repro_cli(workdir, "report", "--trace", "adv.trace.jsonl",
                  "--recovery-json", str(ROOT / "BENCH_recovery.json"),
                  "--title", "observability-smoke", "-o", "report.md")
        lines = (workdir / "report.md").read_text().splitlines()
        assert "## Lineage & alerts" in lines
        assert any("skew_alert" in line for line in lines)
        assert any("repro_watchdog_alerts_total" in line for line in lines)
        assert any(
            line.startswith(
                "| engine  | p    | time(s) | overhead(s) | slowdown"
            )
            for line in lines
        )

    def test_trace_overhead_stays_in_budget(self, workdir):
        """The tracer off vs on per level (best of 3 on 20,000 rows), and
        the disabled path's guard.  The ratios are smoke budgets: debug
        classifies every shuffled key to its cuboid, so its budget only
        catches order-of-magnitude blowups; the guard floor asserts the
        disabled path stays a bare attribute check."""
        twin = subprocess.run(
            [sys.executable, "-c",
             "import json\n"
             "from telemetry_overhead import (\n"
             "    measure_trace_overhead, null_guard_floor)\n"
             "report = {level: measure_trace_overhead(\n"
             "              level, rows=20000, repeats=3)\n"
             "          for level in ('task', 'debug')}\n"
             "report['null_floor'] = null_guard_floor()\n"
             "print(json.dumps(report, indent=2))"],
            cwd=workdir, capture_output=True, text=True, timeout=600,
            env={**ENV,
                 "PYTHONPATH": os.pathsep.join([str(SRC),
                                                str(ROOT / "benchmarks")])},
        )
        assert twin.returncode == 0, twin.stderr
        (workdir / "trace-overhead.json").write_text(twin.stdout)
        report = json.loads(twin.stdout)
        assert report["task"]["metric_families"] > 0
        assert report["task"]["overhead_ratio"] < 1.05, report["task"]
        assert report["debug"]["flows"] > 0
        assert report["debug"]["overhead_ratio"] < 2.0, report["debug"]
        assert report["null_floor"]["guard_ns_per_check"] < 1000, (
            report["null_floor"]
        )


class TestDoctor:
    ARTIFACTS = "doctor"

    def test_binomial_and_zipf_sweep_passes_strict(self, workdir):
        """Skew precision and recall against the exact sketch, the
        Chernoff bounds, partition balance, SP-Cube's trace-vs-sketch
        load attribution and all four engines side by side: ``--strict``
        exits non-zero on any finding."""
        repro_cli(workdir, "doctor", "--rows", "4000", "--machines", "8",
                  "--binomial-skews", "0.1", "0.4",
                  "--zipf-exponents", "1.1", "1.6",
                  "--json", "doctor-report.json",
                  "--markdown", "doctor-report.md", "--strict")


@contextlib.contextmanager
def serve_cube(cwd, log, *flags, python=()):
    """``python PYTHON -m repro serve-cube serve.store --port 0 FLAGS``
    with its output in ``cwd / log``: yields its base URL and process,
    and kills it on the way out."""
    with open(cwd / log, "w") as handle:
        server = subprocess.Popen(
            [sys.executable, *python, "-m", "repro", "serve-cube",
             "serve.store", "--port", "0", *flags],
            cwd=cwd, env=ENV, stdout=handle, stderr=subprocess.STDOUT,
        )
    try:
        for _ in range(300):
            banner = re.search(
                r"http://127\.0\.0\.1:\d+", (cwd / log).read_text()
            )
            if banner or server.poll() is not None:
                break
            time.sleep(0.1)
        assert banner, (cwd / log).read_text()
        yield banner.group(0), server
    finally:
        server.kill()
        server.wait()


def connect(url):
    return http.client.HTTPConnection(url[len("http://"):], timeout=30)


class TestServing:
    """The store path end to end: build a cube, write the store, answer
    a one-shot query from it, then serve it.  The measured served path
    is the benchmark suite's."""

    ARTIFACTS = "serving"

    @pytest.fixture(scope="class")
    def store(self, workdir):
        repro_cli(workdir, "generate", "binomial", "--rows", "5000",
                  "--seed", "11", "-o", "serve-data.tsv")
        return repro_cli(workdir, "cube", "serve-data.tsv",
                         "--engine", "spcube", "--store", "serve.store",
                         out="serve-build.txt")

    def test_cube_writes_a_store_that_opens(self, workdir, store):
        from repro.serving import CubeStore

        assert "wrote cube store" in store
        with CubeStore.open(str(workdir / "serve.store")) as opened:
            print(f"store bytes per group: "
                  f"{opened.store_bytes / opened.total_groups:.3f}")

    def test_served_process_holds_no_http_client_mime_or_tls(self, workdir,
                                                             store):
        """``serve-cube`` reads its own socket (socketserver, not
        http.server, which pulls in http.client, ssl, email and
        mimetypes) and hashes with _blake2.  The whole serving closure is
        imported before the banner, so the ``-X importtime`` log, read
        after one request, names none of them.  VmHWM is kept for the
        record."""
        with serve_cube(workdir, "serve-imports.log",
                        python=("-X", "importtime")) as (url, server):
            healthz = subprocess.run(
                ["curl", "-sS", f"{url}/healthz"],
                capture_output=True, text=True, timeout=60,
            )
            assert healthz.stdout == '{"ok": true}', healthz
            status = Path(f"/proc/{server.pid}/status").read_text()
            (workdir / "serve-vmhwm.txt").write_text(
                re.search(r"^VmHWM:.*$", status, re.M).group(0)
            )
        loaded = SERVER_NEVER_LOADS.findall(
            (workdir / "serve-imports.log").read_text()
        )
        assert loaded == []

    def test_one_shot_query_answers_from_the_store(self, workdir, store):
        out = repro_cli(workdir, "query", "serve.store", '{"op": "total"}',
                        out="serve-query.txt")
        assert "5000" in out.splitlines()  # count over 5,000 rows

    def test_served_queries_share_one_kept_alive_connection(self, workdir,
                                                            store):
        """Two totals, one rollup twice (byte-equal bodies: the second is
        the cached reply), one body nested too deep to parse (a JSON 400
        that keeps the connection) and one malformed-length request on
        one connection: the malformed one is a JSON 400 and closes it,
        so /stats, on a second connection, counts exactly two."""
        with serve_cube(workdir, "serve-server.log") as (url, _server):
            conn = connect(url)

            def ask(method, path, body=None, headers={}):
                conn.request(method, path, body=body, headers=headers)
                reply = conn.getresponse()
                return reply.status, json.loads(reply.read())

            total = json.dumps({"op": "total"})
            for _ in range(2):
                assert ask("POST", "/query", total) == (
                    200, {"ok": True, "result": 5000}
                )
            rollup = json.dumps({"op": "rollup", "dimensions": ["a1"]})
            bodies = []
            for _ in range(2):
                conn.request("POST", "/query", body=rollup)
                reply = conn.getresponse()
                bodies.append((reply.status, reply.read()))
            assert bodies[0] == bodies[1] and bodies[0][0] == 200, bodies
            status, body = ask(
                "POST", "/query", b"[" * 100000 + b"]" * 100000
            )
            assert status == 400 and body["retriable"] is False, (status,
                                                                  body)
            status, body = ask(
                "POST", "/query", headers={"Content-Length": "abc"}
            )
            assert status == 400 and body["retriable"] is False, (status,
                                                                  body)
            stats = ask("GET", "/stats")[1]
        counters = stats["counters"]
        assert counters["serving.connections"] == 2, counters
        assert counters["serving.bad_requests"] == 1, counters
        assert counters["serving.cache_hit"] >= 1, counters
        assert stats["result_cache"]["entries"] >= 1, stats

    def test_reloaded_segments_answer_the_same_bytes(self, workdir, store):
        """One segment and one result slot: two drilldowns on different
        cuboids, alternated, reload their segment on every request.  The
        first load of each runs the row checks, every reload skips them
        (its bytes' digest is the verified one), and each reply must
        still be that spec's first reply, byte for byte."""
        specs = [
            json.dumps({"op": "drilldown", "group": {"a3": "10"},
                        "into": "a1"}),
            json.dumps({"op": "drilldown", "group": {"a4": "10"},
                        "into": "a2"}),
        ]
        first = {}
        with serve_cube(workdir, "serve-reload.log", "--segment-cache", "1",
                        "--result-cache", "1") as (url, _server):
            conn = connect(url)
            for _ in range(20):
                for spec in specs:
                    conn.request("POST", "/query", body=spec)
                    reply = conn.getresponse()
                    body = reply.read()
                    assert reply.status == 200, (reply.status, body)
                    assert body == first.setdefault(spec, body), spec
            conn.request("GET", "/stats")
            counters = json.loads(conn.getresponse().read())["counters"]
        assert all(json.loads(body)["result"] for body in first.values())
        assert counters["serving.segment_load"] >= 40, counters

    def test_curl_gets_the_bytes_http_client_gets(self, workdir, store):
        """A client other than http.client frames its requests its own
        way: HTTP/1.0, a lowercase content-type header, and a >1 KiB body
        (the spec padded with JSON whitespace) sent only after the
        server's interim "100 Continue".  Each answer must be the same
        query's http.client answer, byte for byte."""
        rollup = json.dumps({"op": "rollup", "dimensions": ["a1", "a2"]})
        padded = workdir / "rollup-padded.json"
        padded.write_text(rollup + " " * 1100)
        assert padded.stat().st_size > 1024
        with serve_cube(workdir, "serve-curl.log") as (url, _server):
            conn = connect(url)
            for name, body in [("total", '{"op": "total"}'),
                               ("rollup", rollup)]:
                conn.request("POST", "/query", body=body)
                reply = conn.getresponse()
                assert reply.status == 200, reply.status
                (workdir / f"http-client-{name}.json").write_bytes(
                    reply.read()
                )

            def curl(*args, log=None):
                result = subprocess.run(
                    ["curl", "-sS", "-w", "%{http_code}",
                     "-H", "content-type: application/json", *args,
                     f"{url}/query"],
                    cwd=workdir, capture_output=True, text=True, timeout=60,
                )
                if log:
                    (workdir / log).write_text(result.stderr)
                return result.stdout

            assert curl("--http1.0", "-o", "curl-total.json",
                        "--data-binary", '{"op": "total"}') == "200"
            assert curl("-v", "-o", "curl-rollup.json",
                        "-H", "Expect: 100-continue",
                        "--data-binary", "@rollup-padded.json",
                        log="curl-rollup.log") == "200"
        assert "< HTTP/1.1 100 Continue" in (
            workdir / "curl-rollup.log"
        ).read_text()
        for name in ("total", "rollup"):
            assert (workdir / f"curl-{name}.json").read_bytes() == (
                workdir / f"http-client-{name}.json"
            ).read_bytes(), name
