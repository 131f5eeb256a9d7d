"""Smoke test of the benchmark suite at ``--quick`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Checks the suite against its own declaration (``BENCHMARK.json``): every
workload runs, every declared metric is emitted under a well-formed
name, inputs are a pure function of the seed, and a wrong answer is
counted and fails the command.  The numbers themselves mean nothing at
these sizes.
"""

import json
import pathlib
import re
import sys

import pytest

SUITE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE))

import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_declaration_matches_the_suite():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for workload in DECLARED["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    names = [
        m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload, capsys):
    code = run.main(["--workload", workload, "--quick", "--seconds", "0.5"])
    result = last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {
        m["name"] for m in DECLARED["end_to_end"]
    }
    for metric in DECLARED["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0


@pytest.mark.parametrize("workload", ["build-dense", "serve-hot"])
def test_every_per_layer_metric_is_emitted(workload, capsys):
    code = run.main(
        ["--workload", workload, "--quick", "--seconds", "0.5",
         "--trace", "1"]
    )
    result = last_json(capsys)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {
        m["name"] for m in DECLARED["per_layer"]
    }
    missing = [k for k, v in result["metrics"].items() if v["value"] is None]
    assert not missing, f"probes degraded to null: {missing}"
    trace = json.loads((run.OUT / f"trace-{workload}.json").read_text())
    assert {"id", "parent", "name", "start", "end", "counts"} <= set(
        trace["spans"][0]
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    def digests(seed):
        inputs = make_inputs(
            WORKLOADS[workload], seed, str(tmp_path / f"{seed}.tsv"), 300
        )
        return inputs.tsv_digest, inputs.pool_digest

    assert digests(600) == digests(600)
    first, other = digests(600), digests(601)
    assert first[0] != other[0] and first[1] != other[1]


def test_a_wrong_answer_is_counted_and_fails(monkeypatch, capsys):
    honest = run.expected_body

    def planted(view, spec):
        body = honest(view, spec)
        return body + b" " if spec.get("op") == "rollup" else body

    monkeypatch.setattr(run, "expected_body", planted)
    code = run.main(["--workload", "serve-hot", "--quick", "--seconds", "0.5"])
    result = last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
