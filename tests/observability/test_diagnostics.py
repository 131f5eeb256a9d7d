"""The cube doctor: sketch audits, corruption detection, load attribution."""

import json

import pytest

from repro.analysis import paper_cluster
from repro.core import SPCube, build_exact_sketch
from repro.observability import (
    audit_sketch,
    format_doctor_markdown,
    run_doctor,
)
from repro.observability.diagnostics import (
    BALANCE_TOLERANCE,
    balance_stats,
    confusion_stats,
)

from ..conftest import make_random_relation

K = 4  # partitions/machines used throughout
M = 40  # skew threshold


@pytest.fixture(scope="module")
def report():
    """One small doctor run, SP-Cube only, shared by the report tests."""
    return run_doctor(
        rows=600,
        machines=K,
        engines=["spcube"],
        binomial_skews=[0.4],
        zipf_exponents=[1.3],
        seed=3,
    )


def plain_relation(n=400, seed=5):
    """No planted skew: only wide groups (apex, level 1) cross ``m``."""
    return make_random_relation(n, cardinality=5, seed=seed)


def skewed_relation(n=400, seed=7):
    """Half the rows collapse onto the (1,1,1) pattern — heavy skew."""
    return make_random_relation(n, cardinality=5, seed=seed,
                                skew_fraction=0.5)


class TestConfusionAndBalance:
    def test_confusion_rates(self):
        confusion = confusion_stats(
            true_positives=6, false_positives=2, false_negatives=2
        )
        assert confusion["precision"] == pytest.approx(0.75)
        assert confusion["recall"] == pytest.approx(0.75)
        assert confusion["f1"] == pytest.approx(0.75)

    def test_empty_confusion_is_perfect(self):
        confusion = confusion_stats()
        assert confusion["precision"] == 1.0
        assert confusion["recall"] == 1.0

    def test_balance_stats(self):
        balance = balance_stats([100, 100, 100, 100], 100.0, 140.0)
        assert balance["imbalance"] == pytest.approx(1.0)
        assert balance["gini"] == pytest.approx(0.0)
        lopsided = balance_stats([400, 0, 0, 0], 100.0, 140.0)
        assert lopsided["imbalance"] == pytest.approx(4.0)
        assert lopsided["gini"] > 0.5
        assert lopsided["max_load"] == 400


class TestAuditOnExactSketch:
    def test_exact_sketch_is_healthy(self):
        rel = plain_relation()
        sketch = build_exact_sketch(rel, K, M)
        audit = audit_sketch(rel, sketch, M)
        assert audit["overall"]["precision"] == 1.0
        assert audit["overall"]["recall"] == 1.0
        assert audit["theory"]["traffic_within_worst_case"]
        assert audit["theory"]["false_negatives_within_bound"]
        assert audit["theory"]["false_positives_within_bound"]
        assert audit["problems"] == []
        assert audit["healthy"]

    def test_audit_serializes_to_json(self):
        rel = plain_relation()
        audit = audit_sketch(rel, build_exact_sketch(rel, K, M), M)
        payload = json.loads(json.dumps(audit))
        assert payload["healthy"] is True
        assert payload["overall"]["f1"] == 1.0
        assert payload["sketch"]["num_partitions"] == K
        assert len(payload["cuboids"]) == 8  # 2^3 lattice nodes

    def test_sampled_sketch_bounds_hold(self):
        """The real Algorithm 2 sketch stays within the Chernoff bands."""
        rel = skewed_relation()
        cluster = paper_cluster(len(rel), num_machines=K)
        run = SPCube(cluster).compute(rel)
        audit = audit_sketch(rel, run.sketch, cluster.derive_memory(len(rel)))
        assert audit["theory"]["false_negatives_within_bound"]
        assert audit["theory"]["traffic_within_worst_case"]


class TestCorruptionDetection:
    """The acceptance test: a deliberately corrupted sketch is caught."""

    def _corrupted(self):
        # A mostly-uniform relation: every 1-dim group holds ~160 tuples
        # (far above m = 40), and the full cuboid's 800 tuples are all
        # non-skewed — lots of rangeable mass for the balance check.
        rel = plain_relation(n=800)
        sketch = build_exact_sketch(rel, K, M)
        d = rel.schema.num_dimensions
        full = (1 << d) - 1
        # Plant a false negative: erase the ~160-tuple group (1,) from
        # cuboid 0b001 — essentially impossible to miss by sampling luck.
        # No surviving skewed group projects onto it, so this corrupts
        # the classification alone (no monotonicity/planner side effects).
        assert (1,) in sketch.cuboids[0b001].skewed
        del sketch.cuboids[0b001].skewed[(1,)]
        # Unbalance the full cuboid: collapse its partition elements onto
        # a sentinel below every real group, funnelling all 800 tuples
        # into the last partition — far past the 2x (n/k + m) ceiling.
        sketch.cuboids[full].partition_elements = [(-1,) * d] * (K - 1)
        return rel, sketch, full

    def test_planted_false_negative_is_flagged(self):
        rel, sketch, _full = self._corrupted()
        audit = audit_sketch(rel, sketch, M)
        assert not audit["healthy"]
        cuboid = audit["cuboids"][str(0b001)]
        assert cuboid["confusion"]["false_negatives"] == 1
        assert cuboid["confident_false_negatives"] == [[1]]
        assert any(
            "group (1,) missing from the sketch" in p
            for p in audit["problems"]
        )

    def test_unbalanced_partitions_are_flagged(self):
        rel, sketch, full = self._corrupted()
        audit = audit_sketch(rel, sketch, M)
        balance = audit["cuboids"][str(full)]["balance"]
        assert balance["max_load"] > BALANCE_TOLERANCE * balance["promised"]
        assert any("unbalanced partitions" in p for p in audit["problems"])

    def test_monotonicity_corruption_is_flagged(self):
        rel = skewed_relation()
        sketch = build_exact_sketch(rel, K, M)
        # Erase a *child* of surviving skewed groups: monotonicity breaks.
        del sketch.cuboids[0b001].skewed[(1,)]
        audit = audit_sketch(rel, sketch, M)
        assert audit["problems"][0].startswith("skew monotonicity violated")
        assert not audit["healthy"]


class TestAttributionBlock:
    """The report's attribution block, read from SP-Cube's debug trace."""

    def test_prediction_matches_trace_exactly(self, report):
        """Fault-free run: the sketch's routing IS the trace's delivery."""
        for entry in report["datasets"]:
            attribution = entry["attribution"]
            assert attribution["matches"] is True
            assert attribution["mismatches"] == []
            assert attribution["num_reducers"] == K + 1
            assert attribution["predicted"] == attribution["actual"]
            assert sorted(attribution["predicted"], key=int) == [
                str(r) for r in range(K + 1)
            ]

    def test_predicted_totals_are_consistent(self, report):
        for entry in report["datasets"]:
            attribution = entry["attribution"]
            predicted = attribution["predicted"]
            # Per-cuboid breakdown re-sums to the per-reducer totals.
            for reducer, masks in attribution["by_cuboid"].items():
                assert sum(masks.values()) == predicted[reducer]
            # Reducer 0 carries only skew flushes.
            assert predicted["0"] == sum(
                attribution["skew_by_cuboid"].values()
            )


class TestDoctorDriver:
    def test_doctor_report_and_markdown(self, report):
        assert report["healthy"] is True
        assert report["config"]["balance_tolerance"] == 2.0
        assert len(report["datasets"]) == 2
        for entry in report["datasets"]:
            assert entry["audit"]["overall"]["recall"] == 1.0
            assert entry["attribution"]["matches"] is True
        json.dumps(report)  # JSON-able end to end
        markdown = format_doctor_markdown(report)
        assert "## Sketch accuracy" in markdown
        assert "## Reducer load attribution" in markdown
        assert "binomial(p=0.4)" in markdown
        assert "zipf(s=1.3)" in markdown

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            run_doctor(rows=100, engines=["spark"])
