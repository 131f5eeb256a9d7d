"""The online watchdog: typed alert events from hand-built job records."""

from repro.observability import ALERT_KINDS, Watchdog

from .trace_records import event, feed, job_records


def promise(watchdog, **fields):
    """Deliver a sketch promise for job ``"job"`` the way SP-Cube does."""
    watchdog.write(event("sketch", promise={"job": "job", **fields}))


def inspect(watchdog, reduces, **job):
    return feed(watchdog, job_records(reduces, **job))


class TestSkew:
    def test_balanced_job_stays_quiet(self):
        assert inspect(Watchdog(), {0: 10, 1: 11, 2: 9}) == []

    def test_hot_reducer_fires_with_band_fields(self):
        # n=120 over k=3 → band 40+10=50, ceiling 100; reducer 2 is 110.
        alerts = inspect(Watchdog(), {0: 5, 1: 5, 2: 110})
        assert [a["kind"] for a in alerts] == ["skew_alert"]
        alert = alerts[0]
        assert alert["fields"] == {
            "execution": 0, "reducer": 2, "observed": 110, "bound": 50.0,
            "ratio": 2.2, "tolerance": 2.0,
        }
        assert alert["at"] == 4.0
        assert alert["type"] == "event" and alert["job"] == "job"

    def test_expectation_exempts_skew_reducer_zero(self):
        watchdog = Watchdog()
        promise(watchdog, n=30, k=2, m=10)
        # Reducer 0 is huge but is the designated skew reducer; the
        # ranged reducers 1..2 are balanced (band 15+10).
        assert inspect(watchdog, {0: 500, 1: 15, 2: 15}) == []


class TestMisannotation:
    def test_requires_an_expectation(self):
        alerts = inspect(
            Watchdog(), {0: 5, 1: 200}, flows=[(0, 1, 200, {7: 200})]
        )
        assert "misannotation_alert" not in [a["kind"] for a in alerts]

    def test_ranged_cuboid_over_band_is_named(self):
        watchdog = Watchdog()
        promise(watchdog, n=40, k=2, m=10)
        # Band 40/2+10=30, ceiling 60; cuboid 7 drops 100 on reducer 1.
        alerts = [
            a["fields"] for a in inspect(
                watchdog, {0: 5, 1: 105, 2: 5},
                flows=[(0, 1, 100, {7: 100}), (0, 1, 5, {3: 5}),
                       (0, 0, 5, {7: 5})],
            )
            if a["kind"] == "misannotation_alert"
        ]
        assert len(alerts) == 1
        assert alerts[0]["cuboid"] == 7
        assert alerts[0]["reducer"] == 1
        assert alerts[0]["observed"] == 100
        # Flows into the skew reducer 0 never count against the band.


class TestStragglers:
    def test_needs_minimum_task_count(self):
        # 3 < MIN_STRAGGLER_TASKS
        assert inspect(Watchdog(), {0: 10, 1: 10, 2: 10},
                       reduce_seconds=[1.0, 1.0, 30.0]) == []

    def test_slow_task_over_three_times_median_fires(self):
        alerts = inspect(Watchdog(), {i: 10 for i in range(4)},
                         reduce_seconds=[1.0, 1.0, 1.0, 3.5])
        assert [a["kind"] for a in alerts] == ["straggler_alert"]
        assert alerts[0]["fields"]["phase"] == "reduce"
        assert alerts[0]["fields"]["task"] == 3
        assert alerts[0]["fields"]["ratio"] == 3.5

    def test_map_phase_checked_too(self):
        alerts = inspect(Watchdog(), {0: 10},
                         map_seconds=[1.0, 1.0, 10.0, 1.0])
        assert [
            (a["kind"], a["fields"]["phase"], a["fields"]["task"])
            for a in alerts
        ] == [("straggler_alert", "map", 2)]


class TestLifecycle:
    def test_aborted_executions_counted_but_not_inspected(self):
        watchdog = Watchdog()
        assert inspect(watchdog, {0: 5, 1: 5, 2: 110}, aborted=True) == []
        alerts = inspect(watchdog, {0: 5, 1: 5, 2: 110})
        # The aborted run consumed execution 0; the retry is execution 1.
        assert alerts[0]["fields"]["execution"] == 1

    def test_clock_advances_alert_timestamps(self):
        """Alerts are stamped with their job span's end on the one clock."""
        alerts = inspect(Watchdog(), {0: 5, 1: 5, 2: 110},
                         t0=10.0, seconds=2.0)
        assert alerts[0]["at"] == 12.0

    def test_alert_kinds_are_the_public_taxonomy(self):
        watchdog = Watchdog()
        promise(watchdog, n=40, k=2, m=10)
        alerts = inspect(
            watchdog, {0: 5, 1: 205, 2: 5, 3: 5},
            flows=[(0, 1, 200, {7: 200})],
            reduce_seconds=[1.0, 50.0, 1.0, 1.0],
        )
        assert [a["kind"] for a in alerts] == list(ALERT_KINDS)
        assert watchdog.alerts == alerts

    def test_comparison_spans_the_reducer_union(self):
        watchdog = Watchdog()
        promise(watchdog, n=30, k=2, m=10,
                predicted={"0": 4, "1": 16, "2": 10})
        inspect(watchdog, {0: 4, 1: 18, 2: 8})
        comparison = watchdog.comparisons["job"]
        assert comparison["observed"] == {0: 4, 1: 18, 2: 8}
        assert comparison["deltas"] == {0: 0, 1: 2, 2: -2}
        assert comparison["execution"] == 0

    def test_own_alerts_are_ignored_on_replay(self):
        """A recorded stream carries the alerts; replaying it must not
        count them as input (live == replay)."""
        watchdog, replayed = Watchdog(), Watchdog()
        records = job_records({0: 5, 1: 5, 2: 110})
        alerts = feed(watchdog, records)
        feed(replayed, records + alerts)
        assert replayed.alerts == alerts
