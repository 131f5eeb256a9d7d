"""The online skew/straggler watchdog — typed runtime alerts per round.

The SP-Sketch makes its partitioning decisions *before* round 2 runs;
the cube doctor (PR 4) audits them *after* the run.  This module closes
the gap the ISSUE's motivating papers (SharesSkew, the marginal-cube
work) treat as first-class: detecting, **while the run is in flight**,
that a reducer is drifting past the load the theory promised, and saying
which cuboid put it there.

The watchdog is a trace sink (see :mod:`repro.observability.tracer`):
it assembles each job's task rows and flow edges from the records that
precede the job's span (:class:`~repro.observability.lineage.JobAssembler`),
inspects the job when that span arrives, and hands its alerts back to
the tracer as ordinary events.  What it can check follows from the trace
level: reducer loads and task durations need ``task``-level attempt
spans, per-cuboid loads need ``debug``-level ``flow`` events.  Three
typed alerts:

``skew_alert``
    A reducer's delivered records exceed ``tolerance`` times the
    Prop 4.2(2) band ``n/k + m``, with ``n``/``k`` the job's *observed*
    reduce totals and ``m`` the configured reducer memory.  For jobs
    with a sketch promise (SP-Cube's round 2) the skew reducer 0 is
    exempt — it is *supposed* to absorb the heavy groups — and the band
    uses the ranged reducers only.

``misannotation_alert``
    Only for promised jobs: a value-partitioned (ranged) cuboid put
    more than ``tolerance × (n/k + m)`` records on one reducer — it is
    behaving like a batch cuboid, i.e. the sketch missed a skewed group
    and range-routed it whole.  Named per cuboid so the operator can
    jump straight to ``explain-group``.

``straggler_alert``
    A task's (simulated) duration exceeds ``factor`` times the
    median of its phase — the attempt-duration-quantile rule, guarded by
    a minimum task count so tiny phases cannot alarm.

The sketch's promise reaches the watchdog the way everything else does,
as a record: SP-Cube's ``sketch`` event carries ``promise = {job, n, k,
m}`` and, at ``debug`` level, the ``predicted`` per-reducer loads.  For
those the watchdog also retains the predicted-vs-observed comparison
(:attr:`Watchdog.comparisons`); on a fault-free run the deltas are all
zero.  The cube doctor reads its load attribution from it.

The thresholds are the module constants below; each alert carries the
one it was checked against (``tolerance`` or ``factor``).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Optional

from ..theory.bounds import load_band
from .lineage import JobAssembler
from .schema import ALERT_KINDS  # noqa: F401  (re-exported)

#: Multiple of the ``n/k + m`` band a reducer (or a cuboid's flow into
#: one reducer) may reach before alerting; the doctor's partition check
#: uses the same 2x (its ``BALANCE_TOLERANCE``).
SKEW_TOLERANCE = 2.0

#: Multiple of the phase-median task duration that flags a straggler.
STRAGGLER_FACTOR = 3.0

#: Phases with fewer tasks than this are never straggler-checked.
MIN_STRAGGLER_TASKS = 4


class Watchdog:
    """Compare observed shuffle flows against the theory, per round."""

    def __init__(self):
        #: Every alert event emitted, in order.
        self.alerts: List[Dict] = []
        #: Per promised job: predicted/observed/delta reducer loads.
        self.comparisons: Dict[str, Dict] = {}
        self._promises: Dict[str, Dict] = {}
        self._assembler = JobAssembler()

    def write(self, record: Dict) -> Optional[List[Dict]]:
        """Consume one trace record; a ``job`` span returns its alerts.

        Aborted executions are counted (so execution indices track
        re-executed rounds) but never inspected — their flows are partial
        by definition.
        """
        if record.get("kind") == "sketch":
            promise = record["fields"].get("promise")
            if promise:
                self._promises[promise["job"]] = promise
            return None
        job = self._assembler.write(record)
        if job is None or job["aborted"]:
            return None
        promise = self._promises.get(job["job"])
        alerts: List[Dict] = []

        def alert(kind: str, **fields) -> None:
            alerts.append({
                "type": "event", "kind": kind, "at": job["t1"],
                "job": job["job"],
                "fields": {"execution": job["execution"], **fields},
            })

        self._check_skew(job, promise, alert)
        if promise is not None:
            self._check_misannotation(job, promise, alert)
            if "predicted" in promise:
                self._record_comparison(job, promise)
        self._check_stragglers(job, alert)
        self.alerts.extend(alerts)
        return alerts

    # -- checks --------------------------------------------------------------

    def _check_skew(self, job, promise, alert) -> None:
        """Observed per-reducer records vs the ``n/k + m`` band."""
        reduces = job["reduces"]
        if promise is not None:
            # Reducer 0 absorbs the sketch-flagged skewed groups by
            # design; the Prop 4.2(2) promise covers the ranged ones.
            reduces = [task for task in reduces if task["task"] != 0]
        if not reduces:
            return
        n_observed = sum(task["records_in"] for task in reduces)
        k_active = len(reduces)
        bound = load_band(n_observed, k_active, job["memory_records"])
        ceiling = SKEW_TOLERANCE * bound
        for task in reduces:
            observed = task["records_in"]
            if observed > ceiling:
                alert(
                    "skew_alert",
                    reducer=task["task"],
                    observed=observed,
                    bound=round(bound, 2),
                    ratio=round(observed / bound, 2),
                    tolerance=SKEW_TOLERANCE,
                )

    def _check_misannotation(self, job, promise, alert) -> None:
        """Per-cuboid flow into one ranged reducer vs its own band."""
        loads: Dict[int, Dict[int, int]] = {}
        for flow in job["flows"]:
            reducer = flow["reducer"]
            if reducer == 0:
                continue
            for mask, count in flow["cuboids"].items():
                per_reducer = loads.setdefault(int(mask), {})
                per_reducer[reducer] = per_reducer.get(reducer, 0) + count
        bound = promise["n"] / promise["k"] + promise["m"]
        ceiling = SKEW_TOLERANCE * bound
        for mask in sorted(loads):
            for reducer in sorted(loads[mask]):
                observed = loads[mask][reducer]
                if observed > ceiling:
                    alert(
                        "misannotation_alert",
                        cuboid=mask,
                        reducer=reducer,
                        observed=observed,
                        bound=round(bound, 2),
                        ratio=round(observed / bound, 2),
                        tolerance=SKEW_TOLERANCE,
                    )

    def _check_stragglers(self, job, alert) -> None:
        """Winning-attempt durations vs the phase median."""
        for phase, tasks in (
            ("map", job["maps"]),
            ("reduce", job["reduces"]),
        ):
            if len(tasks) < MIN_STRAGGLER_TASKS:
                continue
            typical = median(task["seconds"] for task in tasks)
            if typical <= 0:
                continue
            ceiling = STRAGGLER_FACTOR * typical
            for task in tasks:
                if task["seconds"] > ceiling:
                    alert(
                        "straggler_alert",
                        phase=phase,
                        task=task["task"],
                        seconds=round(task["seconds"], 9),
                        median_seconds=round(typical, 9),
                        ratio=round(task["seconds"] / typical, 2),
                        factor=STRAGGLER_FACTOR,
                    )

    def _record_comparison(self, job, promise) -> None:
        """Retain predicted vs observed loads for post-run attribution."""
        predicted = {
            int(reducer): load
            for reducer, load in promise["predicted"].items()
        }
        observed = {task["task"]: task["records_in"] for task in job["reduces"]}
        reducers = sorted(
            set(predicted) | set(observed) | set(range(job["num_reducers"]))
        )
        self.comparisons[job["job"]] = {
            "execution": job["execution"],
            "predicted": predicted,
            "observed": observed,
            "deltas": {
                reducer: observed.get(reducer, 0) - predicted.get(reducer, 0)
                for reducer in reducers
            },
        }
