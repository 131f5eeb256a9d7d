"""Hand-built trace records for the derivation unit tests."""


def attempt(job, phase, task, records_in=0, records_out=0, t0=0.0, t1=1.0,
            status="ok", attempt=0):
    return {
        "type": "span", "kind": "attempt", "name": phase, "job": job,
        "phase": phase, "task": task, "attempt": attempt, "t0": t0,
        "t1": t1, "status": status,
        "counters": {"records_in": records_in, "records_out": records_out},
    }


def flow(job, map_task, reducer, records, cuboids, at=1.0):
    return {
        "type": "event", "kind": "flow", "job": job, "phase": "map",
        "task": map_task, "at": at,
        "fields": {
            "reducer": reducer, "records": records, "bytes": 10 * records,
            "cuboids": {str(mask): n for mask, n in dict(cuboids).items()},
        },
    }


def event(kind, job=None, at=0.0, **fields):
    return {"type": "event", "kind": kind, "job": job, "at": at,
            "fields": fields}


def job_span(job, t0=0.0, t1=4.0, status="ok", **counters):
    return {
        "type": "span", "kind": "job", "name": job, "job": job, "t0": t0,
        "t1": t1, "status": status, "counters": counters,
    }


def job_records(reduces, flows=(), map_seconds=(), reduce_seconds=None,
                name="job", memory=10, t0=0.0, seconds=4.0, aborted=False):
    """One job execution as the engine would trace it, job span last.

    ``reduces`` is ``{reducer: records_in}``; ``flows`` a list of
    ``(map_task, reducer, records, cuboids)``; ``map_seconds`` /
    ``reduce_seconds`` give per-task durations (reduce default 1.0).
    """
    records = [
        attempt(name, "map", task, 1, 1, t0, t0 + duration)
        for task, duration in enumerate(map_seconds)
    ]
    records += [flow(name, *edge) for edge in flows]
    for index, (task, load) in enumerate(sorted(reduces.items())):
        duration = reduce_seconds[index] if reduce_seconds else 1.0
        records.append(
            attempt(name, "reduce", task, load, load, t0, t0 + duration)
        )
    records.append(job_span(
        name, t0, t0 + seconds, "aborted" if aborted else "ok",
        num_reducers=len(reduces), map_tasks=len(map_seconds),
        memory_records=memory,
    ))
    return records


def feed(sink, records):
    """Write ``records`` to ``sink``; returns everything it handed back."""
    derived = []
    for record in records:
        derived.extend(sink.write(record) or ())
    return derived
