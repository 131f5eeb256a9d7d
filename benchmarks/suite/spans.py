"""In-memory span recorder for the suite's traced pass.

Spans are taken from the suite's own files, around calls into each
layer's public functions; nothing inside ``src/`` is instrumented.  A
span is ``{"id", "parent", "name", "start", "end", "counts"}`` with
``start``/``end`` on ``time.perf_counter`` — the system-wide monotonic
clock on Linux, so spans recorded in a build child line up with the
parent's.  Spans stay in memory until the run ends; a disabled tracer
hands out throwaway count dicts, so call sites read the same with
tracing off.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Optional[int] = None, **counts
    ) -> Iterator[Dict]:
        """Record one span; yields its ``counts`` dict for late additions.

        ``parent`` defaults to the innermost open span of the calling
        thread; client threads pass the id of the span that started them.
        """
        if not self.enabled:
            yield counts
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": parent if parent is not None else (
                stack[-1] if stack else None
            ),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        stack.append(span_id)
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def current(self) -> Optional[int]:
        """Id of the calling thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def adopt(self, spans: List[Dict], parent: Optional[int]) -> None:
        """Graft spans recorded by another process under ``parent``."""
        if not self.enabled:
            return
        with self._lock:
            mapping = {span["id"]: next(self._ids) for span in spans}
            for span in spans:
                self.spans.append({
                    **span,
                    "id": mapping[span["id"]],
                    "parent": mapping.get(span["parent"], parent),
                })


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part its direct
    children cover.  Spans of one thread nest and never overlap; the
    clients' request spans do overlap each other, carry
    ``concurrent`` in their counts, and are left out of their parent's
    cover (the parent only waits for them).
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None and not span["counts"].get("concurrent"):
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
