"""Per-series access to a telemetry sample timeline.

:class:`TimelineAnalysis` indexes the samples of a
:class:`~repro.observability.telemetry.Telemetry` (live, or replayed
from a trace file) and answers the questions the HTML report asks of
them: which series exist, their per-label-set points and their extrema.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class TimelineAnalysis:
    """Index a list of ``{series, t, value[, labels]}`` samples."""

    def __init__(self, samples: List[Dict]):
        self.samples = list(samples)
        self._by_series: Dict[str, List[Dict]] = {}
        for sample in self.samples:
            self._by_series.setdefault(sample["series"], []).append(sample)

    # -- access --------------------------------------------------------

    def series_names(self) -> List[str]:
        return sorted(self._by_series)

    def series(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> List[Dict]:
        """Samples of one series (optionally exact-matching ``labels``),
        in emission order (non-decreasing logical time)."""
        samples = self._by_series.get(name, [])
        if labels is None:
            return list(samples)
        want = {str(k): str(v) for k, v in labels.items()}
        return [s for s in samples if s.get("labels", {}) == want]

    def points(self, name: str,
               labels: Optional[Dict[str, str]] = None
               ) -> List[Tuple[float, float]]:
        """``(t, value)`` pairs of one series."""
        return [(s["t"], s["value"]) for s in self.series(name, labels)]

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        """The distinct label sets a series was sampled with."""
        seen, out = set(), []
        for sample in self._by_series.get(name, []):
            key = tuple(sorted(sample.get("labels", {}).items()))
            if key not in seen:
                seen.add(key)
                out.append(dict(key))
        return out

    # -- summaries -----------------------------------------------------

    def series_summary(self, name: str) -> Dict:
        """Headline numbers for one series across all its label sets."""
        samples = self._by_series.get(name, [])
        values = [s["value"] for s in samples]
        times = [s["t"] for s in samples]
        return {
            "series": name,
            "samples": len(samples),
            "label_sets": len(self.label_sets(name)),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "last": values[-1] if values else None,
            "t0": min(times) if times else None,
            "t1": max(times) if times else None,
        }
