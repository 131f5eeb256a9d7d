"""Host-speed calibration: host-clock times are reported at reference speed.

The sandbox this suite runs in slows down by 1.4-2x for seconds to
minutes at a time (another tenant on the physical core; measured on an
otherwise idle box, on pure arithmetic as much as on allocation-heavy
code), far more than any regression bound.  So each timed section is
bracketed by a fixed reference kernel, a pure-Python arithmetic loop,
and its duration is divided by ``kernel seconds / REFERENCE_S``.  A
quiet host gives a factor near 1 and leaves the time as measured; a slow
phase stretches kernel and program alike and cancels.  Among the kernels
tried (dict and string building, ``literal_eval``, mixes) this one
tracked the program's layers most proportionally (fitted exponent
0.85-1.1 for compute, store write, segment decode and cold serving;
hot serving, which waits on sockets, follows with about 0.6 and is
over-corrected in slow phases).  Over ten seeds it cuts the spread of the
build times from 45-50% to 10-15% on a noisy host and from 5-14% to
2.5-5% on a quiet one.

The kernel allocates nothing, uses builtins only and lives here, outside
the program, so a change to ``src/`` cannot move it.  Counts, bytes and
simulated seconds are never scaled.
"""

from __future__ import annotations

import statistics
import time

KERNEL_LOOPS = 400_000
#: Kernel seconds on the quiet 2-core 2.1 GHz reference box (Python 3.11).
REFERENCE_S = 0.0285
#: How long a sample stays usable as the "before" of the next section.
FRESH_S = 0.5


def kernel(loops: int = KERNEL_LOOPS) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


def sample(quick: bool = False) -> float:
    """Median duration of three kernel runs, in seconds at full length.

    ``quick`` (smoke tests) runs one kernel of a hundredth the length.
    """
    loops = KERNEL_LOOPS // 100 if quick else KERNEL_LOOPS
    durations = []
    for _ in range(1 if quick else 3):
        started = time.perf_counter()
        kernel(loops)
        durations.append(time.perf_counter() - started)
    return statistics.median(durations) * KERNEL_LOOPS / loops


def factor(before: float, after: float) -> float:
    """Host slowdown over a section between two samples (1 = reference)."""
    return (before + after) / 2 / REFERENCE_S


class HostClock:
    """Times sections, each bracketed by kernel samples; consecutive
    sections share the sample between them."""

    def __init__(self, tracer=None, quick: bool = False) -> None:
        self._last = 0.0
        self._at = float("-inf")
        self._tracer = tracer
        self._quick = quick
        self.factors = []

    def _sample(self) -> float:
        if self._tracer is None:
            self._last = sample(self._quick)
        else:
            with self._tracer.span("host.calibrate"):
                self._last = sample(self._quick)
        self._at = time.perf_counter()
        return self._last

    def timed(self, section):
        """Run ``section()``; returns ``(its result, seconds at reference
        speed, the slowdown factor applied)``."""
        if time.perf_counter() - self._at > FRESH_S:
            self._sample()
        before = self._last
        started = time.perf_counter()
        result = section()
        elapsed = time.perf_counter() - started
        slowdown = factor(before, self._sample())
        self.factors.append(slowdown)
        return result, elapsed / slowdown, slowdown
