"""Host-speed reference for the benchmark's timings.

The benchmark runs on hosts whose cores are shared with other work, so the
same single-threaded code runs up to twice as slow for seconds to minutes
at a time.  To keep that drift out of the end-to-end metrics, a run also
times a fixed reference task of its own while it measures the program,
and scales its timings by

    factor = REFERENCE_UNIT_S / mean(reference task times)

so that a timing reads what it would on a host where the reference task
takes REFERENCE_UNIT_S.  The task mixes, in about equal parts, a
pure-Python loop, small numpy reductions and in-place updates of reshaped
complex statevector views: the kinds of work the program's operations are
made of.  It calls no qkslab code, so a change to the program moves the
scaled timings exactly as it moves the raw ones.

The task runs from a SIGALRM handler INTERVAL_S after its previous run
ended, so its samples are spread evenly over the run however long the
program's operations are.  ``clock()`` stops while the task runs: timings
read from it are the program's alone.  Throughput is scaled by the factor
of all the run's samples.  The host can change state within one operation
of a sweep, so each operation's latency is scaled by the factor of the
samples taken during it, or of the LOCAL_SAMPLES nearest to it when it is
short.  Within seconds the host switches between a fast and a slow state,
so the task times form two clusters; their mean, not their median,
follows the share of time spent in each.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Reference task time in the slow state of the 2-vCPU host the baseline was
# measured on; it only fixes the scale of the scaled timings.
REFERENCE_UNIT_S = 0.020
INTERVAL_S = 0.25  # seconds from the end of one reference task to the next
LOCAL_SAMPLES = 8  # fewest samples behind the factor of one operation


def unit() -> float:
    """Run the reference task once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(70_000):  # interpreter
        s += i * i
    x = np.linspace(0.0, 1.0, 140)
    for _ in range(1_000):  # small numpy calls, as in SMO steps
        k = int(np.where(x > 0.5, x, -np.inf).argmax())
        x[k] *= 0.999
    state = np.zeros(64, dtype=np.complex128)
    state[0] = 1.0
    phase = np.exp(0.1j)
    for q in range(850):  # reshaped views of a statevector, as in gate steps
        view = state.reshape(-1, 2, 1 << (q % 6))
        view[:, 1, :] *= phase
        t = state.reshape((2,) * 6)
        tmp = t[1, 0].copy()
        t[1, 0] = t[1, 1]
        t[1, 1] = tmp
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale factor for timings taken while ``samples`` were measured."""
    return REFERENCE_UNIT_S / statistics.mean(samples)


class HostSpeed:
    """Samples the reference task while started; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # clock() when each sample started
        self.spent = 0.0  # seconds spent in the handler, task included

    def clock(self) -> float:
        """perf_counter() minus the time spent on reference tasks."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.samples.append(unit())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        return factor(self.samples)

    def local_factor(self, start: float, end: float) -> float:
        """Factor for one timing from ``start`` to ``end`` on ``clock()``:
        from the samples taken during it, or from the LOCAL_SAMPLES nearest
        to its middle when fewer were."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo < LOCAL_SAMPLES:
            mid = bisect.bisect(self.times, (start + end) / 2)
            hi = min(len(self.times), max(mid + LOCAL_SAMPLES // 2, LOCAL_SAMPLES))
            lo = max(0, hi - LOCAL_SAMPLES)
        return factor(self.samples[lo:hi])
