"""Machine-speed calibration for timings taken on a shared CPU.

On a shared machine a core alternates, within milliseconds, between
full speed and about half speed, depending on what its neighbours run.
The share of time at half speed drifts over minutes, and every wall
time of a run moves with it.  The benchmark therefore runs a fixed
kernel of pure-Python work between ops, at a steady cadence.  The kernel
does exact ``Fraction`` row updates, tuple and dict churn and JSON
encoding, the same mix of work the package does.  Each op time is then
scaled by ``KERNEL_REF_S / mean kernel time within WINDOW_S of the op``.
The result reads as milliseconds at the reference speed, the speed at
which the kernel takes ``KERNEL_REF_S``.  The kernel does not import
the package, so a change to the package cannot move it.  The raw times
are kept in the run record.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

# a round figure near the kernel's mean on a 2-vCPU Xeon container
# (Python 3.11); only the scale of the reported figures depends on it
KERNEL_REF_S = 0.0013
CADENCE_S = 0.2
WINDOW_S = 0.5  # samples this close to an op's midpoint scale that op


def kernel() -> int:
    """A fixed few milliseconds of interpreter work; returns a checksum."""
    row = [Fraction(i, i + 3) for i in range(1, 41)]
    piv = [Fraction(i + 1, 2 * i + 5) for i in range(40)]
    for f in (Fraction(1, 7), Fraction(2, 9), Fraction(3, 11)):
        row = [a - f * p for a, p in zip(row, piv)]
    seen = {}
    for t in range(600):
        key = (t % 13, t % 7, t % 5)
        seen[key] = seen.get(key, 0) + t
    text = json.dumps({str(k): v for k, v in seen.items()})
    return len(text) + row[-1].denominator % 97


class Calibrator:
    """Kernel samples taken between ops, no more often than CADENCE_S."""

    def __init__(self):
        self.samples: list = []  # mean kernel seconds, in time order
        self.times: list = []    # perf_counter at each sample's midpoint
        self._due = 0.0

    def sample(self) -> None:
        """Mean of four kernels after a warm-up one, collector paused.

        The machine alternates quickly between full speed and a shared
        core at about half speed, so kernel times are bimodal.  Op times
        integrate over both states; the mean, not the median or the
        minimum, estimates the same thing.  The warm-up kernel absorbs
        the cold caches left by a long op.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t0 = time.perf_counter()
            for _ in range(4):
                kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t1 - t0) / 4)
        self.times.append((t0 + t1) / 2)
        self._due = t1 + CADENCE_S

    def sample_for(self, seconds: float) -> None:
        """Back-to-back samples for ``seconds``, to cover a longer span."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def tick(self) -> None:
        """Sample if the cadence says so; call between ops."""
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self, start: int = 0) -> float:
        """Reference speed over measured speed, from samples[start:]."""
        return KERNEL_REF_S / statistics.fmean(self.samples[start:])

    def factor_at(self, t: float) -> float:
        """Reference speed over the measured speed around time ``t``.

        Uses the samples within WINDOW_S of ``t``, or the three nearest
        when the window holds fewer.
        """
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, t)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
            near = sorted(range(lo, hi), key=lambda i: abs(self.times[i] - t))
            return KERNEL_REF_S / statistics.fmean(
                self.samples[i] for i in near[:3])
        return KERNEL_REF_S / statistics.fmean(self.samples[lo:hi])
