"""Machine-speed calibration of the benchmark's timings.

The 2-core machine this benchmark was built on drifts in speed by 20-30% over
minutes: the same exact_finite pass took 4.0 s in one run and 2.7 s a few
minutes later.  The drift slows most work alike.  Over 8 minutes of drift,
the times of single ops of every workload spread by 0.12-0.20 (quartile
distance over median); their ratios to the kernel below by 0.04-0.08.

So while the untraced passes run, a ``SIGALRM`` timer times a small fixed
kernel every ``INTERVAL_S``; each set-up import probe times ``setup_kernel``
in its own interpreter right after the import.  The speed factor of an
interval is the median kernel time near it over ``NOMINAL_KERNEL_S``, a fixed
figure near the kernel's time there.  A reported time is the measured time
divided by the factor of its own interval, so it stays in seconds at one
fixed machine speed.  Kernel time spent inside a timed op is subtracted from
that op.

The samples are taken during the ops, not only between them, because the
speed changes within a long op: over the same 8 minutes, ops of 1-10 s
divided by the kernel times taken just before and after them spread by
0.12-0.21, divided by the samples taken during them by 0.04-0.06.

The kernel is a dense eigensolve and a sort.  A loop of small numpy calls
slowed about twice as much as the ops did under the same drift, so dividing
op times by it over-corrected: it left spreads up to 0.25, more than the raw
times.  Import time, mostly interpreter work, does track that loop, and not
the kernel alone: 30 import probes spread by 0.23 raw and by 0.13 divided by
``setup_kernel``, and by 0.11 both raw and divided by ``kernel``.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.25
PAD_S = 0.5
MIN_SAMPLES = 3
NOMINAL_KERNEL_S = 0.002
NOMINAL_SETUP_KERNEL_S = 0.0035

_SMALL = np.arange(64.0)
_MATRIX = np.random.default_rng(0).normal(size=(150, 150))
_VECTOR = np.random.default_rng(1).normal(size=100000)


def kernel():
    """A dense eigensolve and a sort: about 2 ms on the machine described above."""
    np.linalg.eigvalsh(_MATRIX)
    np.sort(_VECTOR)


def setup_kernel():
    """Small numpy calls from a Python loop, then ``kernel()``."""
    for _ in range(500):
        float(np.sum(_SMALL * 1.5))
    kernel()


def setup_factor() -> float:
    """Median ``setup_kernel`` time over its nominal time, after a warm-up call."""
    setup_kernel()
    times = []
    for _ in range(MIN_SAMPLES):
        t0 = time.perf_counter()
        setup_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_SETUP_KERNEL_S


class SpeedProbe:
    """Kernel timings, taken on demand and from a ``SIGALRM`` timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, seconds)
        self.spent = 0.0                  # seconds spent in the kernel so far
        kernel()                          # the first call pays one-time set-up

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    @contextmanager
    def sampling(self):
        """Sample every ``INTERVAL_S`` inside the block (main thread only)."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start=-math.inf, end=math.inf) -> float:
        """Median kernel time over its nominal time, above 1 on a slow machine.

        Uses the samples within ``PAD_S`` of [start, end], or, when there are
        fewer than ``MIN_SAMPLES`` of them, the ones nearest its midpoint.
        """
        near = [dt for t, dt in self.samples if start - PAD_S <= t <= end + PAD_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end) if math.isfinite(start + end) else 0.0
            near = [dt for _, dt in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
        return statistics.median(near) / NOMINAL_KERNEL_S
