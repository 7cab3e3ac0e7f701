"""Machine-speed sampling, to report times at the machine's reference speed.

The benchmark machine is shared. One pass of identical inputs took 7.8 s
and 11.2 s within a few minutes, CPU time moving the same way, so raw times
from one run to the next spread by 20-35%. While a :class:`SpeedSampler` is
active, a timer signal every PERIOD_S interrupts the program between
bytecodes and runs a fixed kernel: a Python loop of small NumPy operations
modelled on a group-lasso row sweep, the kind of work that dominates the
program. The kernel never calls the program, so a change to the program
cannot move it. A step's scaled time is its time with the kernel's own time
removed, times REFERENCE_S over the mean kernel time during the step. Over
five repeated passes of the same inputs, scaled wall times ranged over 2-10%
of their median where raw times ranged over 10-35%.

The signal only interrupts the main thread of this process: work in other
processes or threads is neither sampled nor paused, so a program that ran
its own workers would be scaled by a kernel competing with them.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

import numpy as np

# Kernel time at the reference speed: its median on the 2-core machine the
# benchmark's bounds were set on.
REFERENCE_S = 0.002
PERIOD_S = 0.05

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((300, 11))
_GRAM = _A.T @ _A
_T0 = _rng.standard_normal((11, 2))
_W0 = _rng.standard_normal((11, 2))


def kernel(reps: int = 10) -> None:
    W = _W0.copy()
    for _ in range(reps):
        M = _GRAM @ W
        for k in range(W.shape[0]):
            h = _T0[k] - M[k] + _GRAM[k, k] * W[k]
            nv = np.linalg.norm(h)
            w_new = max(0.0, 1.0 - 0.5 / nv) * h / _GRAM[k, k]
            delta = w_new - W[k]
            if np.linalg.norm(delta) > 0.0:
                M += np.outer(_GRAM[:, k], delta)
                W[k] = w_new


class SpeedSampler:
    """Context manager that samples the kernel on a timer while active."""

    def __init__(self):
        self.wall = 0.0       # total wall and CPU seconds spent in the kernel
        self.cpu = 0.0
        self.kernel_times = []
        self._previous = None

    def _sample(self, signum, frame):
        t0, c0 = perf_counter(), process_time()
        kernel()
        dt = perf_counter() - t0
        self.wall += dt
        self.cpu += process_time() - c0
        self.kernel_times.append(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        # no sample may land between the clock reads and the kernel totals
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return perf_counter(), process_time(), self.wall, self.cpu, len(self.kernel_times)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, start, end) -> float:
        """REFERENCE_S over the mean kernel time between two marks.

        A step too short to hold a sample uses the latest samples before it.
        """
        times = self.kernel_times[start[4]:end[4]] or self.kernel_times[-5:]
        if not times:
            self._sample(None, None)
            times = self.kernel_times[-1:]
        return REFERENCE_S * len(times) / sum(times)

    def scaled(self, start, end):
        """(wall, cpu) between two marks, kernel time removed, at reference speed."""
        (w0, c0, kw0, kc0, _), (w1, c1, kw1, kc1, _) = start, end
        factor = self.factor(start, end)
        return (w1 - w0 - (kw1 - kw0)) * factor, (c1 - c0 - (kc1 - kc0)) * factor


def import_seconds(src: str, numpy_s: float) -> float:
    """Scaled seconds to import multicate from ``src`` in a fresh process.

    The caller imported NumPy first, unsampled, because the kernel needs it,
    and passes the seconds that took; they are scaled by the speed measured
    while the rest of the import runs.
    """
    import sys

    sys.path.insert(0, src)
    with SpeedSampler() as sampler:
        start = sampler.mark()
        import multicate  # noqa: F401
        end = sampler.mark()
    return numpy_s * sampler.factor(start, end) + sampler.scaled(start, end)[0]
