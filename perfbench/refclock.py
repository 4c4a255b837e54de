"""Machine-speed reference: a fixed NumPy/Python kernel timed in-process.

A 2-core x86-64 VM shared with other tenants changed speed by up to 2x
over tens of seconds (host contention, not steal time: user CPU time
tracked the wall), and the change was common to all interpreter-bound
code.  The kernel runs every INTERVAL seconds from an interval-timer
signal, so every execution, short or longer than a speed phase, is
measured against the machine's speed while it ran; the time the kernel
takes is subtracted from the execution it interrupted.

The kernel imitates a short solve of the package in plain Python and NumPy
(operator apply through a callable, residual norm, a state record, a
stagnation test, generator coefficients, the two-step update on
50-vectors, then the history formatted as CSV lines) without calling any
of its code, so a change to the package never changes the reference.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL = 0.1
KERNEL_STEPS = 60  # about 1 ms


def _coefficients():
    while True:
        yield 0.5, 0.25


@dataclass(slots=True)
class _State:
    n: int
    f: np.ndarray
    residual_norm: float


class _Stagnation:
    def __init__(self):
        self.prev = None
        self.count = 0

    def update(self, rn: float) -> bool:
        if self.prev is not None and abs(rn - self.prev) < 1e-15 * max(rn, 1e-300):
            self.count += 1
        else:
            self.count = 0
        self.prev = rn
        return self.count >= 50


class RefClock:
    def __init__(self):
        a = np.random.default_rng(0).standard_normal((50, 50)) / 50.0
        self._apply = lambda x: a @ x
        self._g = np.ones(50)
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._previous = None
        self._running = False

    def kernel(self, *_signal_args):
        if self._running:  # a timer signal arrived while the kernel ran
            return
        self._running = True
        start = time.perf_counter()
        apply, g = self._apply, self._g
        f_prev, f = np.zeros(50), 0.1 * g
        coefficients, history, stagnation = _coefficients(), [], _Stagnation()
        for n in range(KERNEL_STEPS):
            v = g - apply(f)
            history.append(float(np.linalg.norm(v)))
            state = _State(n, f, history[-1])
            if state.residual_norm < 0.0 or stagnation.update(state.residual_norm):
                break
            a, b = next(coefficients)
            f_prev, f = f, f + a * (f - f_prev) + b * apply(v)
        "\n".join(f"{n},{rn!r}" for n, rn in enumerate(np.asarray(history).tolist()))
        self.samples.append((start, time.perf_counter()))
        self._running = False

    def __enter__(self):
        self.kernel()
        self._previous = signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """Mean kernel time over [t0, t1] widened by one interval each side,
        and the kernel time spent inside [t0, t1].  The mean, because the
        execution's own time is the average over the speed phases it ran
        through."""
        inside = sum(e - s for s, e in self.samples if s >= t0 and e <= t1)
        near = [e - s for s, e in self.samples if e >= t0 - INTERVAL and s <= t1 + INTERVAL]
        return statistics.fmean(near), inside
