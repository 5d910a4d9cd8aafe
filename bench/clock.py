"""Wall time rescaled to a nominal machine speed.

On a shared host the same fixed work takes 25% longer or shorter from one
half-minute to the next (a 64x64 Jacobi SVD repeated for four minutes:
5-second medians from 359 to 559 ms), so raw wall times of whole runs
spread more than any useful bound.  This clock samples the machine's
current speed with a fixed probe, independent of the package, twice a
second from a SIGALRM handler and around every timed call, and rescales
each call's wall time by NOMINAL_PROBE_S / (median probe time during the
call).  Probe time itself is subtracted from the call's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 0.0075  # probe time at the speed the figures are quoted for
SAMPLE_PERIOD_S = 0.5

_STATE = np.random.default_rng(20251018).standard_normal((32, 24))
_ACT = np.random.default_rng(20251019).standard_normal((64, 64))


def probe() -> float:
    """Time a fixed mix of small-array numpy calls and interpreter work.

    It resembles the package's hot paths: column rotations like a Jacobi
    sweep and per-row quantization of a 64 x 64 product.
    """
    b = _STATE.copy()
    start = time.perf_counter()
    for p in range(23):
        for q in range(p + 1, 24):
            alpha = np.dot(b[:, p], b[:, p])
            gamma = np.dot(b[:, p], b[:, q])
            c = 1.0 / np.sqrt(1.0 + gamma * gamma / (alpha * alpha + 1.0))
            s = 0.01 * c
            bp = c * b[:, p] - s * b[:, q]
            b[:, q] = s * b[:, p] + c * b[:, q]
            b[:, p] = bp
    for _ in range(8):
        y = np.einsum("nd,od->no", _ACT, _ACT)
        rms = np.sqrt(np.mean(y * y, axis=1))
        np.clip(np.sign(y) * np.floor(np.abs(y / rms[:, None]) + 0.5), -4, 3)
    return time.perf_counter() - start


class SpeedClock:
    """Context manager that samples machine speed while it is open."""

    def __init__(self):
        self.samples = []  # (end time, probe duration)

    def _sample(self, *_):
        duration = probe()
        self.samples.append((time.perf_counter(), duration))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args, **kwargs):
        """Call fn; return (result, raw wall seconds, nominal seconds).

        Outside the ``with`` block only the probes before and after the
        call are taken.
        """
        self._sample()
        first = len(self.samples) - 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self._sample()
        taken = self.samples[first:]
        inside = sum(d for stamp, d in taken if start < stamp <= end)
        speed = statistics.median(d for _, d in taken)
        return result, end - start - inside, (end - start - inside) * NOMINAL_PROBE_S / speed
