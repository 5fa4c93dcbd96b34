"""Machine-speed reference for timing on a shared host.

On a host whose cores are shared with other tenants, the same code runs up
to twice as slowly for stretches of seconds to tens of seconds, so raw wall
times of one run say more about the neighbours than about the program.
Every timed operation is therefore accompanied by a fixed reference kernel
(small complex numpy arrays and a Python loop, the mix heraldkit spends its
time in), run before the operation, after it, and every `TICK_S` seconds
during it from a timer signal.  The operation's time, less the time spent
in those samples, is rescaled to a reference core on which the kernel takes
`REFERENCE_S`:

    scaled = wall * REFERENCE_S / mean kernel time over the operation

The kernel is benchmark code, so a change to heraldkit moves the scaled
figures exactly as it moves the wall times of a quiet core.  The raw wall
times are reported beside the scaled ones.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

# Kernel time on an idle core of the machine the bounds were set on.
REFERENCE_S = 0.003
REPEATS = 5
TICK_S = 0.25
_N = 41


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.standard_normal(_N) + 1j * rng.standard_normal(_N)
        self.mat = rng.standard_normal((_N, _N)) + 0j
        self.idx = np.add.outer(np.arange(_N), np.arange(_N)).ravel()

    def _kernel(self) -> float:
        acc = 0.0
        for k in range(130):
            v = self.vec * np.exp(0.1j * k)
            outer = np.outer(v, v.conj()).ravel()
            anti = np.bincount(self.idx, weights=outer.real)
            acc += float(np.sum(np.abs(self.mat @ v) ** 2)) + anti[3]
            for i in range(40):
                acc += math.sqrt(i + k) * 1e-9
        return acc

    def sample(self) -> float:
        """Fastest of a few kernel runs, in seconds."""
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best


class Watch:
    """Context manager timing one operation against the speed reference.

    After the block: `wall` is the block's wall time less the time spent
    sampling, `kernel` the mean kernel time, `scaled` the rescaled time.
    With `ticks`, the kernel is also sampled from SIGALRM every TICK_S.
    """

    def __init__(self, speed: Speed, ticks: bool):
        self.speed = speed
        self.ticks = ticks
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.speed.sample())
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Watch":
        self.samples.append(self.speed.sample())
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self.t0 - self.paused
        self.samples.append(self.speed.sample())
        self.kernel = sum(self.samples) / len(self.samples)
        self.scaled = self.wall * REFERENCE_S / self.kernel
