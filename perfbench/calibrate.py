"""Host-speed calibration for the end-to-end timings.

The reference host is a 2-vCPU virtual machine on shared hardware whose
speed drifts by up to 2x over seconds to minutes, for array code as for
interpreted code. The ratio of two pieces of the same kind of work done
back to back stays within a few percent. So the benchmark times a fixed
kernel, which calls nothing in dualqss, right before and after each
measured interval and reports the interval in reference seconds:

    reported = raw * nominal / mean(kernel time before, kernel time after)

i.e. the time the interval would take on a host where the kernel takes
exactly ``nominal`` seconds. Each measurement uses a kernel of its own
kind of work. Raw seconds are printed beside the reported ones.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np


def python_kernel() -> float:
    """Interpreted float math and calls, like the analytic rate chain."""
    acc = 0.0
    for k in range(1, 20_000):
        x = k * 1e-4
        acc += math.log1p(x) * math.exp(-x) + x ** 0.5
    return acc


def _dense_block(seed: int, size: int = 250_000) -> int:
    """The array work per round of a dense Monte-Carlo block: basis and
    bit draws, mode amplitudes, Poisson photon counts, dark counts, click
    patterns and mask sums, at fixed made-up intensities."""
    rng = np.random.default_rng(seed)
    basis_a = rng.random(size) < 0.5
    basis_b = rng.random(size) < 0.5
    bits = rng.integers(0, 2, size=(4, size), dtype=np.int8)
    sign = 1.0 - 2.0 * bits
    a_h = np.where(basis_a, sign[0] * 0.3, np.where(bits[1] == 0, sign[0] * 0.4, 0.0))
    a_v = np.where(basis_a, sign[0] * sign[1] * 0.3, np.where(bits[1] == 1, sign[0] * 0.4, 0.0))
    b_h = np.where(basis_b, sign[2] * 0.3, np.where(bits[3] == 0, sign[2] * 0.4, 0.0))
    b_v = np.where(basis_b, sign[2] * sign[3] * 0.3, np.where(bits[3] == 1, sign[2] * 0.4, 0.0))
    lam = 0.05 * np.stack(((a_h + b_h) ** 2, (a_h - b_h) ** 2,
                           (a_v + b_v) ** 2, (a_v - b_v) ** 2), axis=1)
    photons = rng.poisson(lam)
    clicks = (photons > 0) | (rng.random((size, 4)) < 1e-3)
    n_click = clicks.sum(axis=1)
    ev1 = (n_click == 1) & (clicks[:, 0] | clicks[:, 1])
    ev2 = (n_click == 2) & ((clicks[:, 0] & clicks[:, 2]) | (clicks[:, 1] & clicks[:, 3]))
    xx = basis_a & basis_b
    even = (photons % 2) == 0
    return int((xx & ev1).sum() + (xx & ev2).sum() + (xx & ev1 & even[:, 0]).sum())


def numpy_kernel(threads: int) -> int:
    """One dense block per worker thread, as the Monte-Carlo kernel runs
    its blocks. A smaller, Poisson-bound array kernel slowed by up to 3x
    under host contention while the simulation slowed by 1.4x; the same
    kind of block work slows alike."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(_dense_block, range(threads)))


def process_kernel() -> None:
    """A fresh interpreter that imports numpy, like the set-up probe."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)


# Kernels with their nominal seconds (about their time on the reference host).
PYTHON = (python_kernel, 0.006)
PROCESS = (process_kernel, 0.15)


def threaded_numpy(threads: int) -> tuple:
    return (partial(numpy_kernel, threads), 0.1)


class Calibrated:
    """Times intervals in reference seconds against one kernel."""

    def __init__(self, kind: tuple) -> None:
        self.kernel, self.nominal = kind
        self.kernel()  # first call pays for lazy imports and allocation
        self._last = self._time_kernel()

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def close(self, raw: float) -> float:
        """Reference seconds of an interval of ``raw`` seconds that has just
        ended; the kernel timed at its end also starts the next interval."""
        after = self._time_kernel()
        before, self._last = self._last, after
        return raw * self.nominal / (0.5 * (before + after))
