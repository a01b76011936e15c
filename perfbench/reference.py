"""Fixed reference work that tracks how fast the machine runs right now.

On a shared machine the speed of the same code drifts by up to a factor of
two, over seconds and over minutes (other tenants, clock changes).  The
end-to-end times are therefore reported relative to this reference, timed
right after each operation for a fixed share of the operation's time: both
slow down together, so the ratio stays put while a change to affinecontrol
still moves it.  The work uses no affinecontrol code, only the interpreter,
small scipy exponentials and a numpy sort, in about equal shares, since the
workloads mix those three kinds of cost.
"""

import time

import numpy as np
from scipy.linalg import expm

# Reference time spent after an operation, as a share of its time.
SHARE = 0.2
_MATRIX = np.array([[0.1, 1.0, 0.0], [-1.0, -0.3, 0.2], [0.0, 0.0, 0.0]])
_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=300_000)


def _work():
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(500):
        expm(_MATRIX)
    for _ in range(3):
        np.sort(_KEYS)
    return total


def sample(seconds, times):
    """Repeat the reference work for about `seconds`, at least once,
    appending the time of each repetition to `times`."""
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        _work()
        now = time.perf_counter()
        times.append(now - start)
        if now >= end:
            return
