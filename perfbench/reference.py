"""Fixed reference kernels that track the machine's current speed.

The shared machines this benchmark was tuned on drift in speed by tens of
percent within a minute, and CPU time drifts with wall time, because the
core itself runs slower.  Interpreter-bound code and numpy inner loops do
not always slow down together: in one 150 s trace the Python-bound fans
requests drifted by 50-60% between 30 s blocks while a numpy-bound count
drifted by 10%.  So there are two kernels, one of each kind, and each
workload names the one that matches where its time goes.  Neither touches
fandec, so a faster library shows in full after scaling.
"""

from __future__ import annotations

import time

import numpy as np


def _python_kernel() -> int:
    """Dict, tuple and small-int work, like fankit's and recovery's."""
    d = {}
    for i in range(5000):
        d[(i % 61, i % 17, i)] = i
    hits = sum(1 for k in d if (k[1], k[0], k[2]) in d)
    return hits + len([tuple(range(i % 7)) for i in range(2500)])


def _numpy_kernel() -> int:
    """Chunked int64 arithmetic shaped like the square-zero enumerator's."""
    ids = np.arange(1 << 14, dtype=np.int64)
    coeffs = np.empty((ids.size, 6), dtype=np.int64)
    for t in range(6):
        coeffs[:, t] = (ids // 3**t) % 3
    acc = np.zeros((ids.size, 8), dtype=np.int64)
    for i in range(6):
        term = (coeffs[:, i] * coeffs[:, (i + 1) % 6]) % 3
        acc[:, [i, i + 2]] = (acc[:, [i, i + 2]] + term[:, None]) % 3
    return int(np.count_nonzero((acc == 0).all(axis=1)))


# kind -> (kernel, its time in seconds on an uncontended core of the 2-core
# x86-64 machine the benchmark was tuned on, under Python 3.11 and numpy 2.4)
KERNELS = {
    "python": (_python_kernel, 0.0019),
    "numpy": (_numpy_kernel, 0.0042),
}


def seconds(kind: str) -> float:
    kernel, _ = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def nominal(kind: str) -> float:
    return KERNELS[kind][1]
