"""Machine-speed probe.

The machine the benchmark runs on may share its cores with other work, and
its speed then drifts by tens of per cent over tens of seconds.  A fixed
kernel of the benchmark's own -- a Python loop around small NumPy matrix
products, eigensolves and a stacked einsum, the kinds of work the library
does, but no library code -- is timed next to every round and every
set-up.  Times are reported at nominal speed: measured seconds times
NOMINAL_S over the probe's time, so a slow phase of the machine lengthens
both and cancels, while a change to the library moves only the measured
time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median probe time on the 2-vCPU Xeon VM (Python 3.11, NumPy 2.4, OpenBLAS
# 0.3.31) the benchmark was built on; it only sets the scale
NOMINAL_S = 0.01

_A = np.arange(36.0).reshape(6, 6) / 36.0
_B = np.eye(6) + _A.T / 7.0
_S = np.arange(200 * 100.0).reshape(200, 10, 10) / 1e4
_X = np.eye(10) + np.arange(100.0).reshape(10, 10) / 1e3


def _kernel() -> float:
    acc = 0.0
    for i in range(300):
        x = _A @ _B + i * 1e-3
        acc += float(np.linalg.eigvalsh(x + x.T)[0])
        acc += float(np.linalg.inv(x + 6.0 * np.eye(6))[0, 0])
        for j in range(40):
            acc += j * 0.5
        if i % 20 == 0:
            acc += float(np.einsum("lij,jk->lik", _S, _X)[0, 0, 0])
    return acc


def probe(passes: int = 3) -> float:
    """Median seconds of `passes` runs of the kernel."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
