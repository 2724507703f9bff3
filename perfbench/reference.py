"""Reference kernel that measures how fast the machine is right now.

On a shared host the same seqloc pass can take twice as long from one
minute to the next, while the ratio of its time to this kernel's time,
measured next to it, stays within a few percent.  The kernel repeats the
kind of call seqloc makes per Gauss-Newton step -- small-array numpy
calls and a thin SVD on an 8-row matrix -- and uses no seqloc code, so a
change to the package cannot move it.

Timings are reported at the nominal speed: a raw time multiplied by
NOMINAL_S over this kernel's time measured around it.  NOMINAL_S is the
kernel's time on the machine the benchmark was defined on (2 vCPU Xeon
at 2.1 GHz, numpy 2.4, Python 3.11) when it was quiet, so normalized
figures read as seconds on that machine.
"""

from __future__ import annotations

import time

import numpy as np

REPS = 100
NOMINAL_S = 0.00275

_G = np.random.default_rng(0).standard_normal((8, 7))
_R = np.ones(8)


def kernel_seconds() -> float:
    start = time.perf_counter_ns()
    for _ in range(REPS):
        u, s, vt = np.linalg.svd(_G, full_matrices=False)
        vt.T @ ((u.T @ _R) / s)
        np.hstack([_G, _G])
        np.linalg.norm(_G, axis=1)
        np.asarray(_G, dtype=float)
    return (time.perf_counter_ns() - start) / 1e9
