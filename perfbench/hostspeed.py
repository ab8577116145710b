"""Host speed, sampled by a fixed kernel of the benchmark's own.

The host lends this machine a varying share of its CPU: the 10-second mean
time of a fixed numpy loop ranged from 0.16 to 0.26 s within four minutes,
and slow and fast phases last as long as a benchmark run. The kernel below is a Python
loop of small numpy calls, like the program's own inner loops, and never
changes with the program. The benchmark runs it before and after each
round of operations and scales the round's program time by KERNEL_REF_S
over the mean of the two kernel times. The scaled time is what the program
would have taken on a host where the kernel takes KERNEL_REF_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

KERNEL_REPS = 400
KERNEL_REF_S = 0.020   # the kernel's time on the reference host

_A = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])


def kernel(reps: int = KERNEL_REPS) -> float:
    """A fixed amount of small-matrix work; returns a value so that none
    of it can be skipped."""
    rho, acc = _A.copy(), 0.0
    for _ in range(reps):
        w, v = np.linalg.eigh(rho)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        acc += float(np.log(np.einsum("ij,ji->", root, _A).real + 1.0))
        sq = root @ root.conj().T
        rho = 0.5 * (rho + sq / np.trace(sq).real)
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
