"""Calibration kernels: fixed work that tracks how fast the machine runs right now.

On a shared machine the same code runs up to 1.6x slower for stretches of
seconds to minutes.  The benchmark interleaves a kernel with each workload
and rescales every time it measures by the kernel's nominal time over its
time observed at that moment, so the reported figures read as if the kernel
had taken exactly its nominal time.  The kernels touch no qubounds code, so
no change to the library can move them.

A slowdown does not hit interpreter work and LAPACK calls alike, so each
workload is paced by the kernel that matches its bulk: ``interpreter`` for
small matrices, ``lapack`` for n = 64.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# Bound at import, so that a traced run's numpy.linalg wrappers never see
# the kernels' calls.
from numpy.linalg import eigh, eigvalsh, norm

# Kernel time as a share of each paced operation's time.
SHARE = 0.2
# Kernel runs whose median rescales a one-off interval such as set-up.
SCALE_RUNS = 25


def _hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


_RNG = np.random.default_rng(20230213)
_SMALL = _hermitian(_RNG, 6)
_MEDIUM = _hermitian(_RNG, 40)
_LARGE = _hermitian(_RNG, 64)


def _small_work() -> float:
    acc = 0.0
    for i in range(6):
        w, v = eigh(_SMALL)
        acc += float(norm(_SMALL @ v[:, i]))
        acc += len(json.dumps({"i": i, "w": w.tolist()}, sort_keys=True))
        acc += sum(k * k % 7 for k in range(60))
    return acc


def interpreter_kernel() -> float:
    """Interpreter work and 6x6 eigensolves, then one 40x40 eigenvalue solve."""
    return _small_work() + float(eigvalsh(_MEDIUM)[0])


def lapack_kernel() -> float:
    """The same small work, then one 64x64 eigensolve, which takes most of the time."""
    return _small_work() + float(eigh(_LARGE)[0][0])


# Kernel and its nominal time: about its time, unloaded, on the machine the
# benchmark was defined on (2-core x86-64 VM, Python 3.11, NumPy 2.4 with
# OpenBLAS, one BLAS thread).
KERNELS = {
    "interpreter": (interpreter_kernel, 0.25e-3),
    "lapack": (lapack_kernel, 0.7e-3),
}


def timed(kernel) -> int:
    """Run the kernel once; its duration in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def scale_now(kind: str) -> float:
    """Nominal over measured kernel time, from the median of ``SCALE_RUNS`` runs."""
    kernel, nominal_s = KERNELS[kind]
    kernel()
    return nominal_s * 1e9 / statistics.median(timed(kernel) for _ in range(SCALE_RUNS))


class Pace:
    """Kernel runs interleaved with measured operations.

    :meth:`after` is called after each operation.  It runs the kernel until
    the kernel's time reaches ``SHARE`` of the operation's (at least once)
    and returns the factor that turns the operation's time into nominal
    time: the nominal time over the mean time of the kernel runs just before
    and just after the operation.  Pacing each operation by its neighbours
    follows slowdowns that change within a fraction of a second.
    """

    def __init__(self, kind: str):
        self._kernel, self._nominal_s = KERNELS[kind]
        self._before = self._runs(0)

    def _runs(self, work_ns: int) -> list[int]:
        runs = [timed(self._kernel)]
        while sum(runs) < SHARE * work_ns:
            runs.append(timed(self._kernel))
        return runs

    def after(self, work_ns: int) -> float:
        after = self._runs(work_ns)
        both = self._before + after
        self._before = after
        return self._nominal_s * 1e9 * len(both) / sum(both)
