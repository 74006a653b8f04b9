"""``verify`` milliseconds per trial, in process, at several n and ranks.

    python tests/verify_timing.py

Each line is one (n, rank): the best of 3 timed runs of ``run_verification_suite`` followed by ``dumps_report``
(the work of ``qubounds verify`` without its file write), over a trial count sized so that a run takes a few tenths
of a second, divided by that count.  The ranks are 4 (or n, where n < 4) and n.  Pin BLAS to one thread
(``OMP_NUM_THREADS=1`` and ``OPENBLAS_NUM_THREADS=1``) for figures that compare between trees.  It prints only,
gates nothing, uses only the standard library and ``qubounds``, and pytest does not collect it.
"""

from __future__ import annotations

import time

from qubounds import DEFAULT_TOL, SampleConfig
from qubounds.reporting import dumps_report, run_verification_suite

DIMENSIONS = (2, 4, 16, 64, 256)
REPEATS = 3


def ms_per_trial(n: int, rank: int) -> float:
    """The best of ``REPEATS`` runs of an n-dimensional, rank-``rank`` sweep and its report, in ms per trial."""
    config = SampleConfig(dimension=n, rank=rank, seed=7, count=1024 // n + 2)
    dumps_report(run_verification_suite(config, DEFAULT_TOL))  # warm: imports, caches, the first BLAS call
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        dumps_report(run_verification_suite(config, DEFAULT_TOL))
        best = min(best, time.perf_counter() - started)
    return 1e3 * best / config.count


def main() -> None:
    for n in DIMENSIONS:
        for rank in sorted({min(4, n), n}):
            print(f"verify n={n:<4} rank={rank:<4} {ms_per_trial(n, rank):8.3f} ms/trial", flush=True)


if __name__ == "__main__":
    main()
