"""Certify request microseconds, in process, for each request kind at n = 2, 4 and 8.

    python tests/certify_timing.py

The requests are those of ``helpers.certify_requests`` at seed 7, each shaped as an op of the benchmark's
certify-saturating workload: fresh Observables and state from raw arrays, then the checker; or fresh Observables,
the constructor, then its checker.  Each of ``PROCESSES`` fresh processes, with BLAS on one thread, warms every
request up, then times it ``REPEATS`` times and keeps its best.  Each line is one kind: the median over the
processes of those bests, in µs, at each n.  One process settles nothing, as a request's in-process time sits at
one of two levels per process.  It prints only, gates nothing, uses only the standard library, NumPy and
``qubounds``, and pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

PROCESSES = 5
WARM = 50
REPEATS = 300
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def best_us() -> dict:
    """Each request's best time in this process, in µs, keyed ``kind n``."""
    from helpers import certify_requests

    best = {}
    for kind, n, _, request in certify_requests(7):
        for _ in range(WARM):
            request()
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            request()
            times.append(time.perf_counter() - started)
        best[f"{kind} {n}"] = 1e6 * min(times)
    return best


def main() -> None:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--one"], env=env, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(PROCESSES)]
    kinds = {}
    for key in runs[0]:
        kind, n = key.split()
        kinds.setdefault(kind, {})[n] = statistics.median(run[key] for run in runs)
    print(f"median over {PROCESSES} processes of each one's best of {REPEATS}, in µs")
    for kind, by_n in kinds.items():
        print(f"{kind:12}" + "".join(f"  n={n} {us:6.1f}" for n, us in by_n.items()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--one"]:
        json.dump(best_us(), sys.stdout)
    else:
        main()
