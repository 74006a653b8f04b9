"""Certify request microseconds for each request kind at n = 2, 4 and 8: in process, or paced as the benchmark paces.

    python tests/certify_timing.py
    python tests/certify_timing.py --paced [SECONDS]

The requests are those of ``helpers.certify_requests`` at seed 7, each shaped as an op of the benchmark's
certify-saturating workload: fresh Observables and state from raw arrays, then the checker; or fresh Observables,
the constructor, then its checker.  Each of ``PROCESSES`` fresh processes runs with BLAS on one thread.

In process, each warms every request up, then times it ``REPEATS`` times and keeps its best.  Each line is one
kind: the median over the processes of those bests, in µs, at each n.  One process settles nothing, as a request's
in-process time sits at one of two levels per process.

``--paced`` warms every request up, then cycles through the requests for SECONDS (default ``PACED_SECONDS``) in
each process, and follows each one with the ``interpreter`` calibration kernel of ``bench/calibrate.py`` (imported,
not changed), which turns its time into nominal time as ``bench/worker.py`` does.  The kernel evicts the library's
code and data, so each request runs cold, as in the benchmark; the in-process best hides which kinds set the
benchmark's median.  It then cycles the same way, for SECONDS more, through the benchmark's own certify-saturating
cycle, ``bench/workloads.build_certify(7)`` (imported, not changed): its 62 requests weigh the kinds as the
benchmark does.  Each line is one kind: the median over the processes of each one's median nominal µs; the next two
give the requests' cycle p50 and p90 likewise, and the last two the benchmark cycle's, each percentile taken as
``bench/worker.py`` takes it.

It prints only, gates nothing, uses only the standard library, NumPy, ``qubounds`` and those two benchmark modules,
and pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PROCESSES = 5
WARM = 50
REPEATS = 300
PACED_SECONDS = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def cycled_us(calls: list, seconds: float, pace) -> dict:
    """Nominal µs of each run, by key, cycling through ``calls`` (key, callable) for ``seconds``, each call followed
    by the pacing kernel: its measured time times the kernel's nominal time over the kernel's mean time just before
    and just after it (``calibrate.Pace``)."""
    samples, deadline, i = {}, time.perf_counter() + seconds, 0
    while time.perf_counter() < deadline:
        key, call = calls[i % len(calls)]
        started = time.perf_counter_ns()
        call()
        elapsed = time.perf_counter_ns() - started
        samples.setdefault(key, []).append(elapsed * pace.after(elapsed) / 1e3)
        i += 1
    return samples


def paced_us(seconds: float) -> dict:
    """Each kind's median nominal µs in this process and the requests' cycle p50 and p90, then the p50 and p90 of
    the benchmark's certify cycle, each request followed by the ``interpreter`` kernel."""
    sys.path.insert(0, str(BENCH))
    import calibrate
    import workloads
    from helpers import certify_requests

    requests = [(kind, request) for kind, _, _, request in certify_requests(7)]
    ops = [("bench", op) for op in workloads.build_certify(7)]
    for _ in range(WARM):
        for _, call in requests + ops:
            call()
    pace = calibrate.Pace("interpreter")
    samples = cycled_us(requests, seconds, pace)
    cycle = np.percentile([us for kind in samples.values() for us in kind], [50, 90])
    bench = np.percentile(cycled_us(ops, seconds, pace)["bench"], [50, 90])
    result = {kind: statistics.median(us) for kind, us in samples.items()}
    result.update(zip(("p50", "p90", "bench p50", "bench p90"), map(float, [*cycle, *bench])))
    return result


def main(paced: float | None) -> None:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    one = ["--one"] if paced is None else ["--one-paced", str(paced)]
    runs = [json.loads(subprocess.run([sys.executable, __file__, *one], env=env, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(PROCESSES)]
    if paced is not None:
        print(f"median over {PROCESSES} processes of each one's median nominal µs, {paced:g} s paced a cycle")
        for key in runs[0]:
            print(f"{key:12}  {statistics.median(run[key] for run in runs):6.1f}", flush=True)
        return
    kinds = {}
    for key in runs[0]:
        kind, n = key.split()
        kinds.setdefault(kind, {})[n] = statistics.median(run[key] for run in runs)
    print(f"median over {PROCESSES} processes of each one's best of {REPEATS}, in µs")
    for kind, by_n in kinds.items():
        print(f"{kind:12}" + "".join(f"  n={n} {us:6.1f}" for n, us in by_n.items()), flush=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--one"]:
        json.dump(best_us(), sys.stdout)
    elif args[:1] == ["--one-paced"]:
        json.dump(paced_us(float(args[1])), sys.stdout)
    elif args[:1] == ["--paced"]:
        main(float(args[1]) if args[1:] else PACED_SECONDS)
    else:
        main(None)
