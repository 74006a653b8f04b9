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
benchmark's median.  Each line is one kind: the median over the processes of each one's median nominal µs; the last
two give the cycle's p50 and p90 likewise.

It prints only, gates nothing, uses only the standard library, NumPy, ``qubounds`` and the calibration kernel, and
pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

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


def paced_us(seconds: float) -> dict:
    """Each kind's median nominal µs in this process, and the cycle's p50 and p90, each request followed by the
    ``interpreter`` kernel: its measured time times the kernel's nominal time over the kernel's mean time just before
    and just after it (``calibrate.Pace``)."""
    sys.path.insert(0, str(BENCH))
    import calibrate
    from helpers import certify_requests

    requests = certify_requests(7)
    for _ in range(WARM):
        for *_, request in requests:
            request()
    pace, samples = calibrate.Pace("interpreter"), {}
    deadline, i = time.perf_counter() + seconds, 0
    while time.perf_counter() < deadline:
        kind, _, _, request = requests[i % len(requests)]
        started = time.perf_counter_ns()
        request()
        elapsed = time.perf_counter_ns() - started
        samples.setdefault(kind, []).append(elapsed * pace.after(elapsed) / 1e3)
        i += 1
    cycle = sorted(us for kind in samples.values() for us in kind)
    medians = {kind: statistics.median(us) for kind, us in samples.items()}
    return dict(medians, p50=statistics.median(cycle), p90=cycle[int(0.9 * len(cycle))])


def main(paced: float | None) -> None:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    one = ["--one"] if paced is None else ["--one-paced", str(paced)]
    runs = [json.loads(subprocess.run([sys.executable, __file__, *one], env=env, capture_output=True, text=True,
                                      check=True).stdout) for _ in range(PROCESSES)]
    if paced is not None:
        print(f"median over {PROCESSES} processes of each one's median nominal µs, {paced:g} s paced a process")
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
