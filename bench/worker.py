"""One benchmark run of one workload, in its own single-threaded process.

Usage (normally started by run.py, with ``src`` on PYTHONPATH and BLAS
pinned to one thread):

    python3 bench/worker.py --workload sweep-n4 --seed 7 --seconds 20 --trace 0

Set-up (imports, input generation, warm-up) is timed first.  The untraced
phase then cycles through the workload's operations for the run's length;
with ``--trace 1`` it takes half the run, and a traced phase of whole passes
over the operations follows.  A correctness gate runs last, untimed.  The
result is one JSON line on stdout.  ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import qubounds  # noqa: E402
import qubounds.goldens as goldens  # noqa: E402
import qubounds.reporting as reporting  # noqa: E402
import qubounds.sampling as sampling  # noqa: E402
import calibrate  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from spans import Tracer, find_wrappers  # noqa: E402
from workloads import WORKLOADS, build_certify  # noqa: E402

# Span names whose results are inspected: certificates returned per checker
# call, and bytes of canonical report JSON.
CHECKERS = (
    "saturation.robertson_saturation_pure",
    "saturation.robertson_saturation_mixed",
    "saturation.schrodinger_saturation",
    "saturation.mp3_saturation",
    "saturation.mp6_saturation",
)

# A traced phase stops at the first pass boundary beyond this many spans, so
# the spans held in memory and written out stay a few megabytes.
SPAN_CAP = 250_000


def _is_hit(result) -> bool:
    """A certificate, or an equality check that found saturation."""
    if result is None:
        return False
    return bool(getattr(result, "saturated", True))


OBSERVERS = {name: _is_hit for name in CHECKERS}
OBSERVERS["reporting.dumps_report"] = len


class Tally:
    """Units attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, units: int, failed: int, message: str = "") -> None:
        self.attempted += units
        self.failed += failed
        if failed and message and len(self.messages) < 5:
            self.messages.append(message)


def run_op(op, tally: Tally) -> int:
    """Run one operation; an exception fails it but not the run."""
    try:
        units, failed = op()
    except Exception:  # the loop must keep measuring; the failure is counted
        tally.add(1, 1, traceback.format_exc(limit=3))
        return 1
    tally.add(units, failed, "operation reported a failed unit" if failed else "")
    return units


def paced_op(op, tally: Tally, pace: calibrate.Pace) -> tuple[int, int, float]:
    """Run one operation, then the kernel: units, measured ns, nominal ns."""
    t0 = time.perf_counter_ns()
    units = run_op(op, tally)
    elapsed = time.perf_counter_ns() - t0
    return units, elapsed, elapsed * pace.after(elapsed)


def timed_loop(ops, kernel: str, seconds: float,
               tally: Tally) -> tuple[int, float, int, list[float]]:
    """Cycle through ops for ``seconds``, pacing each with a calibration kernel.

    Returns the units done, their total nominal and measured time in ns,
    and the nominal microseconds per unit of each operation.
    """
    pace = calibrate.Pace(kernel)
    units_done, nominal_ns, measured_ns, samples = 0, 0.0, 0, []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while time.perf_counter_ns() < deadline:
        units, elapsed, nominal = paced_op(ops[i % len(ops)], tally, pace)
        i += 1
        units_done += units
        nominal_ns += nominal
        measured_ns += elapsed
        samples.append(nominal / 1e3 / units)
    return units_done, nominal_ns, measured_ns, samples


def traced_phase(ops, kernel: str, seconds: float, tally: Tally, out_dir: Path, name: str):
    """Whole passes over ops under the tracer, paced like the timed loop.

    Returns the units done, their nominal and measured time in ns, and the
    tracer, whose spans are written to ``out_dir`` once the wrappers are gone.
    """
    pace = calibrate.Pace(kernel)
    units_done, nominal_ns, measured_ns = 0, 0.0, 0
    with Tracer(OBSERVERS) as tracer:
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while True:
            for op in ops:
                units, elapsed, nominal = paced_op(op, tally, pace)
                units_done += units
                measured_ns += elapsed
                nominal_ns += nominal
            if time.perf_counter_ns() >= deadline or len(tracer) >= SPAN_CAP:
                break
    leftover = find_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    tracer.write(out_dir / f"{name}.spans.json")
    return units_done, nominal_ns, measured_ns, tracer


def layer_metrics(tracer: Tracer, units: int, scale: float) -> dict:
    """Calls and nominal self time per unit for every span name."""
    totals = tracer.totals()
    metrics = {}
    for span in sorted(set(tracer.names)):
        calls, self_ns = totals.get(span, (0, 0))
        metrics[f"{span}.calls"] = (calls / units, "count/op")
        metrics[f"{span}.self_us"] = (self_ns * scale / 1e3 / units, "us/op")
    checker_calls = sum(totals.get(name, (0, 0))[0] for name in CHECKERS)
    hits = sum(tracer.observed.get(name, 0) for name in CHECKERS)
    metrics["saturation.certificate_hit_ratio"] = (
        hits / checker_calls if checker_calls else 0.0, "ratio")
    metrics["reporting.report_bytes"] = (
        tracer.observed.get("reporting.dumps_report", 0) / units, "B/op")
    return metrics


def body_digest(config) -> tuple[str, int]:
    report = reporting.run_verification_suite(config, qubounds.DEFAULT_TOL)
    body = json.dumps(reporting.report_body_dict(report), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest(), report.summary["failure_count"]


def correctness_gate(seed: int, tally: Tally) -> None:
    """The four checks every run makes, each counted as attempted units."""
    config = sampling.SampleConfig(dimension=4, rank=4, seed=seed, count=3)
    first, failures_1 = body_digest(config)
    second, failures_2 = body_digest(config)
    tally.add(2 * config.count, min(2 * config.count, failures_1 + failures_2),
              f"gate sweep failure_count {failures_1} + {failures_2}")
    tally.add(1, int(first != second), "same-seed sweeps differ in report_body_dict")
    for result in goldens.run_goldens():
        tally.add(1, int(not result.passed), f"golden {result.golden_id}: {result.detail}")
    for op in build_certify(seed):
        run_op(op, tally)


def environment() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]
    blas = config.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "qubounds": qubounds.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=Path(".bench_out"))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    warm = Tally()
    for i in range(workload.warmup_ops):
        run_op(ops[i % len(ops)], warm)
    setup_s = time.perf_counter() - _START
    nominal_setup_s = setup_s * calibrate.scale_now(workload.kernel)
    if args.setup_only:
        print(json.dumps({"setup_s": nominal_setup_s}))
        return 0

    tally = Tally()
    tally.add(warm.attempted, warm.failed, "; ".join(warm.messages))
    leftover = find_wrappers()
    if leftover:
        raise RuntimeError(f"untraced run holds tracing wrappers: {leftover}")
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    units, nominal_ns, measured_ns, samples = timed_loop(
        ops, workload.kernel, untraced_seconds, tally)
    ops_per_s = units / (nominal_ns / 1e9)
    result = {"setup_s": nominal_setup_s, "environment": environment()}
    if args.trace:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        traced_units, traced_nominal_ns, traced_ns, tracer = traced_phase(
            ops, workload.kernel, args.seconds / 2, tally, args.out_dir, args.workload)
        metrics = layer_metrics(tracer, traced_units, traced_nominal_ns / traced_ns)
        traced_ops_per_s = traced_units / (traced_nominal_ns / 1e9)
        metrics["trace.overhead_frac"] = (ops_per_s / traced_ops_per_s - 1.0, "ratio")
        result["per_layer"] = metrics
    else:
        p50, p90 = np.percentile(samples, [50, 90])
        result["end_to_end"] = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_us_p50": (float(p50), "us"),
            "op_us_p90": (float(p90), "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["samples"] = len(samples)
        result["wall"] = {"ops_per_s": units / (measured_ns / 1e9), "setup_s": setup_s}
    correctness_gate(args.seed, tally)
    result.update(attempted=tally.attempted, failed=tally.failed, messages=tally.messages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
