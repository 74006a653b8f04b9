"""The qubounds benchmark: one command for every end-to-end and per-layer metric.

Run from the repository root:

    python3 bench/run.py --workload sweep-n4 --seed 7 --seconds 20 --trace 0

Each run sets up the workload several times in fresh processes and reports
the median set-up time, then measures in one more process.  Every child runs
with BLAS pinned to one thread and the library imported from ``src``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The metric
names and units come from BENCHMARK.json.  Output is checked for
correctness on every run, and the exit code is 1 when any check fails.
The run record (environment, metrics) and the spans of a traced run are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# Seed used while the benchmark was built, and one held out for checking claims.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
# Set-ups per run; the median is reported as setup_s.
SETUPS = 5
# Every child of one run must finish within this many seconds in total.
RUN_BUDGET_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its last stdout line is its JSON result."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(OUT_DIR), *extra]
    done = subprocess.run(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()),
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qubounds" / "__init__.py").is_file():
        print(f"no qubounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    result = run_worker(args, [], deadline)
    setups.append(result["setup_s"])

    measured = dict(result.get("per_layer") or result["end_to_end"])
    measured["setup_s"] = (statistics.median(setups), "s")
    measured["ops_ok_frac"] = (1.0 - result["failed"] / result["attempted"], "ratio")
    metrics = {}
    for entry in wanted:
        value, unit = measured[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    correct = result["failed"] == 0
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": result["environment"],
              "setups_s": setups, "attempted": result["attempted"], "failed": result["failed"],
              "messages": result["messages"], "all_metrics": measured,
              "samples": result.get("samples"), "wall": result.get("wall")}
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for message in result["messages"]:
        print("failure: " + message.strip().replace("\n", " | "))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
