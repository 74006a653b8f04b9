"""Command-line entry point: verify | reproduce | saturate.

Exit codes: 0 success, 1 I/O or configuration problems, 2 violated
invariants (failed bounds, inconsistent checkers, failed goldens, or a
construction that does not saturate).
"""

from __future__ import annotations

import argparse
import sys

from .errors import QuboundsError
from .linalg import DEFAULT_TOL, Tolerance
from .reporting import (
    _pair_entry,
    canonical_json,
    dumps_report,
    load_observable_pair,
    run_reproduction,
    run_verification_suite,
    summary_csv,
)
from .sampling import SampleConfig
from .saturation import _CONSTRUCTIONS, CONSTRUCTION_TOL, _construct


class _Parser(argparse.ArgumentParser):
    # Flag and usage problems are configuration errors: exit 1, not 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qubounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run seeded property sweeps")
    verify.add_argument("--n", type=int, default=2, help="matrix dimension")
    verify.add_argument("--rank", type=int, default=None, help="density rank (default: n)")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=7)
    verify.add_argument("--format", choices=("json", "csv"), default="json")

    # The goldens run at DEFAULT_TOL, and reproduce writes their one JSON report.
    reproduce = sub.add_parser("reproduce", help="evaluate the golden instances")

    saturate = sub.add_parser("saturate", help="construct a saturating state pair")
    saturate.add_argument("input", help='JSON file holding {"a": matrix, "b": matrix}')
    saturate.add_argument("--target", choices=("mp3", "mp6"), required=True)

    for command in (verify, saturate):
        command.add_argument("--tol", type=float, default=DEFAULT_TOL.eps, help="tolerance eps of every check")
    for command, run in ((verify, cmd_verify), (reproduce, cmd_reproduce), (saturate, cmd_saturate)):
        command.add_argument("--out", default="-", help="output path, '-' for stdout")
        command.set_defaults(run=run)
    return parser


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(args) -> int:
    rank = args.n if args.rank is None else args.rank
    config = SampleConfig(dimension=args.n, rank=rank, seed=args.seed, count=args.trials)
    report = run_verification_suite(config, Tolerance(args.tol))
    text = summary_csv(report) if args.format == "csv" else dumps_report(report)
    _emit(text, args.out)
    return 0 if report.summary["failure_count"] == 0 else 2


def cmd_reproduce(args) -> int:
    report = run_reproduction()
    _emit(dumps_report(report), args.out)
    for trial in report.trials:
        status = "pass" if trial["passed"] else "FAIL"
        sys.stderr.write(f"{status} {trial['golden_id']}: {trial['detail']}\n")
    failures = report.summary["failures"]
    if failures:
        sys.stderr.write(f"failed goldens: {', '.join(failures)}\n")
        return 2
    return 0


def cmd_saturate(args) -> int:
    obs_a, obs_b = load_observable_pair(args.input)
    # The sweep's table: the target's first construction allowed at n, else its last, whose dimension rule raises.
    names = [name for name, (target, *_) in _CONSTRUCTIONS.items() if target == args.target]
    name = next((name for name in names if _CONSTRUCTIONS[name][1](obs_a.dimension)), names[-1])
    pair = _construct(name, obs_a, obs_b, Tolerance(args.tol))
    entry, failed = _pair_entry(pair)
    record = dict(entry, target=pair.target, construction_tol=CONSTRUCTION_TOL,
                  psi={"re": pair.psi.amplitudes.real.tolist(), "im": pair.psi.amplitudes.imag.tolist()},
                  phi={"re": pair.phi.amplitudes.real.tolist(), "im": pair.phi.amplitudes.imag.tolist()})
    _emit(canonical_json(record), args.out)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except QuboundsError as exc:
        # Bad inputs (non-Hermitian matrices, shape mismatches, InvalidInput data) are usage errors.
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
