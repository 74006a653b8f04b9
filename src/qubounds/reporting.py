"""Run manifests, suite reports, and their JSON/CSV serialization.

Report bodies are deterministic functions of (config, tolerance): per-trial randomness comes from
streams derived from (seed, trial index) (:func:`~qubounds.sampling._trial_chunks` draws), records are
assembled in trial order, and JSON is emitted with sorted keys.  Only the manifest timestamps differ
between identical reruns.  The manifest holds the tolerance; a ``verify`` trial's record names its inputs
once (``inputs``: the digests of A, B, psi, rho and the Maccone-Pati pair), and each bound's entry holds
only its decision (``lhs``, ``rhs``, ``slack``, ``saturated``), a Maccone-Pati one from c = <A_c psi, phi>
and d = <B_c psi, phi>, where each inequality is Cauchy-Schwarz for a unit phi.  Each evaluation is an outcome,
its result or the error it raised, and one method files it in the record.  Reports are written, never read
back; the one reader here loads an observable pair for ``saturate``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BoundViolation, DimensionMismatch, QuboundsError, ZeroDeviation
from .goldens import run_goldens
from .linalg import DEFAULT_TOL, Tolerance, _grams
from .relations import (_Decision, _moments_mu, _mp3_decision, _mp6_decisions, _mp_chain_decisions, _mp_reduction,
                        _robertson_decision, _schrodinger_decision)
from .sampling import SampleConfig, _trial_chunks
from .saturation import (_CONSTRUCTIONS, CONSTRUCTION_TOL, CertificateKind, ConstructedPair, SaturationCertificate,
                         _certificate, _constructions, _e1, _outcome)
from .states import Observable, _moments, _pair_moments

ARTIFACT_VERSION = "0.13.0"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to rerun a command and compare outputs."""

    command: str
    config: SampleConfig | None
    tolerance: Tolerance
    started: str
    finished: str
    artifact_version: str
    seed: int


@dataclass(frozen=True)
class SuiteReport:
    manifest: RunManifest
    trials: tuple
    summary: dict


# ---------------------------------------------------------------------------
# Matrix file format


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        rows, cols, parts = d["rows"], d["cols"], (d["re"], d["im"])
        # Only a JSON integer is a count: not 2.5, "2", true, or 1e400 (which JSON reads as inf).
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (rows, cols)):
            raise TypeError(f"rows and cols must be integers, got {rows!r} and {cols!r}")
        # Only JSON numbers are entries, not "1" or true, which float() takes; an int past float range overflows.
        if not all(type(v) in (int, float) for part in parts for row in part for v in row):
            raise TypeError("re and im must be arrays of arrays of JSON numbers")
        re, im = (np.asarray(p, dtype=float) for p in parts)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionMismatch(f"matrix payload shape {re.shape}/{im.shape} does not match ({rows}, {cols})")
    with np.errstate(invalid="ignore"):  # 1j times an infinite entry gives a NaN part: non-finite all the same
        return re + 1j * im


# ---------------------------------------------------------------------------
# Record serialization


def certificate_to_dict(cert: SaturationCertificate | None) -> dict | None:
    """Every field of ``cert`` (or None), as JSON values: the kind's value, mu as [re, im], and lists."""
    if cert is None:
        return None
    mu = None if cert.mu is None else [cert.mu.real, cert.mu.imag]
    return dict(vars(cert), kind=cert.kind.value, mu=mu, r_checked=list(cert.r_checked),
                r_residuals=list(cert.r_residuals))


def report_to_dict(report: SuiteReport) -> dict:
    # Shallow and written out: asdict would deep-copy every trial, and on the manifest alone takes 15x as long.
    manifest, config = report.manifest, report.manifest.config
    return {
        "manifest": dict(vars(manifest), config=None if config is None else dict(vars(config)),
                         tolerance={"eps": manifest.tolerance.eps}),
        "trials": list(report.trials),
        "summary": report.summary,
    }


def canonical_json(obj) -> str:
    """Compact strict JSON with sorted keys: floats round-trip bit-faithfully; NaN or inf raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dumps_report(report: SuiteReport) -> str:
    """The report in :func:`canonical_json` form."""
    return canonical_json(report_to_dict(report))


def report_body_dict(report: SuiteReport) -> dict:
    """The report with manifest timestamps blanked, for determinism checks."""
    d = report_to_dict(report)
    d["manifest"] = dict(d["manifest"], started="", finished="")
    return d


def summary_csv(report: SuiteReport) -> str:
    """Per-bound summary: one row with min slack and saturation count."""
    lines = ["bound,min_slack,saturated_count,trials"]
    min_slack = report.summary.get("min_slack", {})
    counts = report.summary.get("saturation_counts", {})
    trials = len(report.trials)
    for name in sorted(min_slack):
        lines.append(
            f"{name},{format(min_slack[name], '.17g')},{counts.get(name, 0)},{trials}"
        )
    lines.append(f"failures,{report.summary.get('failure_count', 0)},,")
    return "\n".join(lines) + "\n"


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _pair_entry(pair: ConstructedPair) -> tuple[dict, bool]:
    """A constructed pair's record entry (mu as [re, im], its gap ``achieved_slack`` and ``degenerate``), and whether
    its gap exceeds ``CONSTRUCTION_TOL``: the one gate of the sweep's "construction gap" failure and of ``saturate``'s
    exit code 2."""
    entry = {"mu": [pair.mu.real, pair.mu.imag], "achieved_slack": pair.achieved_slack, "degenerate": pair.degenerate}
    return entry, abs(pair.achieved_slack) > CONSTRUCTION_TOL


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class _Summary:
    # The entries of an evaluation that records several (a class attribute, not a field).
    ENTRIES = {"mp6": ("mp6_reformulated", "mp6_product"), "mp_chain": ("chain_step1", "chain_step2", "chain_step3")}
    min_slack: dict[str, float] = field(default_factory=dict)
    saturation_counts: dict[str, int] = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, trial: int, where: str, exc: Exception) -> None:
        self.failures.append({"trial": trial, "where": where, "error": type(exc).__name__, "message": str(exc)})

    def file(self, record: dict, trial: int, where: str, outcome) -> None:
        """File an evaluation's outcome (:func:`~qubounds.saturation._outcome`) in its trial's record: a bound's
        decision, tested first as the most common, as its sides, slack and flag; a skip for :class:`ZeroDeviation`;
        an error entry and a failure for any other :class:`QuboundsError`; each decision of a tuple (``ENTRIES``);
        a construction as its :func:`_pair_entry`, with a failure where that gates it; else a certificate or None."""
        key = "mp6_reformulated" if where == "mp6" else where  # mp6's skip or error, under its always-present entry
        if type(outcome) is _Decision:
            lhs, rhs, slack, saturated = outcome
            if where not in self.min_slack or slack < self.min_slack[where]:
                self.min_slack[where] = slack
            self.saturation_counts[where] = self.saturation_counts.get(where, 0) + saturated
            record[where] = {"lhs": lhs, "rhs": rhs, "slack": slack, "saturated": saturated}
        elif isinstance(outcome, ZeroDeviation):
            record[key] = {"skipped": "zero deviation"}
        elif isinstance(outcome, QuboundsError):
            self.fail(trial, where, outcome)
            record[key] = {"error": type(outcome).__name__}
        elif where in self.ENTRIES:
            for name, value in zip(self.ENTRIES[where], outcome):
                if value is not None:  # mp6's product form, where its denominator is degenerate
                    self.file(record, trial, name, value)
        elif isinstance(outcome, ConstructedPair):
            record[where], failed = _pair_entry(outcome)
            if failed:
                self.fail(trial, where, BoundViolation(f"construction gap {outcome.achieved_slack:.3e}"))
        else:
            record[where] = certificate_to_dict(outcome)

    def report(self, command: str, config: SampleConfig | None, tol: Tolerance,
               started: str, trials: list) -> SuiteReport:
        """The one report schema: the run manifest plus the four summary keys."""
        manifest = RunManifest(
            command=command,
            config=config,
            tolerance=tol,
            started=started,
            finished=_utc_now(),
            artifact_version=ARTIFACT_VERSION,
            seed=0 if config is None else config.seed,
        )
        summary = dict(vars(self), failure_count=len(self.failures))
        return SuiteReport(manifest=manifest, trials=tuple(trials), summary=summary)


def run_verification_suite(config: SampleConfig, tol: Tolerance) -> SuiteReport:
    """Evaluate every bound, checker, and construction over seeded random inputs.

    The trials come a chunk at a time from :func:`~qubounds.sampling._trial_chunks`, byte-identical to the
    public samplers' inputs, and each chunk is reduced as stacks, each slice the one-trial call byte for byte:
    one moments-body call (:func:`~qubounds.states.pair_moments`) for the n x 1 states of its trials (psi, the
    Maccone-Pati psi_f and e1, built once), one for its rhos' factors, one Gram product for the pairs' checks,
    and one constructions-body call (:func:`~qubounds.saturation._constructions`) for both constructions of every
    trial, which share the trial's e1 moments; every pair reads c and d from its psi's centred pair.  Only the
    bound decisions and the record entries run per trial: a trial's record names its inputs once, by the digests
    its chunk stored, each bound's entry is its decision, with no digest, and each certificate reads its bound's
    decision (or keeps that decision's error as its own outcome).  Every evaluation is an outcome
    (:func:`~qubounds.saturation._outcome`), its result or the :class:`QuboundsError` it raised, filed by
    :meth:`_Summary.file`; the Maccone-Pati reduction (:func:`~qubounds.relations._mp_reduction`, on the trial's
    slices) is one too, and where it failed, mp3, mp6 and the chain each file its error.
    """
    started = _utc_now()
    summary = _Summary()
    trials = []
    n = config.dimension
    e1 = _e1(n)
    targets = tuple(target for target, (_, allowed, *_) in _CONSTRUCTIONS.items() if allowed(n))
    for a_stack, b_stack, rows, chunk in _trial_chunks(config):
        columns = rows[..., None].copy()  # psi, psi_f and phi as n x 1 columns; e1 takes phi's place
        columns[:, 2:] = e1.factor
        reduced = _moments(a_stack, b_stack, columns)
        # Each trial's moments of each column: the stacked call's (means, Gram matrix, centred pair) slices.
        moments = [list(zip(*x)) for x in zip(*reduced)]
        rho_moments = zip(*_moments(a_stack[:, 0], b_stack[:, 0], np.array([rho._root for *_, rho, _ in chunk])))
        if n >= 2:
            pair_grams = _grams(rows[:, 1:])
            e1_moments = [_pair_moments(a, b, e1, x[2]) for (_, a, b, *_), x in zip(chunk, moments)]
            built = _constructions(targets, e1_moments, tol)
        for t, ((k, a, b, psi, rho, pair), x, rho_x) in enumerate(zip(chunk, moments, rho_moments)):
            pure = _pair_moments(a, b, psi, x[0])
            mixed = _pair_moments(a, b, rho, rho_x)
            outcomes = {"robertson_pure": _outcome(_robertson_decision, pure, tol),
                        "schrodinger_pure": _outcome(_schrodinger_decision, pure, tol),
                        "robertson_mixed": _outcome(_robertson_decision, mixed, tol),
                        "schrodinger_mixed": _outcome(_schrodinger_decision, mixed, tol)}
            if n >= 2:
                mp = _outcome(_mp_reduction, a, b, *pair, pair_grams[t], x[1], tol)
                if isinstance(mp, QuboundsError):
                    outcomes.update(dict.fromkeys(("mp3", "mp6", "mp_chain"), mp))
                else:
                    mu = _moments_mu(mp.moments, tol).mu  # mp3's and mp6's mu, as their entries pick it
                    outcomes["mp3"] = _outcome(_mp3_decision, mp, mu, tol)
                    outcomes["mp6"] = _outcome(_mp6_decisions, mp, mu, tol)
                    outcomes["mp_chain"] = _outcome(_mp_chain_decisions, mp, 1j, tol)
            # Each certificate reads its bound's decision, or files that decision's error as its own.
            for where, kind, m, bound in (
                    ("robertson_pure_certificate", CertificateKind.ROBERTSON_PURE, pure, "robertson_pure"),
                    ("robertson_mixed_certificate", CertificateKind.ROBERTSON_MIXED, mixed, "robertson_mixed"),
                    ("schrodinger_certificate", CertificateKind.SCHRODINGER, mixed, "schrodinger_mixed")):
                decision = outcomes[bound]
                outcomes[where] = (decision if isinstance(decision, QuboundsError)
                                   else _outcome(_certificate, kind, m, decision, tol))
            for j, target in enumerate(targets):
                outcomes[f"construct_{target}"] = built[t][j]

            # The trial's inputs, named once by their digests; its entries hold decisions, not reports.
            record: dict = {"trial": k, "inputs": {"a": a.digest, "b": b.digest, "psi": psi.digest, "rho": rho.digest,
                                                   "pair": None if pair is None else [s.digest for s in pair]}}
            for where, outcome in outcomes.items():
                summary.file(record, k, where, outcome)
            trials.append(record)
    return summary.report("verify", config, tol, started, trials)


def run_reproduction() -> SuiteReport:
    """Evaluate the golden instances, whose bound and checker calls run at ``DEFAULT_TOL``, the manifest's
    tolerance; the failures are the ids of the goldens that failed."""
    started = _utc_now()
    results = run_goldens()
    summary = _Summary(failures=[r.golden_id for r in results if not r.passed])
    return summary.report("reproduce", None, DEFAULT_TOL, started, [asdict(r) for r in results])


def load_observable_pair(path: str):
    """Read {"a": matrix, "b": matrix} from a JSON file, validating Hermiticity."""
    with open(path, "r", encoding="utf-8") as fh:
        try:  # JSON nested past the interpreter's recursion limit raises RecursionError
            payload = json.load(fh)
            raw_a, raw_b = payload["a"], payload["b"]
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError('input file must hold {"a": matrix, "b": matrix}') from exc
    return Observable(matrix_from_json_dict(raw_a), label="A"), Observable(matrix_from_json_dict(raw_b), label="B")
