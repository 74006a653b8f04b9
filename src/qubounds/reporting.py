"""Run manifests, suite reports, and their JSON/CSV serialization.

Report bodies are deterministic functions of (config, tolerance): per-trial
randomness comes from streams derived from (seed, trial index), records are
assembled in trial order, and JSON is emitted with sorted keys.  Only the
manifest timestamps differ between identical reruns.  Reports are written,
never read back; the one reader here loads an observable pair for ``saturate``.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import BoundViolation, DimensionMismatch, QuboundsError, ZeroDeviation
from .goldens import run_goldens
from .linalg import DEFAULT_TOL, Tolerance, _grams
from .relations import (BoundReport, MP6Reports, _cross_elements, _mp3, _mp6, _mp_chain, _mp_reduction,
                        _robertson_report, _schrodinger_report)
from .sampling import _ROOT_I, SampleConfig, _complex_parts, _full_rank, _haar_stack, _unit_rows, trial_rng
from .saturation import (_CONSTRUCTIONS, CONSTRUCTION_TOL, CertificateKind, ConstructedPair, SaturationCertificate,
                         _certificate, _constructions, _e1, _outcome, _raised)
from .states import DensityMatrix, Observable, PureState, _moments, _pair_moments

ARTIFACT_VERSION = "0.10.0"
# Bytes of a chunk's largest stack, one complex n x n matrix per trial: a sweep's memory does not grow
# with its trials, and at n = 64 a chunk is one trial, below the 128 KiB at which glibc's malloc maps pages.
CHUNK_BYTES = 1 << 16


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
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int() of an infinite row count overflows
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise DimensionMismatch(
            f"matrix payload shape {re.shape}/{im.shape} does not match ({rows}, {cols})"
        )
    return re + 1j * im


# ---------------------------------------------------------------------------
# Record serialization


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "saturated": report.saturated,
        # Written out: asdict would deep-copy the tolerance for each of a trial's records.
        "tolerance": {"eps": report.tol_used.eps},
        "inputs_digest": report.inputs_digest,
    }


def certificate_to_dict(cert: SaturationCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "kind": cert.kind.value,
        "theta": cert.theta,
        "phi": cert.phi,
        "mu": None if cert.mu is None else [cert.mu.real, cert.mu.imag],
        "residual": cert.residual,
        "r_checked": list(cert.r_checked),
        "r_residuals": list(cert.r_residuals),
    }


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


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class _Summary:
    min_slack: dict[str, float] = field(default_factory=dict)
    saturation_counts: dict[str, int] = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, trial: int, where: str, exc: Exception) -> None:
        self.failures.append(
            {"trial": trial, "where": where, "error": type(exc).__name__, "message": str(exc)}
        )

    def entry(self, trial: int, name: str, result) -> dict | None:
        """The record entry for a bound report, a certificate or a construction."""
        if isinstance(result, BoundReport):
            if name not in self.min_slack or result.slack < self.min_slack[name]:
                self.min_slack[name] = result.slack
            self.saturation_counts[name] = self.saturation_counts.get(name, 0) + result.saturated
            return bound_report_to_dict(result)
        if not isinstance(result, ConstructedPair):
            return certificate_to_dict(result)
        if abs(result.achieved_slack) > CONSTRUCTION_TOL:
            self.fail(trial, name, BoundViolation(f"construction gap {result.achieved_slack:.3e}"))
        return {
            "mu": [result.mu.real, result.mu.imag],
            "achieved_slack": result.achieved_slack,
            "degenerate": result.degenerate,
        }

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


def _mp6_results(reports: MP6Reports) -> dict:
    results = {"mp6_reformulated": reports.reformulated}
    if reports.product is not None:
        results["mp6_product"] = reports.product
    return results


def _trial_inputs(config: SampleConfig):
    """Each chunk of trials (see below): the stacks of its As and Bs, the rows (T, 3, n) of its psis and Haar
    pairs ((T, 1, n) at n = 1), and each trial's (k, A, B, psi, rho, Haar pair or None)."""
    n, rank = config.dimension, config.rank
    ends = list(itertools.accumulate((n * n, n * n, 2 * n, 2 * n * rank, 4 * n if n >= 2 else 0)))
    per_chunk = max(1, CHUNK_BYTES // (16 * n * n))
    for first in range(0, config.count, per_chunk):
        ks = range(first, min(first + per_chunk, config.count))
        rngs = [trial_rng(config.seed, k) for k in ks]
        draws = np.empty((len(ks), ends[-1]))
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row[: ends[3]])
        a_stack, a = Observable._hermitian_parts(_ROOT_I * draws[:, : ends[0]].reshape(-1, n, n), "A")
        b_stack, b = Observable._hermitian_parts(_ROOT_I * draws[:, ends[0]: ends[1]].reshape(-1, n, n), "B")
        factors = _complex_parts(draws[:, ends[2]: ends[3]], n, rank)
        rhos = [_full_rank(rho, rng, rank) for rho, rng in zip(DensityMatrix._from_factors(factors), rngs)]
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row[ends[3]:])
        # One state pass: each trial's psi, then its Haar pair's two columns.
        rows = np.empty((len(ks), 3 if n >= 2 else 1, n), dtype=complex)
        rows[:, 0] = _unit_rows(_complex_parts(draws[:, ends[1]: ends[2]], n))
        if n >= 2:
            rows[:, 1:] = np.swapaxes(_haar_stack(_complex_parts(draws[:, ends[3]:], n, 2)), 1, 2)
        states = PureState._stack(rows.reshape(-1, n))
        pairs = [None] * len(ks) if n < 2 else list(zip(states[1::3], states[2::3]))
        yield a_stack[:, None], b_stack[:, None], rows, list(zip(ks, a, b, states[:: rows.shape[1]], rhos, pairs))


def run_verification_suite(config: SampleConfig, tol: Tolerance) -> SuiteReport:
    """Evaluate every bound, checker, and construction over seeded random inputs.

    A chunk of trials, sized by ``CHUNK_BYTES``, draws from each trial's own ``trial_rng(seed, k)`` in
    the public samplers' order: A, B, psi, the factor G of rho (and its one redraw), then the n x 2 Haar
    block.  The samplers' bodies then build the chunk as stacks, byte-identical to the samplers' inputs:
    one Hermitian-part pass for its As and one for its Bs, one ``eigh`` of its Gram matrices, one QR, one
    state pass for its psis and Haar columns.  The chunk is reduced as stacks too, each slice equal to the
    one-trial call byte for byte: one moments-body call (:func:`~qubounds.states.pair_moments`) for the n x 1
    states of its trials (psi, the Maccone-Pati psi_f and e1, built once), one for its rhos' factors, one
    product for the pairs' c and d, one Gram product for their checks, and one constructions-body call
    (:func:`~qubounds.saturation._constructions`) for both constructions of every trial, which share the
    trial's e1 moments.  Only the bound decisions, the record entries and digests run per trial.
    Each evaluation leaves one record entry: its result (a dict names several),
    a skip on :class:`ZeroDeviation`, or an error on any other :class:`QuboundsError`.  A trial's Maccone-Pati
    reduction, by the entries' own body (:func:`~qubounds.relations._mp_reduction`) on its slices, and its
    constructions are outcomes (the result or the error raised, :func:`~qubounds.saturation._outcome`) that each
    evaluation reading them raises; the other triples
    cannot raise on a trial's inputs, valid by construction with A and B Hermitian bit for bit.
    """
    started = _utc_now()
    summary = _Summary()
    trials = []
    n = config.dimension
    e1 = _e1(n)
    targets = tuple(target for target, (_, allowed, *_) in _CONSTRUCTIONS.items() if allowed(n))
    for a_stack, b_stack, rows, chunk in _trial_inputs(config):
        columns = rows[..., None].copy()  # psi, psi_f and phi as n x 1 columns; e1 takes phi's place
        columns[:, 2:] = e1.factor
        reduced = _moments(a_stack, b_stack, columns)
        # Each trial's moments of each column: the stacked call's (means, Gram matrix, centred pair) slices.
        moments = [list(zip(*x)) for x in zip(*reduced)]
        rho_moments = zip(*_moments(a_stack[:, 0], b_stack[:, 0], np.array([rho.factor for *_, rho, _ in chunk])))
        if n >= 2:
            pair_grams = _grams(rows[:, 1:])
            cds = list(zip(*_cross_elements(a_stack[:, 0], b_stack[:, 0], columns[:, 1], rows[:, 2, :, None])))
            e1_moments = [_pair_moments(a, b, e1, x[2]) for (_, a, b, *_), x in zip(chunk, moments)]
            built = _constructions(targets, a_stack[:, 0], b_stack[:, 0], e1_moments, reduced[2][:, 2], tol)
        for t, ((k, a, b, psi, rho, pair), x, rho_x) in enumerate(zip(chunk, moments, rho_moments)):
            pure = _pair_moments(a, b, psi, x[0])
            mixed = _pair_moments(a, b, rho, rho_x)
            evaluations = {
                "robertson_pure": lambda: _robertson_report(pure, tol),
                "schrodinger_pure": lambda: _schrodinger_report(pure, tol),
                "robertson_mixed": lambda: _robertson_report(mixed, tol),
                "schrodinger_mixed": lambda: _schrodinger_report(mixed, tol),
            }
            if n >= 2:
                mp = _outcome(_mp_reduction, a, b, *pair, pair_grams[t], x[1], cds[t], tol)
                evaluations["mp3"] = lambda: _mp3(_raised(mp), tol).report
                evaluations["mp6"] = lambda: _mp6_results(_mp6(_raised(mp), tol))
                evaluations["mp_chain"] = lambda: dict(zip(
                    ("chain_step1", "chain_step2", "chain_step3"), _mp_chain(_raised(mp), 1j, tol).steps))
            evaluations["robertson_pure_certificate"] = lambda: _certificate(CertificateKind.ROBERTSON_PURE, pure, tol)
            evaluations["robertson_mixed_certificate"] = (
                lambda: _certificate(CertificateKind.ROBERTSON_MIXED, mixed, tol))
            evaluations["schrodinger_certificate"] = lambda: _certificate(CertificateKind.SCHRODINGER, mixed, tol)
            for j, target in enumerate(targets):
                evaluations[f"construct_{target}"] = functools.partial(_raised, built[t][j])

            record: dict = {"trial": k}
            for where, evaluate in evaluations.items():
                # mp6 files its skip and error entries under its always-present report.
                key = "mp6_reformulated" if where == "mp6" else where
                try:
                    result = evaluate()
                except ZeroDeviation:
                    record[key] = {"skipped": "zero deviation"}
                except QuboundsError as exc:
                    summary.fail(k, where, exc)
                    record[key] = {"error": type(exc).__name__}
                else:
                    results = result if isinstance(result, dict) else {where: result}
                    for name, value in results.items():
                        record[name] = summary.entry(k, name, value)
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
        payload = json.load(fh)
    try:
        raw_a = payload["a"]
        raw_b = payload["b"]
    except (KeyError, TypeError) as exc:
        raise ValueError('input file must hold {"a": matrix, "b": matrix}') from exc
    a = matrix_from_json_dict(raw_a)
    b = matrix_from_json_dict(raw_b)
    return Observable(a, label="A"), Observable(b, label="B")
