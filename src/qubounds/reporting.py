"""Run manifests, suite reports, and their JSON/CSV serialization.

Report bodies are deterministic functions of (config, tolerance): per-trial
randomness comes from streams derived from (seed, trial index), records are
assembled in trial order, and JSON is emitted with sorted keys.  Only the
manifest timestamps differ between identical reruns.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BoundViolation,
    DimensionMismatch,
    QuboundsError,
    ZeroDeviation,
)
from .linalg import Tolerance, as_complex_matrix
from .relations import BoundReport, mp3, mp6, mp_chain, robertson, schrodinger
from .sampling import (
    SampleConfig,
    haar_unitary,
    random_density,
    random_hermitian,
    random_pure_state,
    trial_rng,
)
from .saturation import (
    CONSTRUCTION_TOL,
    SaturationCertificate,
    construct_case1,
    construct_case2,
    construct_w_mp6,
    robertson_saturation_mixed,
    robertson_saturation_pure,
    schrodinger_saturation,
)
from .states import Observable, PureState

ARTIFACT_VERSION = "0.1.0"


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


def matrix_to_json_dict(m) -> dict:
    """{"rows", "cols", "re", "im"}: complex entries split for portability."""
    a = as_complex_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json_dict(d: dict) -> np.ndarray:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
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
        "tolerance": asdict(report.tol_used),
        "inputs_digest": report.inputs_digest,
    }


def bound_report_from_dict(d: dict) -> BoundReport:
    return BoundReport(
        lhs=float(d["lhs"]),
        rhs=float(d["rhs"]),
        slack=float(d["slack"]),
        saturated=bool(d["saturated"]),
        tol_used=Tolerance(**d["tolerance"]),
        inputs_digest=str(d["inputs_digest"]),
    )


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
    # Shallow on purpose: asdict on the whole report would deep-copy every trial.
    return {
        "manifest": asdict(report.manifest),
        "trials": list(report.trials),
        "summary": report.summary,
    }


def report_from_dict(d: dict) -> SuiteReport:
    manifest = d["manifest"]
    config = manifest.get("config")
    return SuiteReport(
        manifest=RunManifest(**dict(
            manifest,
            config=None if config is None else SampleConfig(**config),
            tolerance=Tolerance(**manifest["tolerance"]),
        )),
        trials=tuple(d["trials"]),
        summary=dict(d["summary"]),
    )


def dumps_report(report: SuiteReport) -> str:
    """Canonical strict JSON: floats round-trip bit-faithfully; NaN or inf raises ValueError."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False)


def loads_report(text: str) -> SuiteReport:
    return report_from_dict(json.loads(text))


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


class _Summary:
    def __init__(self):
        self.min_slack: dict[str, float] = {}
        self.saturation_counts: dict[str, int] = {}
        self.failures: list[dict] = []

    def record(self, name: str, report: BoundReport) -> None:
        if name not in self.min_slack or report.slack < self.min_slack[name]:
            self.min_slack[name] = report.slack
        self.saturation_counts.setdefault(name, 0)
        if report.saturated:
            self.saturation_counts[name] += 1

    def fail(self, trial: int, where: str, exc: Exception) -> None:
        self.failures.append(
            {"trial": trial, "where": where, "error": type(exc).__name__, "message": str(exc)}
        )


def run_verification_suite(config: SampleConfig, tol: Tolerance) -> SuiteReport:
    """Evaluate every bound, checker, and construction over seeded random inputs."""
    started = _utc_now()
    summary = _Summary()
    trials = []
    n = config.dimension
    for k in range(config.count):
        rng = trial_rng(config.seed, k)
        obs_a = random_hermitian(n, rng, label="A")
        obs_b = random_hermitian(n, rng, label="B")
        psi = random_pure_state(n, rng)
        rho = random_density(n, config.rank, rng)
        frame = haar_unitary(n, rng) if n >= 2 else None
        record: dict = {"trial": k}

        def bound(name: str, fn) -> BoundReport | None:
            try:
                rep = fn()
            except QuboundsError as exc:
                summary.fail(k, name, exc)
                record[name] = {"error": type(exc).__name__}
                return None
            record[name] = bound_report_to_dict(rep)
            summary.record(name, rep)
            return rep

        bound("robertson_pure", lambda: robertson(obs_a, obs_b, psi, tol))
        bound("schrodinger_pure", lambda: schrodinger(obs_a, obs_b, psi, tol))
        bound("robertson_mixed", lambda: robertson(obs_a, obs_b, rho, tol))
        bound("schrodinger_mixed", lambda: schrodinger(obs_a, obs_b, rho, tol))

        if frame is not None:
            pair = PureState(frame[:, 0]), PureState(frame[:, 1])
            bound("mp3", lambda: mp3(obs_a, obs_b, *pair, tol).report)
            try:
                reports = mp6(obs_a, obs_b, *pair, tol)
            except ZeroDeviation:
                record["mp6_reformulated"] = {"skipped": "zero deviation"}
            except QuboundsError as exc:
                summary.fail(k, "mp6", exc)
                record["mp6_reformulated"] = {"error": type(exc).__name__}
            else:
                record["mp6_reformulated"] = bound_report_to_dict(reports.reformulated)
                summary.record("mp6_reformulated", reports.reformulated)
                if reports.product is not None:
                    record["mp6_product"] = bound_report_to_dict(reports.product)
                    summary.record("mp6_product", reports.product)
            try:
                chain = mp_chain(obs_a, obs_b, *pair, 1j, tol)
            except QuboundsError as exc:
                summary.fail(k, "mp_chain", exc)
            else:
                for idx, step in enumerate(chain.steps, start=1):
                    record[f"chain_step{idx}"] = bound_report_to_dict(step)
                    summary.record(f"chain_step{idx}", step)

        def checker(name: str, fn) -> None:
            try:
                cert = fn()
            except QuboundsError as exc:
                summary.fail(k, name, exc)
                record[name] = {"error": type(exc).__name__}
            else:
                record[name] = certificate_to_dict(cert)

        checker("robertson_pure_certificate",
                lambda: robertson_saturation_pure(obs_a, obs_b, psi, tol))
        checker("robertson_mixed_certificate",
                lambda: robertson_saturation_mixed(obs_a, obs_b, rho, tol))
        checker("schrodinger_certificate",
                lambda: schrodinger_saturation(obs_a, obs_b, rho, tol))

        def construction(name: str, fn) -> None:
            try:
                pair = fn()
            except ZeroDeviation:
                record[name] = {"skipped": "zero deviation"}
                return
            except QuboundsError as exc:
                summary.fail(k, name, exc)
                record[name] = {"error": type(exc).__name__}
                return
            record[name] = {
                "mu": [pair.mu.real, pair.mu.imag],
                "achieved_slack": pair.achieved_slack,
                "degenerate": pair.degenerate,
            }
            if abs(pair.achieved_slack) > CONSTRUCTION_TOL:
                summary.fail(
                    k, name,
                    BoundViolation(f"construction gap {pair.achieved_slack:.3e}"),
                )

        if n == 2:
            construction("construct_case1", lambda: construct_case1(obs_a, obs_b, tol))
        elif n > 2:
            construction("construct_case2", lambda: construct_case2(obs_a, obs_b, tol))
        if n >= 2:
            construction("construct_w_mp6", lambda: construct_w_mp6(obs_a, obs_b, tol))

        trials.append(record)

    manifest = RunManifest(
        command="verify",
        config=config,
        tolerance=tol,
        started=started,
        finished=_utc_now(),
        artifact_version=ARTIFACT_VERSION,
        seed=config.seed,
    )
    return SuiteReport(
        manifest=manifest,
        trials=tuple(trials),
        summary={
            "min_slack": summary.min_slack,
            "saturation_counts": summary.saturation_counts,
            "failure_count": len(summary.failures),
            "failures": summary.failures,
        },
    )


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
