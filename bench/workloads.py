"""The benchmark's workloads: inputs made from a seed, and the operations run on them.

Each workload is a fixed, seed-determined list of operations that the timed
loop cycles through.  An operation returns ``(units, failed)``: how many
trials or requests it served and how many of those failed.  The library is
called through its module attributes at call time, so that a traced run sees
every call the benchmark makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qubounds.linalg as linalg
import qubounds.reporting as reporting
import qubounds.sampling as sampling
import qubounds.saturation as saturation
import qubounds.states as states

Op = Callable[[], tuple[int, int]]

# Trials per run_verification_suite call: 10 to 15 ms of work per call at
# either size, so a 20 s run holds about a thousand latency samples or more.
SWEEP_COUNT = {4: 4, 64: 1}
# Distinct sweep seeds cycled through by a sweep workload.
SWEEP_POOL = 8
# Dimensions and planted instances per (dimension, checker) slot on certify-saturating.
CERTIFY_DIMS = (2, 4, 8)
CERTIFY_PER_SLOT = 4
# Requests per certify-saturating cycle: two qubit poles, then five checker
# kinds per dimension and slot.
CERTIFY_CYCLE = 2 + 5 * len(CERTIFY_DIMS) * CERTIFY_PER_SLOT


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    # Operations run once before timing, charged to set-up.
    warmup_ops: int
    # Calibration kernel that paces the workload (see calibrate.KERNELS).
    kernel: str


# ---------------------------------------------------------------------------
# Sweeps


def sweep_op(config) -> Op:
    """One seeded verification sweep and its canonical JSON report."""

    def op():
        report = reporting.run_verification_suite(config, linalg.DEFAULT_TOL)
        reporting.dumps_report(report)
        failed_trials = {failure["trial"] for failure in report.summary["failures"]}
        return config.count, len(failed_trials)

    return op


def build_sweep(n: int) -> Callable[[int], list]:
    def build(seed: int) -> list:
        return [
            sweep_op(sampling.SampleConfig(
                dimension=n, rank=4, seed=seed * 1000 + i, count=SWEEP_COUNT[n]))
            for i in range(SWEEP_POOL)
        ]

    return build


# ---------------------------------------------------------------------------
# Planted saturating instances


def _complex_normal(rng, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


def _hermitian(rng, n: int) -> np.ndarray:
    g = _complex_normal(rng, n, n)
    return (g + g.conj().T) / 2


def plant(rng, n: int, k: int, theta: float, phi: float):
    """Raw (A, B, rho, psi) with cos(theta) A_c rho^r + e^{i phi} sin(theta) B_c rho^r = 0.

    rho has rank k < n.  The observables vanish on its support block and have
    proportional off-diagonal blocks, so the dependence closes with the given
    angles; a Haar rotation hides the block structure.  psi is the first
    support vector, which is the rank-1 state when k = 1.  phi = pi/2 gives
    the pure-phase (Robertson) form.
    """
    m_block = _complex_normal(rng, n - k, k)
    n_block = -np.exp(-1j * phi) / math.tan(theta) * m_block
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[k:, :k] = m_block
    a[:k, k:] = m_block.conj().T
    b[k:, :k] = n_block
    b[:k, k:] = n_block.conj().T
    a[k:, k:] = _hermitian(rng, n - k)
    b[k:, k:] = _hermitian(rng, n - k)
    weights = rng.uniform(0.2, 1.0, size=k)
    rho = np.zeros((n, n), dtype=complex)
    rho[:k, :k] = np.diag(weights / weights.sum())
    u = sampling.haar_unitary(n, rng)
    a = u @ a @ u.conj().T
    b = u @ b @ u.conj().T
    rho = u @ rho @ u.conj().T
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2, (rho + rho.conj().T) / 2, u[:, 0].copy()


def _certificate_op(checker: str, a, b, state, state_type) -> Op:
    def op():
        cert = getattr(saturation, checker)(
            states.Observable(a), states.Observable(b), state_type(state))
        return 1, int(cert is None)

    return op


def _construction_op(construct: str, check: str, a, b) -> Op:
    """Build the saturating pair for (A, B), then confirm its equality."""

    def op():
        obs_a, obs_b = states.Observable(a), states.Observable(b)
        pair = getattr(saturation, construct)(obs_a, obs_b)
        equality = getattr(saturation, check)(obs_a, obs_b, pair.psi, pair.phi, pair.mu)
        return 1, int(not equality.saturated)

    return op


def _qubit_pole_ops() -> list:
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return [
        _certificate_op("robertson_saturation_pure", sigma_x, sigma_y,
                        np.array(amplitudes, dtype=complex), states.PureState)
        for amplitudes in ([1, 0], [0, 1])
    ]


def build_certify(seed: int) -> list:
    """One checker call per request, cycling through every checker and size.

    The mixed instances have rank k < n, so the certificate's re-verification
    at every power of rho runs; the constructed pairs close mp3 or mp6.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ops = _qubit_pole_ops()
    for _ in range(CERTIFY_PER_SLOT):
        for n in CERTIFY_DIMS:
            theta = rng.uniform(0.2, math.pi / 2 - 0.2)
            phi = rng.uniform(0.3, 2 * math.pi - 0.3)
            a, b, _, psi = plant(rng, n, 1, theta, math.pi / 2)
            ops.append(_certificate_op("robertson_saturation_pure",
                                       a, b, psi, states.PureState))
            k = int(rng.integers(1, n))
            a, b, rho, _ = plant(rng, n, k, theta, math.pi / 2)
            ops.append(_certificate_op("robertson_saturation_mixed",
                                       a, b, rho, states.DensityMatrix))
            a, b, rho, _ = plant(rng, n, k, theta, phi)
            ops.append(_certificate_op("schrodinger_saturation",
                                       a, b, rho, states.DensityMatrix))
            construct = "construct_case1" if n == 2 else "construct_case2"
            ops.append(_construction_op(construct, "mp3_saturation",
                                        _hermitian(rng, n), _hermitian(rng, n)))
            ops.append(_construction_op("construct_w_mp6", "mp6_saturation",
                                        _hermitian(rng, n), _hermitian(rng, n)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-n4", build_sweep(4), warmup_ops=2, kernel="interpreter"),
        Workload("sweep-n64", build_sweep(64), warmup_ops=2, kernel="lapack"),
        Workload("certify-saturating", build_certify, warmup_ops=CERTIFY_CYCLE,
                 kernel="interpreter"),
    )
}
