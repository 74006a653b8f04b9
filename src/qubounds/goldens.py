"""Golden instances with exactly known values, runnable via the CLI.

Each golden evaluates one closed-form configuration and checks the computed
quantities against hand-derived constants at fixed tolerances.  The same
functions back the acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .relations import mp_chain, mu_ratio, robertson
from .sampling import bloch_state
from .saturation import (
    mp_chain_saturation,
    robertson_saturation_mixed,
    robertson_saturation_pure,
)
from .states import DensityMatrix, Observable, PureState

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Qubit phase angles on odd quarter turns solve the second chain equality.
_QUARTER_TURN_PHASES = tuple(k * math.pi / 4.0 for k in (1, 3, 5, 7))


@dataclass(frozen=True)
class GoldenResult:
    golden_id: str
    passed: bool
    detail: str
    values: dict


def _sci(value: float | None) -> str:
    """A value for a detail line; None marks one that could not be computed."""
    return "None" if value is None else f"{value:.3e}"


def block_pair_4x4() -> tuple[np.ndarray, np.ndarray, DensityMatrix]:
    """The 4x4 off-diagonal block pair with a rank-2 state on the first block."""
    zero = np.zeros((2, 2))
    eye = np.eye(2)
    a = np.block([[zero, eye], [eye, zero]])
    b = np.block([[zero, -1j * eye], [1j * eye, zero]])
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    return a, b, rho


def _golden_qubit_pole(golden_id: str, polar: float, expected: float, sides: bool) -> GoldenResult:
    """sigma_x, sigma_y on the Bloch pole at polar angle ``polar``: saturation with phase ``expected``;
    ``sides`` adds the Robertson lhs and rhs to the values."""
    psi = bloch_state(polar, 0.0)
    cert = robertson_saturation_pure(SIGMA_X, SIGMA_Y, psi)
    report = robertson(SIGMA_X, SIGMA_Y, psi)
    theta = None if cert is None else cert.theta
    theta_err = None if theta is None else abs(theta - expected)
    passed = cert is not None and theta_err <= 1e-9 and abs(report.slack) <= 1e-12
    values = {"theta": theta, "theta_error": theta_err, "slack": report.slack}
    if sides:
        values.update(lhs=report.lhs, rhs=report.rhs)
    return GoldenResult(golden_id=golden_id, passed=passed, detail=f"theta={theta}, slack={report.slack:.3e}",
                        values=values)


def golden_qubit_north_pole() -> GoldenResult:
    """sigma_x, sigma_y on (1, 0): saturation with phase pi/4."""
    return _golden_qubit_pole("qubit-north-pole", 0.0, math.pi / 4.0, sides=True)


def golden_qubit_south_pole() -> GoldenResult:
    """sigma_x, sigma_y on (0, 1): saturation with phase -pi/4 (reported mod 2 pi)."""
    return _golden_qubit_pole("qubit-south-pole", math.pi, 7.0 * math.pi / 4.0, sides=False)


def golden_block_mixed() -> GoldenResult:
    """The 4x4 block pair saturates the mixed product bound at every power."""
    a, b, rho = block_pair_4x4()
    tr_a2 = float(np.trace(a @ a @ rho.matrix).real)
    tr_b2 = float(np.trace(b @ b @ rho.matrix).real)
    comm_tr = complex(np.trace((a @ b - b @ a) @ rho.matrix))
    report = robertson(a, b, rho)
    cert = robertson_saturation_mixed(a, b, rho)
    theta = None if cert is None else cert.theta
    theta_err = None if theta is None else abs(theta - math.pi / 4.0)
    max_r_residual = None if cert is None else max(cert.r_residuals)
    trace_product = tr_a2 * tr_b2
    # Saturation in squared form: 4 tr(A^2 rho) tr(B^2 rho) = |tr([A, B] rho)|^2.
    squared_equality_gap = abs(4.0 * trace_product - abs(comm_tr) ** 2)
    passed = (
        abs(trace_product - 1.0) <= 1e-12
        and abs(abs(comm_tr) / 2.0 - 1.0) <= 1e-12
        and squared_equality_gap <= 1e-12
        and cert is not None
        and theta_err <= 1e-9
        and max_r_residual <= 1e-9
    )
    return GoldenResult(
        golden_id="block-mixed-4x4",
        passed=passed,
        detail=f"theta={theta}, per-power residual max={_sci(max_r_residual)}",
        values={
            "trace_product": trace_product,
            "commutator_trace_abs": abs(comm_tr),
            "squared_equality_gap": squared_equality_gap,
            "lhs": report.lhs,
            "rhs": report.rhs,
            "theta": theta,
            "theta_error": theta_err,
            "r_residuals": None if cert is None else list(cert.r_residuals),
        },
    )


def _grid_phi_vector(theta: float, phi: float) -> PureState:
    return PureState(
        np.array(
            [math.sin(theta / 2.0), -np.exp(1j * phi) * math.cos(theta / 2.0)],
            dtype=complex,
        )
    )


def _distance_to_solutions(theta: float, phi: float) -> float:
    d_theta = min(theta, abs(math.pi - theta))
    d_phi = min(
        min(abs(phi - s), 2.0 * math.pi - abs(phi - s)) for s in _QUARTER_TURN_PHASES
    )
    return min(d_theta, d_phi)


def golden_qubit_chain_grid() -> GoldenResult:
    """Chain equalities for sigma_x, sigma_y over a 25 x 25 (theta, phi) grid.

    The first chain step closes identically; the second closes exactly on
    theta in {0, pi} or phi on odd quarter turns, and stays visibly open at
    grid points at least 0.1 rad from that solution set.  The aligning ratio
    equals i at theta = 0 and -i at theta = pi.
    """
    thetas = np.linspace(0.0, math.pi, 25)
    phis = np.linspace(0.0, 2.0 * math.pi, 25)
    max_step1 = 0.0
    max_step1_slack = 0.0
    max_solution_step2 = 0.0
    far_step2 = []
    max_mu_error = 0.0
    sx, sy = Observable(SIGMA_X), Observable(SIGMA_Y)  # validated once; each point's entries share psi's slot
    for theta in thetas:
        for phi in phis:
            psi = bloch_state(theta, phi)
            other = _grid_phi_vector(theta, phi)
            sat = mp_chain_saturation(sx, sy, psi, other, 1j)
            chain = mp_chain(sx, sy, psi, other, 1j)
            max_step1 = max(max_step1, sat.step_residuals[0])
            max_step1_slack = max(max_step1_slack, abs(chain.steps[0].slack))
            if (distance := _distance_to_solutions(theta, phi)) <= 1e-12:
                max_solution_step2 = max(max_solution_step2, sat.step_residuals[1])
            elif distance >= 0.1:
                far_step2.append(sat.step_residuals[1])
            if theta in (0.0, math.pi):
                expected = 1j if theta == 0.0 else -1j
                max_mu_error = max(
                    max_mu_error, abs(mu_ratio(sx, sy, psi, other) - expected)
                )
    min_far_step2 = min(far_step2, default=None)
    passed = (
        max_step1 <= 1e-12
        and max_step1_slack <= 1e-12
        and max_solution_step2 <= 1e-10
        and min_far_step2 is not None
        and min_far_step2 > 1e-6
        and max_mu_error <= 1e-9
    )
    return GoldenResult(
        golden_id="qubit-chain-grid",
        passed=passed,
        detail=(
            f"step1 max={max_step1:.3e}, on-solution step2 max={max_solution_step2:.3e}, "
            f"far step2 min={_sci(min_far_step2)}, mu error max={max_mu_error:.3e}"
        ),
        values={
            "max_step1_residual": max_step1,
            "max_step1_slack": max_step1_slack,
            "max_solution_step2_residual": max_solution_step2,
            "min_far_step2_residual": min_far_step2,
            "max_mu_ratio_error": max_mu_error,
        },
    )


def run_goldens() -> list[GoldenResult]:
    return [
        golden_qubit_north_pole(),
        golden_qubit_south_pole(),
        golden_block_mixed(),
        golden_qubit_chain_grid(),
    ]
