"""Shared fixtures: Pauli matrices, planted saturating pure and mixed instances, the certify requests, five
oracles, the matrix-file writer, and reductions at a given tolerance."""

from __future__ import annotations

import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np

from qubounds import (DensityMatrix, DimensionMismatch, Observable, PureState, RIndependenceViolation, construct_case1,
                      construct_case2, construct_w_mp6, haar_unitary, mp3_saturation, mp6_saturation, pair_moments,
                      robertson_saturation_mixed, robertson_saturation_pure, schrodinger_saturation, states)
from qubounds.goldens import SIGMA_X, SIGMA_Y, SIGMA_Z, block_pair_4x4  # noqa: F401
from qubounds.linalg import ROUNDING_TOL, TIE_TOL, as_complex_matrix


def complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def hermitian_array(rng: np.random.Generator, n: int) -> np.ndarray:
    g = complex_normal(rng, n, n)
    return (g + g.conj().T) / 2


def matrix_to_json_dict(m) -> dict:
    """{"rows", "cols", "re", "im"}: complex entries split for portability, as ``saturate`` reads them."""
    a = as_complex_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def projector(psi: PureState) -> np.ndarray:
    """|psi><psi| as a matrix."""
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def gram_pair(a, b, state) -> SimpleNamespace:
    """The two 2x2 Gram matrices ``c1``, ``c2`` of (A, B) in ``state``, read from :func:`pair_moments`.

    Both are PSD with equal traces; det(c1 + c2) equals
    4 dev_a^2 dev_b^2 - |commutator expectation|^2.
    """
    m = pair_moments(a, b, state)
    va2 = m.dev_a**2
    vb2 = m.dev_b**2
    c1 = np.array([[va2, m.cross], [np.conj(m.cross), vb2]], dtype=complex)
    c2 = np.array([[va2, -np.conj(m.cross)], [-m.cross, vb2]], dtype=complex)
    return SimpleNamespace(c1=c1, c2=c2)


def plant_saturating_pure(n: int, coupling: complex, rng: np.random.Generator):
    """Build (A, B, psi0) with A_c psi0 + coupling * B_c psi0 = 0.

    psi0 is a unit eigenvector of the non-Hermitian A + coupling * B, with
    eigenvalue <psi0|A + coupling B|psi0> = alpha + coupling * beta.  Use
    coupling = i k (k > 0) for the Robertson form and any complex coupling
    for the Schrodinger form.
    """
    a, b = hermitian_array(rng, n), hermitian_array(rng, n)
    _, vectors = np.linalg.eig(a + coupling * b)
    psi0 = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    return Observable(a, label="A"), Observable(b, label="B"), PureState(psi0)


def plant_saturating_mixed(n: int, k: int, theta: float, phi: float,
                           rng: np.random.Generator, rotate: bool = True):
    """Build (A, B, rho) with cos(t) A_c rho^r + e^{i p} sin(t) B_c rho^r = 0.

    rho is rank k < n; the observables vanish on its support block, and the
    off-diagonal blocks are proportional so the dependence closes with the
    requested angles.  Use phi = pi/2 for the pure-phase (Robertson) form.
    """
    assert 1 <= k < n
    assert 0 < theta < math.pi / 2
    m_block = complex_normal(rng, n - k, k)
    coeff = -np.exp(-1j * phi) / math.tan(theta)
    n_block = coeff * m_block
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[k:, :k] = m_block
    a[:k, k:] = m_block.conj().T
    b[k:, :k] = n_block
    b[:k, k:] = n_block.conj().T
    a[k:, k:] = hermitian_array(rng, n - k)
    b[k:, k:] = hermitian_array(rng, n - k)
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    rho = np.zeros((n, n), dtype=complex)
    rho[:k, :k] = np.diag(weights)
    if rotate:
        u = haar_unitary(n, rng)
        a = u @ a @ u.conj().T
        b = u @ b @ u.conj().T
        rho = u @ rho @ u.conj().T
    return (
        Observable((a + a.conj().T) / 2, label="A"),
        Observable((b + b.conj().T) / 2, label="B"),
        DensityMatrix((rho + rho.conj().T) / 2),
    )


# The dimensions of the certify requests, as on the benchmark's certify-saturating workload.
CERTIFY_DIMS = (2, 4, 8)


def _certificate_request(checker, a, b, state, kind):
    return lambda: checker(Observable(a), Observable(b), kind(state))


def _construction_request(construct, check, a, b):
    def request():
        obs_a, obs_b = Observable(a), Observable(b)
        pair = construct(obs_a, obs_b)
        return pair, check(obs_a, obs_b, pair.psi, pair.phi, pair.mu)

    return request


def certify_requests(seed: int) -> list:
    """(kind, n, raw inputs, request) for each certify request kind at each n in ``CERTIFY_DIMS``, planted from
    ``seed``: the pure Robertson, mixed Robertson and Schrodinger certificates, on rank-n/2 states for the mixed
    kinds, and each construction followed by its mp3 or mp6 check (case 1 at n = 2, case 2 above).  A request is
    shaped as a benchmark op: fresh Observables and state from the raw arrays, then the checker, which it returns;
    or fresh Observables, then the constructor, then its checker, and it returns (pair, check)."""
    rng, requests = np.random.default_rng(seed), []
    for n in CERTIFY_DIMS:
        a, b, psi = plant_saturating_pure(n, 0.7j, rng)
        raw = (a.matrix, b.matrix, psi.amplitudes)
        requests.append(("pure", n, raw, _certificate_request(robertson_saturation_pure, *raw, PureState)))
        for kind, checker, phase in (("mixed", robertson_saturation_mixed, math.pi / 2),
                                     ("schrodinger", schrodinger_saturation, 1.0)):
            a, b, rho = plant_saturating_mixed(n, n // 2, 0.7, phase, rng)
            raw = (a.matrix, b.matrix, rho.matrix)
            requests.append((kind, n, raw, _certificate_request(checker, *raw, DensityMatrix)))
        for kind, construct, check in (("case1+mp3", construct_case1, mp3_saturation) if n == 2
                                       else ("case2+mp3", construct_case2, mp3_saturation),
                                       ("w_mp6+mp6", construct_w_mp6, mp6_saturation)):
            raw = (hermitian_array(rng, n), hermitian_array(rng, n))
            requests.append((kind, n, raw, _construction_request(construct, check, *raw)))
    return requests


# The SVD minimisers the library's dependence detectors once were, kept as oracles
# for the 2 x 2 least-direction kernel that replaced them.


def _canonical_real_pair(c: float, s: float) -> tuple[float, float]:
    # (c, s) and (-c, -s) encode the same dependence; pick cos >= 0,
    # and sin >= 0 on the cos = 0 boundary.
    if c < 0 or (abs(c) <= TIE_TOL and s < 0):
        return -c, -s
    return c, s


def svd_phase_dependence_detail(x, y) -> tuple[float, float]:
    """The theta minimising ||cos(theta) x + i sin(theta) y||, and that minimum.

    The minimum is the smallest singular value of the real stack [x | i y];
    two zero vectors give (0, 0).  Decides nothing.
    """
    xv = np.asarray(x, dtype=complex).ravel()
    yv = np.asarray(y, dtype=complex).ravel()
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"vector lengths differ: {xv.size} vs {yv.size}")
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    # Finite norms prove finite entries; only a non-finite one needs the entry scan.
    if not math.isfinite(nx + ny) and not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("x or y contains non-finite entries")
    if nx == 0.0 and ny == 0.0:
        return 0.0, 0.0
    iy = 1j * yv
    stacked = np.column_stack(
        [
            np.concatenate([xv.real, xv.imag]),
            np.concatenate([iy.real, iy.imag]),
        ]
    )
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    c, s = _canonical_real_pair(float(vt[-1, 0]), float(vt[-1, 1]))
    return math.atan2(s, c) % (2.0 * math.pi), float(svals[-1])


def svd_complex_dependence_detail(x, y) -> tuple[tuple[float, float], float]:
    """The (theta, phi) minimising ||cos(theta) x + e^{i phi} sin(theta) y||, and that minimum.

    The minimum is the smaller singular value of [vec x | vec y]; theta lies
    in [0, pi/2], phi in [0, 2 pi).  Two zero operands give ((0, 0), 0).
    Decides nothing.
    """
    a = as_complex_matrix(x, "x")
    b = as_complex_matrix(y, "y")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return (0.0, 0.0), 0.0
    stacked = np.column_stack([a.ravel(), b.ravel()])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    smin = float(svals[-1])
    va, vb = vh[-1].conj()
    h = math.hypot(abs(va), abs(vb))
    if abs(va) <= TIE_TOL * h:
        # x carries a negligible coefficient: cos(theta) = 0, phase free.
        return (math.pi / 2.0, 0.0), smin
    theta = math.atan2(abs(vb), abs(va))
    if abs(vb) <= TIE_TOL * h:
        phi = 0.0
    else:
        phi = (cmath.phase(vb) - cmath.phase(va)) % (2.0 * math.pi)
    return (theta, phi), smin


def per_power_r_family(m, coeff_a: complex, coeff_b: complex, rs: tuple[float, ...], tol) -> tuple[float, ...]:
    """The power re-check one power at a time, as ``saturation._verify_r_family`` once ran it: an oracle
    for the one-pass form, with the same limit and the same ``RIndependenceViolation``.  It states the zero rule
    and its budget itself, at ``tol``: a side is zero where dev <= eps ||.||_F and dev <= its budget
    max(eps spread, min(eps, ROUNDING_TOL) ||.||_F)."""
    band, shares = math.sqrt(10.0 * tol.eps), []
    for c, o, dev in zip((coeff_a, coeff_b), (m.a, m.b), (m.dev_a, m.dev_b)):
        budget = max(tol.eps * o.spread, min(tol.eps, ROUNDING_TOL) * o.norm)
        zero = dev <= tol.eps * o.norm and dev <= budget
        shares.append(abs(c) * (budget / math.sqrt(m.state.weights.max()) if zero else band * dev))
    limit = max(*shares, ROUNDING_TOL * max(abs(coeff_a) * m.a.norm, abs(coeff_b) * m.b.norm))
    residuals = []
    for r in rs:
        power = m.state.weights ** (r - 0.5)
        # The weights pair with the columns over the factor; at r = 1/2 the power is 1, and any square root of
        # rho serves, so the moments' own centred pair is read.
        centred_a, centred_b = (c if r == 0.5 else m._over_factor(c) for c in (m.centered_a, m.centered_b))
        res = float(np.linalg.norm(coeff_a * (centred_a * power) + coeff_b * (centred_b * power)))
        budget = limit * float(np.linalg.norm(m.state.weights ** r))
        if res > budget:
            raise RIndependenceViolation(f"witness residual {res:.3e} at r={r} exceeds {budget:.3e}")
        residuals.append(res)
    return tuple(residuals)


def reduction_at(a, b, state, tol):
    """The reduction of (A, B, state) that an entry at ``tol`` builds: its zero sides are decided at ``tol``."""
    return states._reduction(*states._entry(a, b, (state,)), state, tol)


def replaced(m, **changes):
    """``dataclasses.replace(m, **changes)`` with the tolerance and zero sides that the maker wrote on ``m``, which
    are attributes and not fields: for changes that leave both deviations as they are."""
    new = dataclasses.replace(m, **changes)
    vars(new).update(tol=m.tol, zero=m.zero)
    return new
