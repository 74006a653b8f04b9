"""Shared fixtures: Pauli matrices, planted saturating pure and mixed instances, and two oracles."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from qubounds import DensityMatrix, Observable, PureState, haar_unitary, pair_moments
from qubounds.goldens import SIGMA_X, SIGMA_Y, SIGMA_Z, block_pair_4x4  # noqa: F401


def complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def hermitian_array(rng: np.random.Generator, n: int) -> np.ndarray:
    g = complex_normal(rng, n, n)
    return (g + g.conj().T) / 2


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
