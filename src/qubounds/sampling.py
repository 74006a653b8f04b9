"""Seeded generation of observables and states for property sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankUnachieved
from .states import DensityMatrix, Observable, PureState


@dataclass(frozen=True)
class SampleConfig:
    """Everything needed to regenerate one sweep of random inputs."""

    dimension: int
    rank: int
    seed: int
    count: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 1 <= self.rank <= self.dimension:
            raise ValueError(f"rank must lie in [1, {self.dimension}]")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one trial; order of trials does not matter."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def _complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(n: int, seed, label: str = "") -> Observable:
    """Hermitian by construction: (G + G^dagger)/2 from complex normal entries."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    g = _complex_normal(_as_rng(seed), n, n)
    return Observable(matrix=(g + g.conj().T) / 2.0, label=label)


def _haar_columns(n: int, k: int, seed) -> np.ndarray:
    """The leading ``k`` columns of :func:`haar_unitary` from the same draw.

    The whole n x n complex normal block is drawn, so the generator ends where
    :func:`haar_unitary` leaves it, but only its leading k columns are
    factored: the phase-fixed QR of those columns is the leading k columns of
    the phase-fixed QR of the block (Mezzadri, Notices AMS 54, 592, 2007).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = _complex_normal(_as_rng(seed), n, n)
    q, r = np.linalg.qr(z[:, :k])
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) == 0] = 1.0
    return q * (diag / np.abs(diag))


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex normal matrix.

    The diagonal of the triangular factor is rotated to positive reals; without
    that phase correction the QR output is not Haar distributed.  Samplers that
    need only leading columns factor only those columns of the same draw.
    """
    return _haar_columns(n, n, seed)


def random_pure_state(n: int, seed) -> PureState:
    """First column of a Haar unitary, uniform on the unit sphere; only that column is factored."""
    column = _haar_columns(n, 1, seed)[:, 0]
    return PureState(column / np.linalg.norm(column))


def random_density(n: int, rank: int, seed) -> DensityMatrix:
    """G G^dagger / tr(G G^dagger) with G an n-by-rank complex normal matrix."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}]")
    rng = _as_rng(seed)
    for _ in range(2):
        g = _complex_normal(rng, n, rank)
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        state = DensityMatrix((rho + rho.conj().T) / 2.0)
        if state.weights.size == rank:
            return state
    raise RankUnachieved(f"numerical rank {state.weights.size} != requested {rank}")


def bloch_state(theta: float, phi: float) -> PureState:
    """(cos(theta/2), e^{i phi} sin(theta/2)): every qubit pure state."""
    return PureState(
        np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)
    )
