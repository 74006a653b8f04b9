"""Seeded generation of observables and states for property sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankUnachieved
from .linalg import _norm
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
    """(x + i y) / sqrt(2) for normal draws x then y, each half written in place as x (1 / sqrt(2)).

    NumPy divides by a real as a product with its reciprocal, so these are the bytes of
    ``(x + 1j * y) / np.sqrt(2.0)`` (up to the sign of an exact zero), from the same draws.
    """
    out, scale = np.empty((rows, cols), dtype=complex), 1.0 / np.sqrt(2.0)
    np.multiply(rng.standard_normal((rows, cols)), scale, out=out.real)
    np.multiply(rng.standard_normal((rows, cols)), scale, out=out.imag)
    return out


def random_hermitian(n: int, seed, label: str = "") -> Observable:
    """:meth:`Observable.hermitian_part` of e^{i pi/4} X for a real standard normal n x n X: from
    n^2 draws, the law of (G + G^dagger)/2 for a complex normal G (README "Tolerances")."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    # Both parts of (1 + i) / sqrt(2) times X are the same product, bit for bit.
    return Observable.hermitian_part((1 + 1j) / np.sqrt(2.0) * _as_rng(seed).standard_normal((n, n)), label)


def _haar_columns(n: int, k: int, seed) -> np.ndarray:
    """``k`` Haar-distributed orthonormal columns: the phase-fixed QR of an n x k complex normal draw.

    The diagonal of the triangular factor is rotated to positive reals; without
    that phase correction the QR output is not Haar distributed (Mezzadri,
    Notices AMS 54, 592, 2007).  The draw has only the k columns it factors.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    q, r = np.linalg.qr(_complex_normal(_as_rng(seed), n, k))
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) == 0] = 1.0
    return q * (diag / np.abs(diag))


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: :func:`_haar_columns` with k = n, from one n x n draw."""
    return _haar_columns(n, n, seed)


def random_pure_state(n: int, seed) -> PureState:
    """A normalised n x 1 complex normal draw: uniform on the unit sphere, with no QR."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    column = _complex_normal(_as_rng(seed), n, 1)[:, 0]
    return PureState(column / _norm(column))


def random_density(n: int, rank: int, seed) -> DensityMatrix:
    """G G^dagger / tr(G G^dagger) with G an n-by-rank complex normal matrix, G its factor.

    Built by :meth:`DensityMatrix.from_factor`, so only the rank x rank Gram
    matrix G^dagger G is diagonalised.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}]")
    rng = _as_rng(seed)
    for _ in range(2):
        state = DensityMatrix.from_factor(_complex_normal(rng, n, rank))
        if state.weights.size == rank:
            return state
    raise RankUnachieved(f"numerical rank {state.weights.size} != requested {rank}")


def bloch_state(theta: float, phi: float) -> PureState:
    """(cos(theta/2), e^{i phi} sin(theta/2)): every qubit pure state."""
    return PureState(
        np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)
    )
