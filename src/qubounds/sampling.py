"""Seeded generation of observables and states for property sweeps.

Each sampler is the one-draw case of a body run on stacks of draws, as a sweep builds its trials'
inputs in chunks (:func:`qubounds.reporting.run_verification_suite`); stacked QR needs NumPy >= 1.22.
"""

from __future__ import annotations

import math
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


def _complex_parts(x: np.ndarray, *shape: int) -> np.ndarray:
    """(x + i y) / sqrt(2) of ``shape`` for each row x then y of the stack ``x`` of normal draws, written as
    x (1 / sqrt(2)): the bytes of ``(x + 1j * y) / np.sqrt(2.0)`` (up to the sign of an exact zero)."""
    out, half = np.empty(x.shape[:-1] + shape, dtype=complex), x.shape[-1] // 2
    np.multiply(x[..., :half].reshape(out.shape), 1.0 / np.sqrt(2.0), out=out.real)
    np.multiply(x[..., half:].reshape(out.shape), 1.0 / np.sqrt(2.0), out=out.imag)
    return out


def _complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return _complex_parts(rng.standard_normal(2 * math.prod(shape)), *shape)


# e^{i pi/4}: both parts of it times a real X are the same product, bit for bit.
_ROOT_I = (1 + 1j) / np.sqrt(2.0)


def random_hermitian(n: int, seed, label: str = "") -> Observable:
    """:meth:`Observable.hermitian_part` of e^{i pi/4} X for a real standard normal n x n X: from
    n^2 draws, the law of (G + G^dagger)/2 for a complex normal G (README "Tolerances")."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return Observable._hermitian_parts(_ROOT_I * _as_rng(seed).standard_normal((1, n, n)), label)[0]


def _haar_stack(z: np.ndarray) -> list:
    """Haar-distributed orthonormal columns of each complex normal draw in the stack ``z``: one QR, each
    triangular diagonal rotated to positive reals (one call per draw), without which the QR output is not
    Haar distributed (Mezzadri, Notices AMS 54, 592, 2007)."""
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=1, axis2=2).copy()
    diag[np.abs(diag) == 0] = 1.0
    return [x * phase for x, phase in zip(q, diag / np.abs(diag))]


def _haar_columns(n: int, k: int, seed) -> np.ndarray:
    """``k`` Haar-distributed orthonormal columns, from an n x k draw only."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_stack(_complex_normal(_as_rng(seed), 1, n, k))[0]


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: :func:`_haar_columns` with k = n, from one n x n draw."""
    return _haar_columns(n, n, seed)


def random_pure_state(n: int, seed) -> PureState:
    """A normalised complex normal draw of n amplitudes: uniform on the unit sphere, with no QR."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    column = _complex_normal(_as_rng(seed), n)
    return PureState(column / _norm(column))


def _full_rank(state: DensityMatrix, rng: np.random.Generator, rank: int) -> DensityMatrix:
    """``state`` if its support has ``rank`` directions, else one redraw of its factor from ``rng``."""
    if state.weights.size != rank:
        state = DensityMatrix.from_factor(_complex_normal(rng, state.dimension, rank))
        if state.weights.size != rank:
            raise RankUnachieved(f"numerical rank {state.weights.size} != requested {rank}")
    return state


def random_density(n: int, rank: int, seed) -> DensityMatrix:
    """G G^dagger / tr(G G^dagger) with G an n-by-rank complex normal matrix, G its factor.

    Built by :meth:`DensityMatrix.from_factor`, so only the rank x rank Gram
    matrix G^dagger G is diagonalised.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}]")
    rng = _as_rng(seed)
    return _full_rank(DensityMatrix.from_factor(_complex_normal(rng, n, rank)), rng, rank)


def bloch_state(theta: float, phi: float) -> PureState:
    """(cos(theta/2), e^{i phi} sin(theta/2)): every qubit pure state."""
    return PureState(
        np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)
    )
