"""Seeded generation of observables and states for property sweeps.

Each sampler is the one-draw case of a body run on stacks of draws.  A sweep's trials draw here too,
a chunk at a time (:func:`_trial_chunks`), in the samplers' order and with their bytes, so the draw
layout is known in this module only; stacked QR needs NumPy >= 1.22.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import RankUnachieved
from .linalg import _norm
from .states import DensityMatrix, Observable, PureState, _store_digests

# Bytes of a chunk's largest stack, one complex n x n matrix per trial: a sweep's memory does not grow
# with its trials, and at n = 64 a chunk is one trial, below the 128 KiB at which glibc's malloc maps pages.
CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class SampleConfig:
    """Everything needed to regenerate one sweep of random inputs, each an integer (not a bool), kept as an int."""

    dimension: int
    rank: int
    seed: int
    count: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            try:  # operator.index takes integers only; a bool, which it takes too, is no integer here
                object.__setattr__(self, name, int(operator.index(None if isinstance(value, bool) else value)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not 1 <= self.rank <= self.dimension:
            raise ValueError(f"rank must lie in [1, {self.dimension}]")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _rng(n: int, seed) -> np.random.Generator:
    """The samplers' one door: check n >= 1, then ``default_rng(seed)``, which returns a ``Generator`` as it is."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent stream for one trial; order of trials does not matter."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


# fl(1/sqrt(2)), each part of fl(e^{i pi/4}) = (1 + 1j) / np.sqrt(2.0).
_ROOT_HALF = 1.0 / np.sqrt(2.0)


def _complex_parts(x: np.ndarray, *shape: int) -> np.ndarray:
    """(x + i y) / sqrt(2) of ``shape`` for each row x then y of the stack ``x`` of normal draws, written as
    x (1 / sqrt(2)): the bytes of ``(x + 1j * y) / np.sqrt(2.0)`` (up to the sign of an exact zero)."""
    out, half = np.empty(x.shape[:-1] + shape, dtype=complex), x.shape[-1] // 2
    np.multiply(x[..., :half].reshape(out.shape), _ROOT_HALF, out=out.real)
    np.multiply(x[..., half:].reshape(out.shape), _ROOT_HALF, out=out.imag)
    return out


def _complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return _complex_parts(rng.standard_normal(2 * math.prod(shape)), *shape)


def _hermitian_parts(x: np.ndarray, labels: tuple) -> tuple[np.ndarray, list]:
    """:meth:`Observable.hermitian_part` of e^{i pi/4} X for each real matrix X of the stack ``x`` (T, len(labels),
    n, n), in one real-arithmetic pass: both parts of e^{i pi/4} X are X fl(1/sqrt(2)), so with the halving folded
    into the scale, y = X (fl(1/sqrt(2))/2), the real part is y + y^T and the imaginary part y - y^T.  Halving is
    exact away from subnormals, so this is bit for bit wherever X has no entry -0.0, to which the complex product
    gives the imaginary part +0.0, and no value that either path forms is subnormal; a normal draw has neither.  The
    stack of those matrices, and for each label the list of its T observables."""
    y = x * (_ROOT_HALF / 2.0)
    h = np.empty(x.shape, dtype=complex)
    np.add(y, y.swapaxes(-1, -2), out=h.real)
    np.subtract(y, y.swapaxes(-1, -2), out=h.imag)
    h.setflags(write=False)  # the observables hold its slices, uncopied
    return h, [Observable._frozen(h[:, j], x[:, j], label) for j, label in enumerate(labels)]


def random_hermitian(n: int, seed, label: str = "") -> Observable:
    """:meth:`Observable.hermitian_part` of e^{i pi/4} X for a real standard normal n x n X (:func:`_hermitian_parts`):
    from n^2 draws, the law of (G + G^dagger)/2 for a complex normal G (README "Tolerances")."""
    return _hermitian_parts(_rng(n, seed).standard_normal((1, 1, n, n)), (label,))[1][0][0]


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
    return _haar_stack(_complex_normal(_rng(n, seed), 1, n, k))[0]


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary: :func:`_haar_columns` with k = n, from one n x n draw."""
    return _haar_columns(n, n, seed)


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of the stack ``z`` (T, n) over its norm: for complex normal rows, uniform on the unit sphere."""
    return z / np.reshape([_norm(row) for row in z], (-1, 1))


def random_pure_state(n: int, seed) -> PureState:
    """A normalised complex normal draw of n amplitudes (:func:`_unit_rows`), with no QR."""
    return PureState._stack(_unit_rows(_complex_normal(_rng(n, seed), 1, n)))[0]


def _full_rank(state: DensityMatrix, rng: np.random.Generator, rank: int) -> DensityMatrix:
    """``state`` if its support, the columns its moments read, has ``rank`` directions, else one redraw from ``rng``."""
    if state._root.shape[1] != rank:
        state = DensityMatrix.from_factor(_complex_normal(rng, state.dimension, rank))
        if state._root.shape[1] != rank:
            raise RankUnachieved(f"numerical rank {state._root.shape[1]} != requested {rank}")
    return state


def random_density(n: int, rank: int, seed) -> DensityMatrix:
    """G G^dagger / tr(G G^dagger) with G an n-by-rank complex normal matrix, G its factor.

    Built by :meth:`DensityMatrix.from_factor`, so only the rank x rank Gram
    matrix G^dagger G is diagonalised.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}]")
    rng = _rng(n, seed)
    return _full_rank(DensityMatrix.from_factor(_complex_normal(rng, n, rank)), rng, rank)


def bloch_state(theta: float, phi: float) -> PureState:
    """(cos(theta/2), e^{i phi} sin(theta/2)): every qubit pure state."""
    return PureState(
        np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex)
    )


def _trial_chunks(config: SampleConfig):
    """A sweep's trials by chunks of ``CHUNK_BYTES``: the stacks of a chunk's As and Bs, the rows (T, 3, n) of its
    psis and Haar pairs ((T, 1, n) at n = 1), and each trial's (k, A, B, psi, rho, Haar pair or None).  Trial k
    draws from ``trial_rng(seed, k)`` in the public samplers' order (A, B, psi and rho's factor G, G's one redraw,
    the n x 2 Haar block); their bodies build the chunk as stacks, with their bytes: one real Hermitian-part pass
    for the As and Bs, one ``eigvalsh`` of the Gram matrices, one QR, one frozen copy of the psis and pairs.  Each
    input stack (the As, the Bs, the psi and pair rows, and the prescaled G of each rho yielded, a redraw's
    included) is hashed in one call, which stores every input's ``digest``."""
    n, rank = config.dimension, config.rank
    ends = list(itertools.accumulate((n * n, n * n, 2 * n, 2 * n * rank, 4 * n if n >= 2 else 0)))
    per_chunk = max(1, CHUNK_BYTES // (16 * n * n))
    for first in range(0, config.count, per_chunk):
        ks = range(first, min(first + per_chunk, config.count))
        rngs = [trial_rng(config.seed, k) for k in ks]
        draws = np.empty((len(ks), ends[-1]))
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row[: ends[3]])
        h, (a, b) = _hermitian_parts(draws[:, : ends[1]].reshape(-1, 2, n, n), ("A", "B"))
        factors = _complex_parts(draws[:, ends[2]: ends[3]], n, rank)
        rhos = [_full_rank(rho, rng, rank) for rho, rng in zip(DensityMatrix._from_factors(factors), rngs)]
        for rng, row in zip(rngs, draws):
            rng.standard_normal(out=row[ends[3]:])
        # One stack of unit rows, frozen once: each trial's psi, then its Haar pair's two columns.
        rows = np.empty((len(ks), 3 if n >= 2 else 1, n), dtype=complex)
        rows[:, 0] = _unit_rows(_complex_parts(draws[:, ends[1]: ends[2]], n))
        if n >= 2:
            rows[:, 1:] = np.swapaxes(_haar_stack(_complex_parts(draws[:, ends[3]:], n, 2)), 1, 2)
        rows.setflags(write=False)  # the states hold its rows, uncopied; the sweep reads it only
        states = PureState._stack(rows.reshape(-1, n))
        pairs = [None] * len(ks) if n < 2 else list(zip(states[1::3], states[2::3]))
        for inputs in (a, b, states, rhos):
            _store_digests(inputs)
        yield h[:, :1], h[:, 1:], rows, list(zip(ks, a, b, states[:: rows.shape[1]], rhos, pairs))
