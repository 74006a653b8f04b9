"""Observables, pure and mixed states, and their moments.

The uncertainty machinery below only ever needs a handful of scalars per
(A, B, state) triple: the means, the centered deviations, and one cross
inner product.  :func:`pair_moments` computes them once, on the centered
data, so near-saturated instances do not suffer cancellation.

Each input is validated once, where it enters: bare matrices become
:class:`Observable` objects in :func:`_observable_pair`, and inner calls pass those on.
Each input is hashed when its ``digest`` is first read, at most once: observables and
states carry a ``digest`` of their frozen array, and report digests combine those.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, NonRealExpectation
from .linalg import (INPUT_TOL, EigenSystem, _eigh_descending, _finite_norm, _norm, _psd_eig, _square_matrix,
                     as_complex_matrix, require_hermitian)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _array_digest(kind: str, a: np.ndarray) -> str:
    """SHA-256 of an input array's entries in C order, tagged with its kind and shape."""
    h = hashlib.sha256(f"{kind}{a.shape}".encode())
    h.update(np.ascontiguousarray(a))
    return h.hexdigest()


class _ArrayEquality:
    """Equal inputs: one type, equal compared fields, arrays entry by entry; unhashable, as arrays are."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)


@dataclass(frozen=True, eq=False)
class Observable(_ArrayEquality):
    """A Hermitian matrix standing for a measurable quantity: validated once, frozen with ||A||_F
    (``norm``); its ``digest`` is taken when first read."""

    matrix: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)
    label: str = ""

    def __post_init__(self) -> None:
        m, norm = require_hermitian(self.matrix, self.label or "observable")
        self._freeze(np.array(m), norm)

    def _freeze(self, m: np.ndarray, norm: float) -> None:
        """The one place ``matrix`` and ``norm`` are set, from a Hermitian ``m`` that no
        caller holds, frozen in place, and its ||m||_F."""
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "norm", norm)

    @functools.cached_property
    def digest(self) -> str:
        return _array_digest("observable", self.matrix)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def spread(self) -> float:
        """||A - (tr A / n) I||_F: the scale of a centred product A_c X, blind to an identity offset."""
        c = self.matrix.copy()
        c.flat[:: self.dimension + 1] -= self.matrix.trace().real / self.dimension
        return math.sqrt(np.vdot(c, c).real)

    @classmethod
    def hermitian_part(cls, g, label: str = "") -> "Observable":
        """A = (G + G^dagger)/2 for a square finite ``g``, equal to ``Observable(A)`` but Hermitian
        bit for bit by construction, so every check but the Hermiticity test runs."""
        return cls._hermitian_parts(_square_matrix(g, label or "observable")[None], label)[0]

    @classmethod
    def _hermitian_parts(cls, g: np.ndarray, label: str = "") -> list:
        """:meth:`hermitian_part` of each matrix of the stack ``g``, each labelled ``label``, in one pass."""
        name = label or "observable"
        if not math.isfinite(_norm(g)):  # a finite norm proves finite entries; h is formed from finite g only
            for x in g:
                as_complex_matrix(x, name)
        h = g + g.conj().swapaxes(1, 2)
        # NumPy's h / 2.0 is (h_r + h_i 0)/2 + i (h_i - h_r 0)/2: each part halved, bit for bit, unless a part
        # is -0.  The imaginary diagonal, x - x, is +0; with no other zero part, halving is that quotient.
        if np.count_nonzero(h.view(float)) == h.size * 2 - h.shape[0] * h.shape[1]:
            np.multiply(h.view(float), 0.5, out=h.view(float))
        else:
            h = h / 2.0
        observables = [object.__new__(cls) for _ in range(len(h))]
        for obs, m, x in zip(observables, h, g):
            object.__setattr__(obs, "label", label)
            obs._freeze(m, _finite_norm(m, name, x))  # finite x: a non-finite ||m|| is an overflow
        return observables


# The support weight of every pure state, shared read-only.
_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PureState(_ArrayEquality):
    """A unit vector of amplitudes; its factor is the n x 1 column psi, of weight 1."""

    amplitudes: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.size < 1 or a.size != max(a.shape, default=1):
            raise DimensionMismatch(f"state must be a nonempty vector, got shape {a.shape}")
        norm = _norm(a)
        if not math.isfinite(norm):  # a finite norm proves finite entries
            as_complex_matrix(a.reshape(1, -1), "state vector")
        if abs(norm - 1.0) > INPUT_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1 within {INPUT_TOL}")
        object.__setattr__(self, "amplitudes", _frozen_array(a.ravel()))
        # Kept 2-D so that a pure state is the one-column case of every matrix path.
        object.__setattr__(self, "factor", self.amplitudes.reshape(-1, 1))
        object.__setattr__(self, "weights", _UNIT_WEIGHT)

    @functools.cached_property
    def digest(self) -> str:
        return _array_digest("pure", self.amplitudes)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ArrayEquality):
    """A PSD, trace-one Hermitian matrix rho = X X^dagger.

    Built from a matrix, it is checked where it enters: one eigendecomposition
    decides PSD-ness and is kept in ``spectrum``, and its support weights w_k
    give the factor X = V_k w_k^(1/2) (see :meth:`EigenSystem.support`).
    Built by :meth:`from_factor`, it is PSD by construction, its support comes
    from a k x k Gram matrix, and ``matrix`` and ``spectrum`` are formed when first read.
    """

    matrix: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = require_hermitian(self.matrix, "density matrix")[0]
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > INPUT_TOL:
            raise ValueError(f"density matrix trace {trace!r} is not 1 within {INPUT_TOL}")
        spectrum = _psd_eig(m, "density matrix")
        object.__setattr__(self, "spectrum", spectrum)
        w, v = spectrum.support()
        object.__setattr__(self, "matrix", _frozen_array(m))
        self._freeze(v * np.sqrt(w), w)

    def _freeze(self, factor: np.ndarray, weights: np.ndarray) -> None:
        """Set ``factor`` and ``weights`` from fresh arrays that no caller holds, frozen in place."""
        factor.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "weights", weights)

    def __getattr__(self, name: str):
        # Only a factor-built state's ``matrix`` is missing: formed from its prescaled G when first read.
        if name != "matrix" or "_prescaled" not in vars(self):
            raise AttributeError(name)
        rho = self._prescaled @ self._prescaled.conj().T
        rho = rho / np.trace(rho).real
        object.__setattr__(self, "matrix", _frozen_array((rho + rho.conj().T) / 2.0))
        return self.matrix

    @functools.cached_property
    def digest(self) -> str:
        """A factor-built state hashes its prescaled G (tagged ``density-factor``), any other its matrix."""
        if "_prescaled" in vars(self):
            return _array_digest("density-factor", self._prescaled)
        return _array_digest("density", self.matrix)

    @functools.cached_property
    def spectrum(self) -> EigenSystem:
        """Eigendecomposition of ``matrix``; a factor-built state takes it when first read."""
        return _eigh_descending(self.matrix)

    @property
    def dimension(self) -> int:
        return self.factor.shape[0]

    @classmethod
    def from_factor(cls, g) -> "DensityMatrix":
        """rho = G G^dagger / ||G||_F^2 for an n x k ``g``, in O(n k^2) work: rho is not formed.

        The support is that of the Gram matrix G^dagger G = U diag(lambda) U^dagger:
        its eigenvalues above ``INPUT_TOL * ||lambda||`` give the weights, normalised
        to sum 1, and the columns G u_j, each rotated by the conjugate of its
        largest entry and normalised, give V_k; a 1 x 1 state's factor is exactly 1.
        G is first scaled exactly, by the power of two that puts max |G_ij| (where that
        overflows, the largest part) in [0.5, 1), so 2^k G gives the same state bit for bit
        and nothing overflows.  The state keeps that prescaled G, frozen: ``digest`` hashes
        it (tagged ``density-factor``), and ``matrix`` is formed from it, each when first read.
        """
        return cls._from_factors(as_complex_matrix(g, "factor", scan=False)[None])[0]

    @classmethod
    def _from_factors(cls, g: np.ndarray) -> list:
        """:meth:`from_factor` of each factor of the stack ``g``: one ``eigh`` of the Gram matrices."""
        with np.errstate(over="ignore"):  # an overflowing modulus is replaced below
            peaks = np.abs(g).max(axis=(1, 2)).tolist()
        scales = []
        for t, peak in enumerate(peaks):
            if not math.isfinite(peak):  # a finite largest modulus proves finite entries
                as_complex_matrix(g[t], "factor")
                peak = max(np.abs(g[t].real).max(), np.abs(g[t].imag).max())  # the modulus overflowed
            if not peak > 0.0:
                raise ValueError("factor is zero")
            e = math.frexp(peak)[1]  # 2^-e as two normal factors, as in _power_of_two_scaled
            scales.append((2.0 ** (-e // 2), 2.0 ** -(e // 2)))
        scales = np.array(scales).reshape(-1, 2, 1, 1)
        prescaled = g * scales[:, 0] * scales[:, 1]
        prescaled.setflags(write=False)
        es = _eigh_descending(prescaled.conj().swapaxes(1, 2) @ prescaled)
        lam, u = es.eigenvalues, es.eigenvectors
        # Descending, so EigenSystem.support keeps every eigenvalue where it keeps the last.
        if not all(w[-1] > INPUT_TOL * _norm(w) for w in lam):
            if len(g) > 1:  # each factor on its own support, as its own call
                return [state for x in g for state in cls._from_factors(x[None])]
            lam, u = (a[None] for a in EigenSystem(lam[0], u[0]).support())
        v = prescaled @ u
        fixed, columns = np.empty_like(v), np.arange(v.shape[2])
        # One call per factor: how NumPy broadcasts a row of phases sets the rounding of the product.
        for x, rows, out in zip(v, np.abs(v).argmax(axis=1), fixed):
            np.multiply(x, x[rows, columns].conj(), out=out)
        v = fixed / np.sqrt(np.add.reduce((fixed.conj() * fixed).real, axis=1, keepdims=True))  # linalg.norm
        w = lam / lam.sum(axis=1, keepdims=True)
        states = [object.__new__(cls) for _ in range(len(g))]
        for state, x, factor, weights in zip(states, prescaled, v * np.sqrt(w)[:, None], w):
            object.__setattr__(state, "_prescaled", x)
            state._freeze(factor, weights)
        return states

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        """The projector |psi><psi|, built from psi as its factor; no eigendecomposition runs."""
        return cls.from_factor(psi.factor)


# Tagged union of the two state representations.
QuantumState = PureState | DensityMatrix


def _checked(observable) -> Observable:
    """The entry check: a bare matrix becomes a validated Observable."""
    if isinstance(observable, Observable):
        return observable
    return Observable(observable)


def _observable_pair(observable_a, observable_b) -> tuple[Observable, Observable]:
    """Both observables checked once, of one dimension; pass the result inward."""
    a, b = _checked(observable_a), _checked(observable_b)
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(
            f"observable dimensions differ: {a.matrix.shape[0]} vs {b.matrix.shape[0]}"
        )
    return a, b


def _mean_and_image(obs: Observable, state: QuantumState) -> tuple[float, np.ndarray]:
    """tr(X^dagger A X) and the product A X it is read from."""
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state)!r}")
    if obs.dimension != state.dimension:
        raise DimensionMismatch(
            f"observable dimension {obs.dimension} vs state dimension {state.dimension}"
        )
    ax = obs.matrix @ state.factor
    value = complex(np.vdot(state.factor, ax))
    if abs(value.imag) > INPUT_TOL * obs.norm:
        raise NonRealExpectation(f"imaginary residue {value.imag:.3e} in expectation")
    return float(value.real), ax


def expectation(observable, state: QuantumState) -> float:
    """<psi|A|psi> for a pure state, tr(rho A) for a mixed one: tr(X^dagger A X) for both."""
    return _mean_and_image(_checked(observable), state)[0]


@dataclass(frozen=True)
class PairMoments:
    """Centered second moments of two observables in one state: the one reduction.

    ``centered_a`` is A_c X for the state's factor X (rho = X X^dagger): an
    n x k matrix over the k support directions, n x 1 (A_c psi) for a pure
    state; likewise ``centered_b``.  ``dev_a`` is its Frobenius norm, and
    ||A_c rho^r||_F = ||A_c X w^(r - 1/2)||_F for the support weights w.
    ``cross`` is the Frobenius inner product <A_c X, B_c X>; its imaginary
    part is half the commutator expectation, its real part the centered
    anticommutator half-sum.  ``a``, ``b`` and ``state`` are the validated
    inputs the moments were taken from, so a bound or checker body needs
    nothing else, and a report's digest is read from theirs.
    """

    alpha: float
    beta: float
    dev_a: float
    dev_b: float
    cross: complex
    centered_a: np.ndarray
    centered_b: np.ndarray
    a: Observable
    b: Observable
    state: QuantumState

    @property
    def commutator_expectation(self) -> complex:
        return self.cross - self.cross.conjugate()


def pair_moments(observable_a, observable_b, state: QuantumState) -> PairMoments:
    """The one reduction of an (A, B, state) triple that every bound reads."""
    obs_a, obs_b = _observable_pair(observable_a, observable_b)
    alpha, ax = _mean_and_image(obs_a, state)
    beta, bx = _mean_and_image(obs_b, state)
    va = ax - alpha * state.factor
    vb = bx - beta * state.factor
    return PairMoments(
        alpha=alpha,
        beta=beta,
        dev_a=_norm(va),
        dev_b=_norm(vb),
        cross=complex(np.vdot(va, vb)),
        centered_a=va,
        centered_b=vb,
        a=obs_a,
        b=obs_b,
        state=state,
    )


def stddev(observable, state: QuantumState) -> float:
    """Standard deviation of the observable in the given state.

    Computed from the centered observable, ||A_c X||_F, never as
    sqrt(<A^2> - <A>^2).
    """
    obs = _checked(observable)
    return pair_moments(obs, obs, state).dev_a
