"""Observables, pure and mixed states, and their moments.

The uncertainty machinery below only ever needs a handful of scalars per
(A, B, state) triple: the means, the centered deviations, and one cross
inner product.  :func:`pair_moments` computes them once, on the centered
data, so near-saturated instances do not suffer cancellation.  It is the
one-triple call of the moments body :func:`_moments`, which takes any leading
batch shape: a sweep reduces a chunk of triples in one call, each slice in the bytes of its own call.

Each input is validated once, where it enters: bare matrices become
:class:`Observable` objects in :func:`_observable_pair`, and inner calls pass those on.
Each input is hashed when its ``digest`` is first read, at most once: observables and
states carry a ``digest`` of their frozen array, and report digests combine those.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonRealExpectation
from .linalg import (INPUT_TOL, EigenSystem, _ArrayEquality, _eigh_descending, _finite_norm, _norm,
                     _power_of_two_scale, _psd_eig, _square_matrix, as_complex_matrix, require_hermitian)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _array_digest(kind: str, a: np.ndarray) -> str:
    """SHA-256 of an input array's entries in C order, tagged with its kind and shape."""
    h = hashlib.sha256(f"{kind}{a.shape}".encode())
    h.update(np.ascontiguousarray(a))
    return h.hexdigest()


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
        return cls._hermitian_parts(_square_matrix(g, label or "observable")[None], label)[1][0]

    @classmethod
    def _hermitian_parts(cls, g: np.ndarray, label: str = "") -> tuple[np.ndarray, list]:
        """:meth:`hermitian_part` of each matrix of the stack ``g``, each labelled ``label``, in one pass:
        the stack of their matrices, and the observables, whose matrices are its slices."""
        name = label or "observable"
        # A non-finite part of g_ij makes that part of h_ij non-finite, so a finite ||h|| proves g finite.
        with np.errstate(invalid="ignore", over="ignore"):
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
            obs._freeze(m, _finite_norm(m, name, x))  # scans x where ||m|| is not finite
        return h, observables


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
        self._freeze(self._checked(a.reshape(1, -1))[0])

    def _freeze(self, amplitudes: np.ndarray) -> None:
        object.__setattr__(self, "amplitudes", amplitudes)
        # Kept 2-D so that a pure state is the one-column case of every matrix path.
        object.__setattr__(self, "factor", amplitudes.reshape(-1, 1))
        object.__setattr__(self, "weights", _UNIT_WEIGHT)

    @staticmethod
    def _checked(a: np.ndarray) -> np.ndarray:
        """The state pass over the stack ``a`` (T, n): a frozen C-ordered copy, whose rows are the states'
        amplitudes, once each row's norm is within ``INPUT_TOL`` of 1."""
        a = np.array(a, dtype=complex, order="C")
        a.setflags(write=False)
        for row in a:
            norm = _norm(row)
            if not math.isfinite(norm):  # a finite norm proves finite entries
                as_complex_matrix(row[None], "state vector")
            if abs(norm - 1.0) > INPUT_TOL:
                raise InvalidInput(f"state vector norm {norm!r} is not 1 within {INPUT_TOL}")
        return a

    @classmethod
    def _stack(cls, a: np.ndarray) -> list:
        """The state of each row of the stack ``a`` (T, n), from one pass (:meth:`_checked`)."""
        states = []
        for row in cls._checked(a):
            states.append(object.__new__(cls))
            states[-1]._freeze(row)
        return states

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
    decides PSD-ness, and its support weights w_k give the factor
    X = V_k w_k^(1/2) (see :meth:`EigenSystem.support`).  Built by
    :meth:`from_factor`, it is PSD by construction, its support comes from a
    k x k Gram matrix, and ``matrix`` is formed when first read.
    """

    matrix: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = require_hermitian(self.matrix, "density matrix")[0]
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > INPUT_TOL:
            raise InvalidInput(f"density matrix trace {trace!r} is not 1 within {INPUT_TOL}")
        w, v = _psd_eig(m, "density matrix").support()
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
                raise InvalidInput("factor is zero")
            scales.append(_power_of_two_scale(peak)[1:])
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


@dataclass(frozen=True, eq=False)
class PairMoments(_ArrayEquality):
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


def _moments(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moments body, for A and B (..., n, n) broadcast to the leading shape of the factors X (..., n, k):
    the means tr(X^dagger A X), tr(X^dagger B X) (..., 2), imaginary residues kept; the Gram matrix
    (..., 2, 2) of the centred pair A_c X, B_c X, whose entries are dev(A)^2, the cross term and dev(B)^2;
    and that pair (..., 2, n, k).  Each slice of a stacked call is the one-triple call, byte for byte;
    states stacked as extra columns of one product would not be, as BLAS picks its kernel by columns."""
    lead = x.shape[:-2]
    y = np.empty(lead + (2,) + x.shape[-2:], dtype=complex)  # A X and B X, each one matmul into its slice
    np.matmul(a, x, out=y[..., 0, :, :])
    np.matmul(b, x, out=y[..., 1, :, :])
    # Rows by columns, so each entry is one BLAS dot product, as np.vdot's; a 2 x nk by nk x 2 gemm rounds
    # about twice as much.
    means = np.matmul(y.reshape(lead + (2, 1, -1)), x.conj().reshape(lead + (1, -1, 1)))
    # Y_j -= Re(mean_j) X.  The mean enters with imaginary part 0, so each part of the product is one
    # rounded real product in any kernel, fused multiply-add or not, stacked or not.
    y -= means.real * x[..., None, :, :]
    gram = np.matmul(y.conj().reshape(lead + (2, 1, 1, -1)), y.reshape(lead + (1, 2, -1, 1)))
    return means[..., 0, 0], gram[..., 0, 0], y


def _pair_moments(a: Observable, b: Observable, state: QuantumState, moments: tuple) -> PairMoments:
    """The :class:`PairMoments` of a triple from its ``moments``, what :func:`_moments` returned for it (the
    one-triple call, or a slice of a stacked call), once each mean's imaginary residue passed its check against
    its observable's norm."""
    means, gram, centred = moments
    (alpha, beta), ((dev2_a, cross), (_, dev2_b)) = means.tolist(), gram.tolist()
    for obs, mean in ((a, alpha), (b, beta)):
        if abs(mean.imag) > INPUT_TOL * obs.norm:
            raise NonRealExpectation(f"imaginary residue {mean.imag:.3e} in expectation")
    return PairMoments(alpha.real, beta.real, math.sqrt(dev2_a.real), math.sqrt(dev2_b.real), cross,
                       centred[0], centred[1], a, b, state)


def pair_moments(observable_a, observable_b, state: QuantumState) -> PairMoments:
    """The one reduction of an (A, B, state) triple that every bound reads: :func:`_moments` on that triple."""
    a, b = _observable_pair(observable_a, observable_b)
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state)!r}")
    if a.dimension != state.dimension:
        raise DimensionMismatch(f"observable dimension {a.dimension} vs state dimension {state.dimension}")
    return _pair_moments(a, b, state, _moments(a.matrix, b.matrix, state.factor))


def expectation(observable, state: QuantumState) -> float:
    """<psi|A|psi> for a pure state, tr(rho A) for a mixed one: tr(X^dagger A X) for both."""
    obs = _checked(observable)
    return pair_moments(obs, obs, state).alpha


def stddev(observable, state: QuantumState) -> float:
    """Standard deviation of the observable in the given state.

    Computed from the centered observable, ||A_c X||_F, never as
    sqrt(<A^2> - <A>^2).
    """
    obs = _checked(observable)
    return pair_moments(obs, obs, state).dev_a
