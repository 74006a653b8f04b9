"""Observables, pure and mixed states, and their moments.

The uncertainty machinery below only ever needs a handful of scalars per
(A, B, state) triple: the means, the centered deviations, and one cross
inner product.  :func:`pair_moments` computes them once, on the centered
data, so near-saturated instances do not suffer cancellation.  It is the
one-triple call of the moments body :func:`_moments`, which takes any leading
batch shape: a sweep reduces a chunk of triples in one call, each slice in the bytes of its own call.
A reduction is built at its entry's tolerance, and decides there, once, whether each deviation is zero to
rounding (:func:`_zero_deviation`); every bound, checker and construction reads those sides from it.

Each input is validated once, where it enters: bare matrices become
:class:`Observable` objects in :func:`_entry`, and inner calls pass those on.
Each input is hashed when its ``digest`` is first read, at most once: observables and
states carry a ``digest`` of their frozen array, and report digests combine those.  A sweep
hashes each stack of its inputs in one call instead (:func:`_store_digests`), which stores each ``digest``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonRealExpectation
from .linalg import (DEFAULT_TOL, INPUT_TOL, ROUNDING_TOL, Tolerance, _ArrayEquality, _complex_array, _eigh_descending,
                     _finite_norm, _norm, _power_of_two_scale, _psd_support, _square_matrix, as_complex_matrix,
                     require_hermitian)


def _digests(kind: str, arrays) -> list:
    """SHA-256 of each of ``arrays``, all of one shape, in C order, tagged with ``kind`` and that shape: the tag is
    hashed once, and each array's hash goes on from a copy of that hash."""
    tagged = hashlib.sha256(f"{kind}{arrays[0].shape}".encode())
    hashes = [tagged.copy() for _ in arrays]
    for h, a in zip(hashes, arrays):
        h.update(np.ascontiguousarray(a))
    return [h.hexdigest() for h in hashes]


def _array_digest(kind: str, a: np.ndarray) -> str:
    """SHA-256 of an input array's entries in C order, tagged with its kind and shape: :func:`_digests` of one."""
    return _digests(kind, (a,))[0]


def _store_digests(inputs: list) -> None:
    """Store each input's ``digest`` from one :func:`_digests` call: the ``inputs`` share their kind and hashed array
    (``_HASHED``) and its shape, as each input stack of a sweep does, so their tag is hashed once."""
    kind, name = inputs[0]._HASHED
    for x, digest in zip(inputs, _digests(kind, [getattr(x, name) for x in inputs])):
        vars(x)["digest"] = digest


class _Input(_ArrayEquality):
    """An observable or a state: ``_HASHED`` names its kind and the frozen array that its ``digest`` hashes
    (:func:`_array_digest`) when first read, unless a sweep stored it (:func:`_store_digests`).  That array's leading
    axis is the ``dimension``: of the matrix, the amplitudes, or a factor-built state's prescaled G.  What a maker
    derives from that array (an observable's ``norm``, a density matrix's ``factor`` and ``weights``) is written by
    the makers and is not declared as a field."""

    @property
    def dimension(self) -> int:
        return getattr(self, self._HASHED[1]).shape[0]

    @functools.cached_property
    def digest(self) -> str:
        kind, name = self._HASHED
        return _array_digest(kind, getattr(self, name))

    def __getstate__(self) -> dict:
        # A state's kept moments (:func:`_reduction`) and pair (:func:`~qubounds.saturation._constructed`) are caches,
        # not part of its value: a pickle or copy drops them.
        return {k: v for k, v in vars(self).items() if k not in ("_reduced", "_paired")}

    def _set(self, attrs: dict) -> None:
        """The one writer of an existing input's attributes: each array in ``attrs``, which no caller holds, is
        frozen in place, and so is each array down its ``.base`` chain, so that no view of its memory is writable (a
        support's weights are a prefix of the eigenvalues that ``_eigh_descending`` copied).  A loaded or copied
        input is set by it too, as a pickle or a deep copy gives writable arrays."""
        for v in attrs.values():
            while isinstance(v, np.ndarray):
                v.setflags(write=False)
                v = v.base
        vars(self).update(attrs)

    __setstate__ = _set


@dataclass(frozen=True, eq=False)
class Observable(_Input):
    """A Hermitian matrix standing for a measurable quantity: validated once, frozen with ||A||_F
    (``norm``); its ``digest`` is taken when first read."""

    _HASHED = ("observable", "matrix")
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        m, norm = require_hermitian(self.matrix, self.label or "observable")
        self._set({"matrix": np.array(m), "norm": norm})

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
        g = _square_matrix(g, label or "observable")[None]
        # A non-finite part of g_ij makes that part of h_ij non-finite, so a finite ||h|| proves g finite.
        with np.errstate(invalid="ignore", over="ignore"):
            h = g + g.conj().swapaxes(1, 2)
            np.divide(h, 2.0, out=h)
            return cls._frozen(h, g, label)[0]

    @classmethod
    def _frozen(cls, h: np.ndarray, g: np.ndarray, label: str) -> list:
        """The observables labelled ``label`` whose matrices are the slices of the stack ``h``, Hermitian bit for bit
        and formed from the stack ``g``, each frozen with its ||.||_F; where that norm is not finite, the slice of
        ``g`` is scanned, so that non-finite entries of the input raise as such.  ``h`` is frozen in place; a caller
        that hands it a view freezes the view's owner."""
        h.setflags(write=False)
        observables = [object.__new__(cls) for _ in range(len(h))]
        for obs, m, x in zip(observables, h, g):
            vars(obs).update(label=label, matrix=m, norm=_finite_norm(m, label or "observable", x))
        return observables


# The support weight of every pure state, shared read-only.
_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PureState(_Input):
    """A unit vector of amplitudes, all that it stores; its factor is the n x 1 column psi, of weight 1."""

    _HASHED = ("pure", "amplitudes")
    weights = _UNIT_WEIGHT
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _complex_array(self.amplitudes, "state vector")
        if a.size < 1 or a.size != max(a.shape, default=1):
            raise DimensionMismatch(f"state must be a nonempty vector, got shape {a.shape}")
        a = np.array(a.reshape(-1))
        with np.errstate(over="ignore"):  # a norm that overflows is an InvalidInput
            norm = _norm(a)
        if not math.isfinite(norm):  # a finite norm proves finite entries
            as_complex_matrix(a[None], "state vector")
        if abs(norm - 1.0) > INPUT_TOL:
            raise InvalidInput(f"state vector norm {norm!r} is not 1 within {INPUT_TOL}")
        self._set({"amplitudes": a})

    @property
    def factor(self) -> np.ndarray:
        """psi as a column view of the amplitudes, so that a pure state is the one-column case of every matrix path;
        it is also the moments' root.  ``reshape`` keeps the column's strides those of a matrix."""
        return self.amplitudes.reshape(-1, 1)

    _root = factor

    @classmethod
    def _stack(cls, a: np.ndarray) -> list:
        """The state of each row of the complex stack ``a`` (T, n) of unit rows that the library built (each over its
        own norm, or e2) and writes no more: frozen in place, with no copy and no state pass."""
        a.setflags(write=False)
        states = [object.__new__(cls) for _ in range(len(a))]
        for state, row in zip(states, a):
            vars(state)["amplitudes"] = row
        return states


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Input):
    """A PSD, trace-one Hermitian matrix rho = X X^dagger.

    Built from a matrix, it is checked where it enters: one eigendecomposition
    decides PSD-ness, and its support weights w_k give the factor
    X = V_k w_k^(1/2) (see :func:`~qubounds.linalg._psd_support`) that its moments read.
    Built by :meth:`from_factor`, it is PSD by construction, its support comes from
    the eigenvalues of a k x k Gram matrix, and ``matrix`` is formed when first read.
    """

    _HASHED = ("density-factor", "_prescaled")  # a factor-built state's; a matrix-built one hashes its matrix
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = require_hermitian(self.matrix, "density matrix")[0]
        trace = float(m.trace().real)
        if abs(trace - 1.0) > INPUT_TOL:
            raise InvalidInput(f"density matrix trace {trace!r} is not 1 within {INPUT_TOL}")
        support = self._support(*_psd_support(m, "density matrix"))
        self._set(dict(support, matrix=np.array(m), _HASHED=("density", "matrix")))

    def _support(self, w: np.ndarray, v: np.ndarray, basis: np.ndarray | None = None) -> dict:
        """The one support body, for the weights ``w`` and orthonormal columns ``v``, fresh arrays that no caller
        holds: the state's ``weights`` = w, ``factor`` = V w^(1/2) and ``_basis``, and the moments' root (``_root``)
        that factor unless it is G/||G||_F already, for the caller to ``_set``.  ``basis`` is U, with (G/||G||_F) U
        the factor up to its columns' phases, where the root is G/||G||_F, and else None."""
        factor = v * np.sqrt(w)
        return {"factor": factor, "weights": w, "_basis": basis, "_root": vars(self).get("_root", factor)}

    def __getattr__(self, name: str):
        # Only a factor-built state's arrays are missing: formed from its prescaled G when first read.  Its support
        # (see :meth:`from_factor`) comes from one ``eigh`` of its Gram matrix: over all k where the moments read
        # G/||G||_F, else over the support alone.
        if name not in ("matrix", "factor", "weights", "_basis", "_root") or "_prescaled" not in vars(self):
            raise AttributeError(name)
        if name != "matrix":
            x = self._prescaled
            full = "_root" in vars(self)
            lam, u = (_eigh_descending if full else _psd_support)(x.conj().T @ x)  # a Gram matrix passes the PSD test
            v = x @ u
            v = v * v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])].conj()
            v = v / np.sqrt(np.add.reduce((v.conj() * v).real, axis=0))  # linalg.norm
            self._set(self._support(lam / lam.sum(), v, u if full else None))
            return vars(self)[name]
        rho = self._prescaled @ self._prescaled.conj().T
        rho = rho / np.trace(rho).real
        self._set({"matrix": (rho + rho.conj().T) / 2.0})
        return self.matrix

    @classmethod
    def from_factor(cls, g) -> "DensityMatrix":
        """rho = G G^dagger / ||G||_F^2 for an n x k ``g``, in O(n k^2) work: rho is not formed.

        The support is that of the Gram matrix G^dagger G = U diag(lambda) U^dagger:
        its eigenvalues above ``INPUT_TOL * ||lambda||`` give the weights, normalised
        to sum 1, and the columns G u_j, each rotated by the conjugate of its largest
        entry and normalised, give V_k; a 1 x 1 state's factor is 1 up to rounding.  The moments
        read G/||G||_F where the cutoff keeps every eigenvalue, and else that factor; only
        ``eigvalsh`` runs until the factor, the weights or such moments are first read.
        G is first scaled exactly, by the power of two that puts max |G_ij| (where that
        overflows, the largest part) in [0.5, 1), so 2^k G gives the same state bit for bit
        and nothing overflows.  The state keeps that prescaled G, frozen: ``digest`` hashes
        it (tagged ``density-factor``), and ``matrix`` is formed from it, each when first read.
        """
        return cls._from_factors(as_complex_matrix(g, "factor", scan=False)[None])[0]

    @classmethod
    def _from_factors(cls, g: np.ndarray) -> list:
        """:meth:`from_factor` of each factor of the stack ``g``: one ``eigvalsh`` of the Gram matrices decides
        every support, and a state's ``eigh`` runs only when its factor, weights or (where its support drops a
        direction) moments are first read."""
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
        gram = prescaled.conj().swapaxes(1, 2) @ prescaled
        lam = np.linalg.eigvalsh(gram)
        roots = prescaled / np.sqrt(np.trace(gram, axis1=1, axis2=2).real)[:, None, None]
        roots.setflags(write=False)
        states = [object.__new__(cls) for _ in range(len(g))]
        for state, x, root, w in zip(states, prescaled, roots, lam):
            vars(state)["_prescaled"] = x
            if w[0] > INPUT_TOL * _norm(w):  # ascending, so the cutoff keeps every eigenvalue where it keeps the first
                vars(state)["_root"] = root
        return states

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        """The projector |psi><psi|, built from psi as its factor; no eigendecomposition runs."""
        if not isinstance(psi, PureState):
            raise TypeError(f"unsupported state type {type(psi)!r}")
        return cls.from_factor(psi.factor)


# Tagged union of the two state representations.
QuantumState = PureState | DensityMatrix


def _checked(observable) -> Observable:
    """The entry check: a bare matrix becomes a validated Observable."""
    if isinstance(observable, Observable):
        return observable
    return Observable(observable)


def _entry(observable_a, observable_b, states=(), kind=(PureState, DensityMatrix)) -> tuple[Observable, Observable]:
    """The one entry check, in order: both observables checked once, of one dimension; each of ``states`` an
    instance of ``kind``; then each of the observables' dimension.  Pass the observables it returns inward."""
    a, b = _checked(observable_a), _checked(observable_b)
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatch(f"observable dimensions differ: {a.matrix.shape[0]} vs {b.matrix.shape[0]}")
    for state in states:
        if not isinstance(state, kind):
            raise TypeError(f"unsupported state type {type(state)!r}")
    for state in states:
        if a.dimension != state.dimension:
            raise DimensionMismatch(f"observable dimension {a.dimension} vs state dimension {state.dimension}")
    return a, b


@dataclass(frozen=True, eq=False)
class PairMoments(_ArrayEquality):
    """Centered second moments of two observables in one state: the one reduction.

    ``centered_a`` is A_c X for the state's square root X (rho = X X^dagger)
    that the moments read: an n x k matrix, n x 1 (A_c psi) for a pure state;
    likewise ``centered_b``.  ``dev_a`` is its Frobenius norm, and over the
    state's ``factor`` (:meth:`_over_factor`), ||A_c rho^r||_F = ||A_c X w^(r - 1/2)||_F
    for the support weights w.  ``cross`` is the Frobenius inner product <A_c X, B_c X>; its imaginary
    part is half the commutator expectation, its real part the centered
    anticommutator half-sum.  ``a``, ``b`` and ``state`` are the validated
    inputs the moments were taken from, and a report's digest is read from theirs.
    Its maker (:func:`_pair_moments`) also writes, as attributes and not as fields,
    the entry's tolerance ``tol`` and ``zero``, whether dev(A) and dev(B) are zero to
    rounding at it (:func:`_zero_deviation`), decided there once; so a bound,
    checker or construction body needs nothing else.
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

    def _over_factor(self, y: np.ndarray) -> np.ndarray:
        """Columns ``y`` over the square root X that the moments read, such as A_c X, turned over the state's
        ``factor``, whose orthogonal columns pair with its ``weights``: y U for its ``_basis`` U, where it has one."""
        basis = getattr(self.state, "_basis", None)
        return y if basis is None else y @ basis


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


def _zero_budget(o: Observable, tol: Tolerance) -> float:
    """The largest deviation of A = ``o`` that is zero to rounding (:func:`_zero_deviation`)."""
    return max(tol.eps * o.spread, min(tol.eps, ROUNDING_TOL) * o.norm)


def _zero_deviation(dev: float, o: Observable, tol: Tolerance) -> bool:
    """The zero rule: whether dev(A) = ``dev`` is zero to rounding, for A = ``o``.

    dev(A) is zero within tol.eps times the spread of A, which no identity
    offset moves, or within the rounding floor min(tol.eps, ROUNDING_TOL) ||A||_F,
    which covers n = 1 and multiples of the identity (spread 0).  As spread(A) <= ||A||_F, a
    deviation above tol.eps ||A||_F is not zero and needs no spread.
    """
    return dev <= tol.eps * o.norm and dev <= _zero_budget(o, tol)


def _pair_moments(a: Observable, b: Observable, state: QuantumState, moments: tuple, tol: Tolerance) -> PairMoments:
    """The :class:`PairMoments` of a triple from its ``moments``, what :func:`_moments` returned for it (the
    one-triple call, or a slice of a stacked call), once each mean's imaginary residue passed its check against
    its observable's norm; its zero sides are decided here, the one place, at the entry's ``tol``."""
    means, gram, centred = moments
    (alpha, beta), ((dev2_a, cross), (_, dev2_b)) = means.tolist(), gram.tolist()
    for obs, mean in ((a, alpha), (b, beta)):
        if abs(mean.imag) > INPUT_TOL * obs.norm:
            raise NonRealExpectation(f"imaginary residue {mean.imag:.3e} in expectation")
    dev_a, dev_b = math.sqrt(dev2_a.real), math.sqrt(dev2_b.real)
    m = object.__new__(PairMoments)  # its fields without a frozen init's object.__setattr__ each, at half the cost
    vars(m).update(alpha=alpha.real, beta=beta.real, dev_a=dev_a, dev_b=dev_b, cross=cross, centered_a=centred[0],
                   centered_b=centred[1], a=a, b=b, state=state, tol=tol,
                   zero=(_zero_deviation(dev_a, a, tol), _zero_deviation(dev_b, b, tol)))
    return m


def _reduction(a: Observable, b: Observable, state: QuantumState, tol: Tolerance) -> PairMoments:
    """:func:`_pair_moments` of the validated triple at ``tol``, from the moments that a one-entry slot (a, b,
    moments) on ``state`` keeps for ``a`` and ``b`` by identity, else from :func:`_moments`, which fill it.  The slot
    holds weak references to ``a`` and ``b`` and none to the state, so it keeps none of them alive; a hit needs the
    same live objects.  It keeps no tolerance, so a hit decides its zero sides at the caller's."""
    slot = vars(state).get("_reduced")
    if slot is not None and slot[0]() is a and slot[1]() is b:
        return _pair_moments(a, b, state, slot[2], tol)
    moments = _moments(a.matrix, b.matrix, state._root)
    moments[2].setflags(write=False)
    m = _pair_moments(a, b, state, moments, tol)
    vars(state)["_reduced"] = (weakref.ref(a), weakref.ref(b), moments)
    return m


def pair_moments(observable_a, observable_b, state: QuantumState) -> PairMoments:
    """The one reduction of an (A, B, state) triple that every bound reads (:func:`_reduction`), at ``DEFAULT_TOL``."""
    return _reduction(*_entry(observable_a, observable_b, (state,)), state, DEFAULT_TOL)


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
