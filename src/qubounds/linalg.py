"""Dense complex-matrix primitives.

Hermitian eigendecomposition, PSD fractional powers, Frobenius inner
products, unitary completion of orthonormal columns, and the two
linear-dependence detectors, whose witness halves build the saturation
certificates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotOrthonormal,
    NotPositiveSemidefinite,
)

# Relative budget of every input check, each against the input's own size.
INPUT_TOL = 1e-10
# The rounding floor as a share of the inputs' size: a few hundred ulps.
ROUNDING_TOL = 1e-13
# A coefficient below this share of its vector's size is zero where a sign or phase is fixed.
TIE_TOL = 1e-14


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative tolerance; the budget grows with the data scale."""

    absolute: float = 1e-12
    relative: float = 1e-9

    def __post_init__(self) -> None:
        # NaN would switch every comparison off and inf would pass every one.
        if not (0 <= self.absolute < math.inf and 0 <= self.relative < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")

    def effective(self, scale: float) -> float:
        """Budget for a comparison whose natural magnitude is ``scale``."""
        return self.absolute + self.relative * float(scale)


DEFAULT_TOL = Tolerance()


def _input_budget(tol: Tolerance) -> float:
    """Relative budget of a guard: a caller's ``tol`` may tighten it, never loosen it past the default."""
    return min(tol.effective(1.0), DEFAULT_TOL.effective(1.0))


def _rounding_floor(size: float, tol: Tolerance) -> float:
    """``ROUNDING_TOL * size``, capped at tol.effective(1) * size so that a zero tolerance admits only 0."""
    return min(tol.effective(1.0), ROUNDING_TOL) * size


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _square_matrix(m, name: str = "matrix") -> np.ndarray:
    """A square 2-D complex array with finite entries."""
    a = as_complex_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _finite_norm(a: np.ndarray, name: str = "matrix") -> float:
    """||a||_F; ValueError where finite entries overflow it."""
    norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise ValueError(f"{name} has a non-finite Frobenius norm")
    return norm


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is square, of finite ||m||_F, and Hermitian within ``INPUT_TOL * ||m||_F``."""
    a = _square_matrix(m, name)
    norm = _finite_norm(a, name)
    deviation = float(np.linalg.norm(a - a.conj().T))
    if deviation > INPUT_TOL * norm:
        raise NonHermitianInput(f"{name} deviates from Hermitian by {deviation:.3e}")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues above ``INPUT_TOL * ||P||_F`` and their eigenvector columns.

        Eigenvalues up to that cutoff are dropped, not just negative ones:
        fractional powers amplify +eps junk far above the reconstruction budget.
        """
        w = self.eigenvalues
        keep = w > INPUT_TOL * float(np.linalg.norm(w))
        return w[keep], self.eigenvectors[:, keep]

    def power(self, r: float) -> np.ndarray:
        """The PSD matrix raised to a positive power ``r``, on its :meth:`support`."""
        if r <= 0:
            raise ValueError("power must be positive")
        w, v = self.support()
        x = (v * w**r) @ v.conj().T
        return (x + x.conj().T) / 2.0


def _eigh_descending(a: np.ndarray) -> EigenSystem:
    if a.shape == (1, 1):
        # Its own eigendecomposition: what eigh returns, without the call.
        return EigenSystem(eigenvalues=a.real[0].copy(), eigenvectors=np.ones((1, 1), dtype=complex))
    w, vecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return EigenSystem(eigenvalues=w[::-1].copy(), eigenvectors=vecs[:, ::-1].copy())


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    return _eigh_descending(require_hermitian(h))


def _psd_eig(a: np.ndarray, name: str = "matrix") -> EigenSystem:
    """Spectrum of the validated Hermitian ``a``: the one PSD decision.

    Eigenvalues down to ``-INPUT_TOL * sum |lambda|`` (1 for a state) pass as rounding noise.
    """
    es = _eigh_descending(a)
    low = float(es.eigenvalues[-1])
    if low < -INPUT_TOL * float(np.abs(es.eigenvalues).sum()):
        raise NotPositiveSemidefinite(f"{name} has eigenvalue {low:.3e}")
    return es


def psd_power(p, r: float) -> np.ndarray:
    """``p`` raised to a positive power ``r`` through its spectral decomposition.

    Noise-band eigenvalues count as zero (see :meth:`EigenSystem.power`); a
    more negative one raises :class:`NotPositiveSemidefinite`.
    """
    return _psd_eig(require_hermitian(p)).power(r)


def frobenius_inner(x, y) -> complex:
    """tr(x^dagger y); conjugate-symmetric in its arguments."""
    a = as_complex_matrix(x, "x")
    b = as_complex_matrix(y, "y")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def _require_isometry(basis: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Return the n x k ``basis`` if it has k <= n orthonormal columns, Gram = I within ``tol``."""
    n, k = basis.shape
    if k > n:
        raise DimensionMismatch(f"{k} columns cannot be orthonormal in dimension {n}")
    # ||Gram - I||_F from one np.vdot per pair of columns.  The BLAS product
    # basis^dagger basis is not exactly Hermitian, so exactly orthonormal
    # columns could miss a zero budget by rounding.
    columns = basis.T
    deviation_sq = 0.0
    for i, x in enumerate(columns):
        deviation_sq += (np.vdot(x, x).real - 1.0) ** 2
        for y in columns[i + 1:]:
            deviation_sq += 2.0 * abs(np.vdot(x, y)) ** 2
    deviation = math.sqrt(deviation_sq)
    if deviation > _input_budget(tol):
        raise NotOrthonormal(f"input Gram deviates from identity by {deviation:.3e}")
    return basis


def unitary_completion(columns, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The completion is the Q factor of one Householder QR of
    ``[columns | I]``: its leading columns span the given ones, and the rest
    are orthonormal to them, so the result is deterministic.  The given
    columns then replace their phase-rotated copies in Q and are kept
    exactly as the leading columns.
    """
    cols = [np.asarray(c, dtype=complex).ravel() for c in columns]
    if not cols or any(c.size != cols[0].size for c in cols):
        raise DimensionMismatch("need one or more columns of one length")
    basis = as_complex_matrix(np.column_stack(cols), "columns")
    return _completion(_require_isometry(basis, tol))


def _completion(basis: np.ndarray) -> np.ndarray:
    """:func:`unitary_completion` of the n x k ``basis``, whose columns are already checked."""
    q, _ = np.linalg.qr(np.hstack([basis, np.eye(basis.shape[0], dtype=complex)]))
    q[:, : basis.shape[1]] = basis
    return q


def _canonical_real_pair(c: float, s: float) -> tuple[float, float]:
    # (c, s) and (-c, -s) encode the same dependence; pick cos >= 0,
    # and sin >= 0 on the cos = 0 boundary.
    if c < 0 or (abs(c) <= TIE_TOL and s < 0):
        return -c, -s
    return c, s


def _dependence_decision(witness, residual: float, x, y, tol: Tolerance):
    """``witness`` if residual^2 <= tol.effective(1) (||x||^2 + ||y||^2) (the flags' shape), else None."""
    size = math.hypot(*(float(np.linalg.norm(np.asarray(v, dtype=complex))) for v in (x, y)))
    return witness if residual <= math.sqrt(tol.effective(1.0)) * size else None


def phase_dependence_detail(x, y) -> tuple[float, float]:
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


def phase_dependence(x, y, tol: Tolerance = DEFAULT_TOL) -> float | None:
    """Angle theta with cos(theta) x + i sin(theta) y = 0, if one exists.

    Real-linear dependence of x and i*y: the squared residual of
    :func:`phase_dependence_detail` against tol.effective(1) (||x||^2 + ||y||^2).
    Returns None when the vectors are independent at the given tolerance.
    """
    theta, residual = phase_dependence_detail(x, y)
    return _dependence_decision(theta, residual, x, y, tol)


def complex_dependence_detail(x, y) -> tuple[tuple[float, float], float]:
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


def complex_dependence(x, y, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float] | None:
    """Angles (theta, phi) with cos(theta) x + e^{i phi} sin(theta) y = 0.

    Complex-linear dependence of two equal-shaped matrices: the squared residual
    of :func:`complex_dependence_detail` against tol.effective(1) (||x||_F^2 + ||y||_F^2).
    Returns None when independent.
    """
    angles, residual = complex_dependence_detail(x, y)
    return _dependence_decision(angles, residual, x, y, tol)
