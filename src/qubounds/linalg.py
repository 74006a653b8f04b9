"""Dense complex-matrix primitives.

Hermitian eigendecomposition, PSD fractional powers, unitary completion of
orthonormal columns, and the least direction of a 2 x 2 Gram form, from which
the dependence detectors and the saturation certificates read their witnesses.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NonHermitianInput, NotOrthonormal, NotPositiveSemidefinite

# Relative budget of every input check, each against the input's own size.
INPUT_TOL = 1e-10
# The rounding floor as a share of the inputs' size: a few hundred ulps.
ROUNDING_TOL = 1e-13
# A coefficient below this share of its vector's size is zero where a sign or phase is fixed.
TIE_TOL = 1e-14


@dataclass(frozen=True)
class Tolerance:
    """The one tolerance eps, kept as a float: each check compares its error with eps times a scale it states."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        try:  # a bool or a value that is not a real number is no tolerance (NaN); one past float range is inf
            eps = float(self.eps) if isinstance(self.eps, numbers.Real) and not isinstance(self.eps, bool) else math.nan
        except OverflowError:
            eps = math.inf
        if not 0 <= eps < math.inf:  # NaN would switch every comparison off and inf would pass every one
            raise ValueError(f"tolerance must be a finite nonnegative real number, got {self.eps!r}")
        object.__setattr__(self, "eps", eps)


DEFAULT_TOL = Tolerance()


def _input_budget(tol: Tolerance) -> float:
    """Relative budget of a guard: a caller's ``tol`` may tighten it, never loosen it past the default."""
    return min(tol.eps, DEFAULT_TOL.eps)


def _pair_budget(tol: Tolerance, size: float = 1.0) -> float:
    """A pair check's budget: :func:`_input_budget`, never below ``ROUNDING_TOL * size``."""
    return max(_input_budget(tol), ROUNDING_TOL * size)


def _square(x: float) -> float:
    """x ** 2, or inf where a float power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _norm(x: np.ndarray) -> float:
    """||x||_F bit for bit as ``np.linalg.norm`` computes it, without the wrapper: ravel, re.re + im.im (v.v for a
    real x), sqrt."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v) if v.dtype.kind != "c" else v.real.dot(v.real) + v.imag.dot(v.imag))


def _complex_array(x, name: str) -> np.ndarray:
    """``x`` as a complex array: InvalidInput where an entry is not a number or the input is ragged."""
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} is not an array of numbers: {exc}") from exc


def as_complex_matrix(m, name: str = "matrix", scan: bool = True) -> np.ndarray:
    """Coerce to a nonempty 2-D complex array with finite entries; ``scan=False`` leaves them to a norm check."""
    a = _complex_array(m, name)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if scan and not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def _square_matrix(m, name: str = "matrix") -> np.ndarray:
    """A square 2-D complex array; only a non-square one is scanned here (see :func:`_finite_norm`)."""
    a = _complex_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        as_complex_matrix(a, name)  # not 2-D or empty: DimensionMismatch; else the scan of the entries
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _finite_norm(a: np.ndarray, name: str = "matrix", entries: np.ndarray | None = None) -> float:
    """||a||_F; InvalidInput where not finite, for non-finite ``entries`` (default ``a``) if a scan finds any."""
    norm = _norm(a)
    if not math.isfinite(norm):
        as_complex_matrix(a if entries is None else entries, name)
        raise InvalidInput(f"{name} has a non-finite Frobenius norm")
    return norm


def require_hermitian(m, name: str = "matrix") -> tuple[np.ndarray, float]:
    """Validate that ``m`` is square, of finite ||m||_F, and Hermitian within ``INPUT_TOL * ||m||_F``;
    return it as a complex array, with the ||m||_F the test read."""
    a = _square_matrix(m, name)
    with np.errstate(over="ignore"):  # an overflowing norm is an InvalidInput, and an overflowing deviation fails
        norm = _finite_norm(a, name)
        deviation = _norm(a - a.conj().T)
    if deviation > INPUT_TOL * norm:
        raise NonHermitianInput(f"{name} deviates from Hermitian by {deviation:.3e}")
    return a, norm


class _ArrayEquality:
    """Equal values: one type, equal fields, arrays entry by entry; unhashable, as arrays are."""

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of each Hermitian slice of ``a``: eigenvalues descending, with matching unitary eigenvector columns."""
    w, vecs = np.linalg.eigh((a + a.conj().swapaxes(-1, -2)) / 2.0)
    return w[..., ::-1].copy(), vecs[..., ::-1].copy()


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix, eigenvalues descending."""
    return _eigh_descending(require_hermitian(h)[0])


def _psd_support(a: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """The support (w, v) of the validated Hermitian ``a``, after the one PSD decision: its eigenvalues above
    ``INPUT_TOL * ||w||``, descending, and their eigenvector columns, as prefixes of :func:`_eigh_descending`'s
    arrays, sliced with no copy.

    Eigenvalues down to ``-INPUT_TOL * sum |lambda|`` (1 for a state) pass as rounding noise.  Eigenvalues up
    to the cutoff are dropped, not just negative ones: fractional powers amplify +eps junk far above the
    reconstruction budget.
    """
    w, v = _eigh_descending(a)
    low = float(w[-1])
    if low < 0.0 and low < -INPUT_TOL * float(np.abs(w).sum()):
        raise NotPositiveSemidefinite(f"{name} has eigenvalue {low:.3e}")
    k = int(np.count_nonzero(w > INPUT_TOL * _norm(w)))
    return w[:k], v[:, :k]


def psd_power(p, r: float) -> np.ndarray:
    """``p`` raised to a positive power ``r`` through its spectral decomposition, on its support.

    Noise-band eigenvalues count as zero (see :func:`_psd_support`); a more negative one raises
    :class:`NotPositiveSemidefinite`, and a power that overflows to a non-finite entry :class:`InvalidInput`.
    """
    if r <= 0:
        raise ValueError("power must be positive")
    w, v = _psd_support(require_hermitian(p)[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite entry, an InvalidInput
        x = (v * w**r) @ v.conj().T
        return as_complex_matrix((x + x.conj().T) / 2.0, f"matrix power {r!r}")


def _grams(rows: np.ndarray) -> list:
    """The Gram matrix [<x_i, x_j>] of the rows x_i of each slice of the stack ``rows`` (T, k, n), as lists, from
    one product: each entry one BLAS dot product of unit-stride rows, as ``np.vdot(x_i, x_j)``."""
    rows = np.ascontiguousarray(rows)
    return np.matmul(rows.conj()[:, :, None, None], rows[:, None, :, :, None])[..., 0, 0].tolist()


def _require_orthonormal(gram: list, tol: Tolerance) -> float:
    """||Gram - I||_F of k columns (:func:`_grams`); :class:`NotOrthonormal` unless it is within its budget.  A
    BLAS product basis^dagger basis is not exactly Hermitian, so orthonormal columns could miss a zero budget."""
    deviation_sq = 0.0
    for i, row in enumerate(gram):
        deviation_sq += _square(row[i].real - 1.0)
        for g in row[i + 1:]:
            deviation_sq += 2.0 * _square(abs(g))
    deviation = math.sqrt(deviation_sq)
    if not deviation <= _pair_budget(tol, math.sqrt(len(gram))):
        raise NotOrthonormal(f"input Gram deviates from identity by {deviation:.3e}")
    return deviation


def _require_isometry(basis: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Return the n x k ``basis`` if it has k <= n orthonormal columns (:func:`_require_orthonormal`)."""
    n, k = basis.shape
    if k > n:
        raise DimensionMismatch(f"{k} columns cannot be orthonormal in dimension {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # an entry that overflows fails the test, as inf or NaN
        _require_orthonormal(_grams(basis.T[None])[0], tol)
    return basis


def unitary_completion(columns, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Extend orthonormal columns to a full unitary matrix.

    The completion is the Q factor of one Householder QR of
    ``[columns | I]``: its leading columns span the given ones, and the rest
    are orthonormal to them, so the result is deterministic.  The given
    columns then replace their phase-rotated copies in Q and are kept
    exactly as the leading columns.
    """
    try:
        cols = [_complex_array(c, "columns").ravel() for c in columns]
    except TypeError as exc:  # not a sequence of columns
        raise DimensionMismatch(f"columns must be a sequence of vectors: {exc}") from exc
    if not cols or any(c.size != cols[0].size for c in cols):
        raise DimensionMismatch("need one or more columns of one length")
    basis = as_complex_matrix(np.column_stack(cols), "columns")
    return _completion(_require_isometry(basis, tol))


def _completion(basis: np.ndarray) -> np.ndarray:
    """:func:`unitary_completion` of the n x k ``basis``, whose columns are already checked."""
    q, _ = np.linalg.qr(np.hstack([basis, np.eye(basis.shape[0], dtype=complex)]))
    q[:, : basis.shape[1]] = basis
    return q


def _least_direction(p: float, q: float, r: float) -> tuple[float, float]:
    """The unit real (c, s) minimising p c^2 + 2 q c s + r s^2, c >= 0 (s >= 0 where c = 0); (1, 0) on a tie.

    It is read off the form's row with the larger diagonal, (-q, d + h) or (h - d, -q) for
    d = (p - r)/2 and h = hypot(d, q): no step cancels, so each coefficient keeps its own relative accuracy.
    """
    d = (p - r) / 2.0
    h = math.hypot(d, q)
    c, s = (-q, d + h) if d >= 0 else (h - d, -q)
    norm = math.hypot(c, s)
    if norm == 0.0:
        return 1.0, 0.0
    sign = -1.0 if c < 0 or (c == 0 and s < 0) else 1.0
    return sign * c / norm + 0.0, sign * s / norm + 0.0  # + 0.0 turns -0.0 into 0.0


def _phase_witness(p: float, g: complex, r: float) -> tuple[float, complex, float]:
    """(a, b, theta) with a x + b y = cos(theta) x + i sin(theta) y least, for the Gram form
    (p, g, r) = (||x||^2, <x, y>, ||y||^2), where Re<x, i y> = -Im g."""
    c, s = _least_direction(p, -g.imag, r)
    return c, 1j * s, math.atan2(s, c) % (2.0 * math.pi)


def _complex_witness(p: float, g: complex, r: float) -> tuple[float, complex, tuple[float, float]]:
    """(a, b, (theta, phi)) with a x + b y = cos(theta) x + e^{i phi} sin(theta) y least, for the Gram
    form (p, g, r): e^{i phi} = -conj(g)/|g| gives Re(e^{i phi} g) = -|g|, and phi = 0 where g = 0."""
    c, s = _least_direction(p, -abs(g), r)
    unit = -g.conjugate() / abs(g) if g else 1.0
    return c, unit * s, (math.atan2(s, c), cmath.phase(unit) % (2.0 * math.pi))


def _power_of_two_scale(peak: float) -> tuple[int, float, float]:
    """The e that puts ``peak`` in [0.5, 1) (0 for peak 0), and 2^-e as two normal floats, 2^(-e // 2) and
    2^-(e // 2): an array times the first, then the second, is scaled exactly, and neither factor overflows."""
    e = math.frexp(peak)[1]
    return e, 2.0 ** (-e // 2), 2.0 ** -(e // 2)


def _dependence(x: np.ndarray, y: np.ndarray, witness):
    """``witness`` of equal-shaped x and y, scaled exactly by the power of two 2^-e that puts their largest
    modulus in [0.5, 1) so no square overflows: its angles, ||a x + b y||, and that residual and
    ||x||^2 + ||y||^2 in units of 2^e and 2^2e."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape mismatch {x.shape} vs {y.shape}")
    with np.errstate(over="ignore"):  # a modulus that overflows is an InvalidInput below
        peak = float(np.maximum(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0)))
    if not math.isfinite(peak):
        as_complex_matrix(np.concatenate((x.ravel(), y.ravel()))[None], "x or y")  # names non-finite entries
        raise InvalidInput("x or y has an entry whose modulus overflows")
    e, s1, s2 = _power_of_two_scale(peak)
    x, y = x * s1 * s2, y * s1 * s2
    p, r = float(np.vdot(x, x).real), float(np.vdot(y, y).real)
    a, b, angles = witness(p, complex(np.vdot(x, y)), r)
    residual = _norm(a * x + b * y)
    return angles, residual * 2.0 ** (e // 2) * 2.0 ** (e - e // 2), residual, p + r


def _phase_dependence(x, y):
    return _dependence(_complex_array(x, "x").ravel(), _complex_array(y, "y").ravel(), _phase_witness)


def phase_dependence_detail(x, y) -> tuple[float, float]:
    """The theta minimising ||cos(theta) x + i sin(theta) y||, and that minimum.

    theta is the least direction of the Gram form of (x, i y), read from
    ||x||^2, ||y||^2 and Im <x, y>; two zero vectors give (0, 0).  Decides nothing.
    """
    return _phase_dependence(x, y)[:2]


def phase_dependence(x, y, tol: Tolerance = DEFAULT_TOL) -> float | None:
    """Angle theta with cos(theta) x + i sin(theta) y = 0, if one exists.

    Real-linear dependence of x and i*y: the squared residual of
    :func:`phase_dependence_detail` against tol.eps (||x||^2 + ||y||^2).
    Returns None when the vectors are independent at the given tolerance.
    """
    theta, _, residual, size_sq = _phase_dependence(x, y)
    return theta if residual <= math.sqrt(tol.eps * size_sq) else None


def _complex_dependence(x, y):
    return _dependence(as_complex_matrix(x, "x"), as_complex_matrix(y, "y"), _complex_witness)


def complex_dependence_detail(x, y) -> tuple[tuple[float, float], float]:
    """The (theta, phi) minimising ||cos(theta) x + e^{i phi} sin(theta) y||, and that minimum.

    theta is the least direction of the Gram form with off-diagonal -|<x, y>|, and
    phi = arg(-conj <x, y>), or 0 where <x, y> = 0; theta lies in [0, pi/2], phi
    in [0, 2 pi).  Two zero operands give ((0, 0), 0).  Decides nothing.
    """
    return _complex_dependence(x, y)[:2]


def complex_dependence(x, y, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float] | None:
    """Angles (theta, phi) with cos(theta) x + e^{i phi} sin(theta) y = 0.

    Complex-linear dependence of two equal-shaped matrices: the squared residual
    of :func:`complex_dependence_detail` against tol.eps (||x||_F^2 + ||y||_F^2).
    Returns None when independent.
    """
    angles, _, residual, size_sq = _complex_dependence(x, y)
    return angles if residual <= math.sqrt(tol.eps * size_sq) else None
