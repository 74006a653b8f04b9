"""Equality certificates and explicit saturating constructions.

Each characterization is one decision.  A Robertson or Schrodinger
certificate exists exactly when the bound's report is saturated (its
relative slack, or a deviation zero to rounding); the SVD of the centred
operands then only builds the witness angles, which the mixed checkers
re-verify at several powers of rho.  The zero-deviation characterizations
decide each side by its deviation.  The Maccone-Pati checkers read their
bound's report flag, and c = <psi|A|phi> and d = <psi|B|phi> as matrix
elements; they build no frame.
Like the evaluators, each checker and constructor is an entry that validates and reduces
its inputs, with a private body that reads only the reduction where the sweep runs it.

The constructions (psi = e1) read one reduction of (A, B, e1), its mu, and
the target bound's body at that mu on [e1 | (0, tail)], orthonormal by construction.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorollaryViolation,
    DimensionMismatch,
    HypothesisViolated,
    RIndependenceViolation,
)
from .linalg import (
    DEFAULT_TOL,
    TIE_TOL,
    Tolerance,
    _rounding_floor,
    complex_dependence_detail,
    phase_dependence_detail,
)
from .relations import (
    _cross_elements,
    _moments_mu,
    _mp3_report,
    _mp6_reformulated,
    _mp_chain,
    _mp_inputs,
    _MPInputs,
    _require_deviations,
    _robertson_report,
    _schrodinger_report,
    _unit_mu,
    _zero_deviations,
)
from .states import (
    PairMoments,
    PureState,
    QuantumState,
    _observable_pair,
    pair_moments,
)

# Constructed pairs must close their target bound to this relative gap.
CONSTRUCTION_TOL = 1e-8

# A checker's mu within this distance of i or -i is taken as exactly i or -i.
MU_SNAP_TOL = 1e-12

# Positive powers at which mixed-state equality conditions are re-verified.
DEFAULT_R_LIST = (0.5, 1.0, 2.0, 3.0)


class CertificateKind(str, enum.Enum):
    ROBERTSON_PURE = "robertson-pure"
    ROBERTSON_MIXED = "robertson-mixed"
    SCHRODINGER = "schrodinger"
    MP_CHAIN_ALL = "mp-chain-all"
    MP3 = "mp3"
    MP6 = "mp6"


@dataclass(frozen=True)
class SaturationCertificate:
    """Witness phases and the residual they achieve."""

    kind: CertificateKind
    theta: float | None
    phi: float | None
    mu: complex | None
    residual: float
    r_checked: tuple[float, ...] = ()
    r_residuals: tuple[float, ...] = ()


@dataclass(frozen=True)
class EqualityCheck:
    """A Maccone-Pati equality test: the two norms the condition equates, as values,
    and ``saturated``, the bound's report flag at the caller's mu."""

    saturated: bool
    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class ChainSaturation:
    """Per-step equality flags for the sum-bound chain."""

    step_saturated: tuple[bool, bool, bool]
    step_residuals: tuple[float, float, float]
    all_equalities: SaturationCertificate | None


@dataclass(frozen=True)
class ConstructedPair:
    """An orthonormal pair built to close a target bound."""

    mu: complex
    psi: PureState
    phi: PureState
    target: str
    achieved_slack: float
    degenerate: bool = False


class ZeroWitness(enum.Enum):
    NONE = "none"
    A_ZERO = "a-zero"
    B_ZERO = "b-zero"
    BOTH = "both"


@dataclass(frozen=True)
class ZeroProductCheck:
    product_is_zero: bool
    witness: ZeroWitness
    residual_a: float
    residual_b: float


def _verify_r_family(m: PairMoments, coeff_a: complex, coeff_b: complex,
                     r_list, tol: Tolerance) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Residuals of coeff_a * A_c rho^r + coeff_b * B_c rho^r over the distinct r in r_list.

    With rho^r = X w^(r - 1/2) V_k^dagger, each norm is taken of (A_c X) w^(r - 1/2).
    A residual passes on the flag's eps^2 scale, within a 10x band:
    (res / scale)^2 <= 10 tol.effective(1), with the scale-free
    scale = max(|coeff_a| dev(A), |coeff_b| dev(B)) ||w^r||, the size of the
    two terms at r = 1/2 carried to r, which no identity offset moves; or when
    it is within the rounding floor (at DEFAULT_TOL) of the same scale read with
    ||A||_F and ||B||_F, where the deviations are rounding noise (n = 1, eigenstates).
    """
    limit = max(math.sqrt(10.0 * tol.effective(1.0)) * max(abs(coeff_a) * m.dev_a, abs(coeff_b) * m.dev_b),
                _rounding_floor(max(abs(coeff_a) * m.a.norm, abs(coeff_b) * m.b.norm), DEFAULT_TOL))
    rs, residuals = [], []
    for r in dict.fromkeys(float(r) for r in r_list):
        ma, mb = (c * m.state.weights ** (r - 0.5) for c in (m.centered_a, m.centered_b))
        res = float(np.linalg.norm(coeff_a * ma + coeff_b * mb))
        if res > limit * float(np.linalg.norm(m.state.weights ** r)):
            raise RIndependenceViolation(
                f"dependence holds at r=1/2 but fails at r={r} (residual {res:.3e})"
            )
        rs.append(r)
        residuals.append(res)
    return tuple(rs), tuple(residuals)


def _certificate(kind: CertificateKind, m: PairMoments, tol: Tolerance,
                 r_list) -> SaturationCertificate | None:
    """The witness cos(theta) A_c X + e^{i phi} sin(theta) B_c X = 0 of a saturated bound.

    Returns None exactly when the bound's report is unsaturated, so presence
    is the report's flag.  The SVD only builds the witness: the phase i for
    the Robertson kinds (phi is None), any phase for the Schrodinger kind.
    When both deviations are zero to rounding every angle is a witness, and
    theta = 0 with residual 0 is taken without an SVD.  The dependence is
    re-verified at every power in ``r_list``.
    """
    schrodinger = kind is CertificateKind.SCHRODINGER
    if not (_schrodinger_report if schrodinger else _robertson_report)(m, tol).saturated:
        return None
    if all(_zero_deviations(m, tol)):
        theta, phi, residual = 0.0, 0.0 if schrodinger else None, 0.0
    elif schrodinger:
        (theta, phi), residual = complex_dependence_detail(m.centered_a, m.centered_b)
    else:
        (theta, residual), phi = phase_dependence_detail(m.centered_a, m.centered_b), None
    phase = 1j if phi is None else cmath.exp(1j * phi)
    rs, r_residuals = _verify_r_family(m, math.cos(theta), phase * math.sin(theta), r_list, tol)
    return SaturationCertificate(kind=kind, theta=theta, phi=phi, mu=None, residual=residual,
                                 r_checked=rs, r_residuals=r_residuals)


def robertson_saturation_pure(observable_a, observable_b, psi: PureState,
                              tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Phase theta with cos(theta) A_c |psi> + i sin(theta) B_c |psi> = 0, if any."""
    return _certificate(CertificateKind.ROBERTSON_PURE,
                        pair_moments(observable_a, observable_b, psi), tol, ())


def robertson_saturation_mixed(observable_a, observable_b, state: QuantumState,
                               tol: Tolerance = DEFAULT_TOL,
                               r_list=DEFAULT_R_LIST) -> SaturationCertificate | None:
    """Mixed-state equality witness, re-verified at every power in ``r_list``."""
    if not r_list or any(r <= 0 for r in r_list):
        raise ValueError("r_list must be nonempty with positive entries")
    return _certificate(CertificateKind.ROBERTSON_MIXED,
                        pair_moments(observable_a, observable_b, state), tol, r_list)


def schrodinger_saturation(observable_a, observable_b, state: QuantumState,
                           tol: Tolerance = DEFAULT_TOL,
                           r_list=DEFAULT_R_LIST) -> SaturationCertificate | None:
    """Witness (theta, phi) with cos(theta) A_c rho^r + e^{i phi} sin(theta) B_c rho^r = 0."""
    if not r_list or any(r <= 0 for r in r_list):
        raise ValueError("r_list must be nonempty with positive entries")
    return _certificate(CertificateKind.SCHRODINGER,
                        pair_moments(observable_a, observable_b, state), tol, r_list)


def mp_chain_saturation(observable_a, observable_b, psi: PureState, phi: PureState,
                        mu: complex, tol: Tolerance = DEFAULT_TOL) -> ChainSaturation:
    """Check each chain step's equality condition and the all-equalities criterion.

    Step 1: the deviations equal |c| and |d|, so A_c psi and B_c psi are parallel to phi.
    Step 2: the two moduli agree.
    Step 3: c and mu*d are phase aligned.
    Each flag is the step's report flag in :func:`~qubounds.relations.mp_chain`.
    All three hold exactly when psi is an eigenvector of A - conj(mu) B and
    A_c psi is parallel to phi (automatic for n = 2); then, and only then, the
    certificate exists, with theta = -arg(c + mu d), or 0 when both deviations
    are zero to rounding.  Residuals are values only.
    """
    mu = _unit_mu(mu, tol)
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    m, c, d = p.moments, p.c, p.d
    abs_c, abs_d = abs(c), abs(d)
    flags = tuple(step.saturated for step in _mp_chain(p, mu, tol).steps)
    certificate = None
    if all(flags):
        theta = 0.0 if all(_zero_deviations(m, tol)) else (-cmath.phase(c + mu * d)) % (2.0 * math.pi)
        certificate = SaturationCertificate(
            kind=CertificateKind.MP_CHAIN_ALL, theta=theta, phi=None, mu=mu,
            residual=float(np.linalg.norm(m.centered_a - np.conj(mu) * m.centered_b)))
    residuals = (max(abs(m.dev_a - abs_c), abs(m.dev_b - abs_d)), abs(abs_c - abs_d),
                 abs_c + abs_d - abs(c + mu * d))
    return ChainSaturation(step_saturated=flags, step_residuals=tuple(map(float, residuals)),
                           all_equalities=certificate)


def _require_mu_hypothesis(m: PairMoments, mu: complex, tol: Tolerance) -> complex:
    """Accept the mu that :func:`~qubounds.relations.choose_mu` picks, or either on a tie.

    An accepted mu is returned as exactly i or -i, so mu <[A, B]> is exactly real.
    """
    given = complex(mu)
    mu = next((unit for unit in (1j, -1j) if abs(given - unit) <= MU_SNAP_TOL), None)
    if mu is None:
        raise ValueError(f"mu must be i or -i, got {given!r}")
    choice = _moments_mu(m, tol)
    if not choice.tie_broken and mu != choice.mu:
        raise HypothesisViolated(f"mu * <[A, B]> = {(mu * m.commutator_expectation).real:.3e} is negative")
    return mu


def mp3_saturation(observable_a, observable_b, psi: PureState, phi: PureState,
                   mu: complex, tol: Tolerance = DEFAULT_TOL) -> EqualityCheck:
    """Equality test for the sum bound: ||(A_c - mu B_c)|psi>|| vs |<psi|A + mu B|phi>|.

    The squares of the two sides differ by the mp3 slack at ``mu``, so the flag
    is the :func:`~qubounds.relations.mp3` report's flag at ``mu``.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    m = p.moments
    mu = _require_mu_hypothesis(m, mu, tol)
    lhs = float(np.linalg.norm(m.centered_a - mu * m.centered_b))
    rhs = abs(p.c + mu * p.d)
    return EqualityCheck(saturated=_mp3_report(p, mu, tol).saturated, lhs=lhs, rhs=rhs,
                         residual=abs(lhs - rhs))


def mp6_saturation(observable_a, observable_b, psi: PureState, phi: PureState,
                   mu: complex, tol: Tolerance = DEFAULT_TOL) -> EqualityCheck:
    """Equality test for the product bound.

    Compares ||(A_c/dev(A) - mu B_c/dev(B))|psi>|| with |<psi|Q_mu|phi>|,
    the condition under which the division-free form closes; the flag is the
    :func:`~qubounds.relations.mp6` reformulated report's flag at ``mu``.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    m = p.moments
    mu = _require_mu_hypothesis(m, mu, tol)
    report, _ = _mp6_reformulated(p, mu, tol)
    lhs = float(np.linalg.norm(m.centered_a / m.dev_a - mu * m.centered_b / m.dev_b))
    rhs = abs(p.c / m.dev_a + mu * p.d / m.dev_b)
    return EqualityCheck(saturated=report.saturated, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


def _e1_reduction(observable_a, observable_b, tol: Tolerance) -> tuple[PairMoments, complex]:
    """The reduction of (A, B, e1) and its mu (:func:`~qubounds.relations.choose_mu`): the constructors'
    one input check, which every constructor body reads and a sweep trial makes once for both.

    A_c e1 = (0, u) for the first-column tail u of A, so dev(A) = ||u||; likewise for B.
    """
    a, b = _observable_pair(observable_a, observable_b)
    m = pair_moments(a, b, PureState(np.eye(1, a.dimension, dtype=complex)[0]))
    return m, _moments_mu(m, tol).mu


def _constructed_pair(m: PairMoments, mu: complex, tail: np.ndarray | None,
                      target: str, tol: Tolerance) -> ConstructedPair:
    """psi = e1 and phi = the unit ``tail`` embedded below it, or e2 for a degenerate (None) tail.

    The basis [e1 | phi] is orthonormal by construction (the overlap is exactly
    0), so it skips the pair checks a caller's pair goes through.  The achieved
    gap is the ``target`` report's slack at ``mu`` over the scale its flag uses,
    dev(A)^2 + dev(B)^2 for mp3 and 1 for the mp6 reformulation; it is 0 where
    the mp3 report's zero-deviation rule decides.
    """
    basis = np.eye(m.a.dimension, 2, dtype=complex)
    if tail is not None:
        basis[1:, 1] = tail
    phi = PureState(basis[:, 1])
    p = _MPInputs(m, phi, *_cross_elements(m.a, m.b, m.state, phi), basis)
    if target == "mp3":
        report = _mp3_report(p, mu, tol)
        gap = 0.0 if all(_zero_deviations(m, tol)) else report.slack / report.lhs
    else:
        gap = _mp6_reformulated(p, mu, tol)[0].slack
    return ConstructedPair(mu=mu, psi=m.state, phi=phi, target=target, achieved_slack=gap,
                           degenerate=tail is None)


def construct_case1(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the sum bound in dimension 2: psi = e1, phi = e2."""
    return _construct_case1(*_e1_reduction(observable_a, observable_b, tol), tol)


def _construct_case1(m: PairMoments, mu: complex, tol: Tolerance) -> ConstructedPair:
    if m.a.dimension != 2:
        raise DimensionMismatch(f"construction requires dimension 2, got {m.a.dimension}")
    return _constructed_pair(m, mu, np.ones(1), "mp3", tol)


def construct_case2(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the sum bound in dimension n > 2.

    With psi = e1, equality needs the remaining frame directions orthogonal
    to the first-column tail u - mu v of A - mu B, so phi is that tail
    normalized (phase-fixed to make <psi|(A - mu B)|phi> real nonnegative).
    A vanishing tail makes the equality hold for any phi; e2 is used then.
    """
    return _construct_case2(*_e1_reduction(observable_a, observable_b, tol), tol)


def _construct_case2(m: PairMoments, mu: complex, tol: Tolerance) -> ConstructedPair:
    if m.a.dimension <= 2:
        raise DimensionMismatch(f"construction requires dimension > 2, got {m.a.dimension}")
    u, v = m.centered_a[1:, 0], m.centered_b[1:, 0]
    tail = u - mu * v
    norm = float(np.linalg.norm(tail))
    direction = None
    # The tail is degenerate when it is rounding noise beside ||u|| + ||v||.
    if norm > tol.effective(1.0) * (m.dev_a + m.dev_b):
        direction = tail / norm
        # Fix the free phase so <e1|(A - mu B)|phi> comes out real nonnegative,
        # unless that entry is rounding noise beside the row it is read from.
        row = u.conj() - mu * v.conj()
        entry = complex(row @ direction)
        if abs(entry) > TIE_TOL * float(np.linalg.norm(row)):
            direction = direction * cmath.exp(-1j * cmath.phase(entry))
    return _constructed_pair(m, mu, direction, "mp3", tol)


def construct_w_mp6(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the product bound.

    psi = e1, and phi embeds the normalized difference u/||u|| - mu v/||v||
    of the normalized first-column tails (those norms are the deviations of
    A and B in e1).  When the difference vanishes both equality sides are
    zero for any phi; e2 is used then.
    """
    return _construct_w_mp6(*_e1_reduction(observable_a, observable_b, tol), tol)


def _construct_w_mp6(m: PairMoments, mu: complex, tol: Tolerance) -> ConstructedPair:
    if m.a.dimension < 2:
        raise DimensionMismatch("construction requires dimension >= 2")
    _require_deviations(m, tol)
    difference = m.centered_a[1:, 0] / m.dev_a - mu * m.centered_b[1:, 0] / m.dev_b
    norm = float(np.linalg.norm(difference))
    direction = difference / norm if norm > tol.effective(1.0) else None
    return _constructed_pair(m, mu, direction, "mp6", tol)


_ZERO_WITNESSES = {(False, False): ZeroWitness.NONE, (True, False): ZeroWitness.A_ZERO,
                   (False, True): ZeroWitness.B_ZERO, (True, True): ZeroWitness.BOTH}


def zero_product_characterization(observable_a, observable_b, state: QuantumState,
                                  tol: Tolerance = DEFAULT_TOL) -> ZeroProductCheck:
    """dev(A) dev(B) = 0 exactly when A_c rho = 0 or B_c rho = 0.

    Each side is decided once, by its deviation (zero to rounding as in
    :func:`~qubounds.relations._zero_deviations`); ||A_c rho||_F and
    ||B_c rho||_F are reported as values only.
    """
    m = pair_moments(observable_a, observable_b, state)
    zero = _zero_deviations(m, tol)
    # ||A_c rho||_F = ||(A_c X) w^(1/2)||_F.
    res_a, res_b = (float(np.linalg.norm(c * np.sqrt(m.state.weights)))
                    for c in (m.centered_a, m.centered_b))
    return ZeroProductCheck(product_is_zero=any(zero), witness=_ZERO_WITNESSES[zero],
                            residual_a=res_a, residual_b=res_b)


def zero_sum_characterization(observable_a, observable_b, state: QuantumState,
                              tol: Tolerance = DEFAULT_TOL) -> bool:
    """dev(A)^2 + dev(B)^2 = 0 exactly when both A_c rho and B_c rho vanish.

    Decided by the deviations, as in :func:`zero_product_characterization`.
    """
    return all(_zero_deviations(pair_moments(observable_a, observable_b, state), tol))


def qubit_commutation_witness(observable_a, observable_b, state: QuantumState,
                              tol: Tolerance = DEFAULT_TOL) -> float | None:
    """For qubits, vanishing centered products force [A, B] = 0.

    Returns the commutator norm when both centered products vanish on the
    state (the witness), None when the precondition is unmet (decided as in
    :func:`zero_product_characterization`), and raises
    :class:`CorollaryViolation` if ||[A, B]||_F exceeds, beyond the rounding
    floor of ||A||_F ||B||_F at DEFAULT_TOL, what the deviations allow.  With A = a0 I + a.sigma,
    spread(A) = sqrt(2) |a| and ||[A, B]||_F = 2 sqrt(2) |a x b|; for Bloch
    vector r = s n (|n| = 1), dev(A)^2 = |a|^2 - (a.r)^2 >= |a_perp|^2, the part
    normal to n.  As a_par x b_par = 0, |a x b| <= |a| |b_perp| + |a_perp| |b| + |a_perp| |b_perp|:
    ||[A, B]||_F <= 2 (spread(A) dev(B) + spread(B) dev(A)) + 2 sqrt(2) dev(A) dev(B).
    """
    if state.dimension != 2:
        raise DimensionMismatch(f"qubit check requires dimension 2, got {state.dimension}")
    m = pair_moments(observable_a, observable_b, state)
    if not all(_zero_deviations(m, tol)):
        return None
    a, b = m.a.matrix, m.b.matrix
    comm_norm = float(np.linalg.norm(a @ b - b @ a))
    allowed = (2.0 * (m.a.spread * m.dev_b + m.b.spread * m.dev_a)
               + 2.0 * math.sqrt(2.0) * m.dev_a * m.dev_b + _rounding_floor(m.a.norm * m.b.norm, DEFAULT_TOL))
    if comm_norm > allowed:
        raise CorollaryViolation(f"centered products vanish but ||[A, B]|| = {comm_norm:.3e} > {allowed:.3e}")
    return comm_norm
