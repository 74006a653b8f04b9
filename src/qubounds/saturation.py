"""Equality certificates and explicit saturating constructions.

Each characterization is one decision.  A Robertson or Schrodinger
certificate exists exactly when the bound's decision is saturated (its
relative slack, or a deviation zero to rounding); its witness is the least
direction of the same moments' 2 x 2 Gram form, and the mixed checkers
re-verify it at the fixed powers (1/2, 1, 2, 3) of rho.  The zero-deviation characterizations
decide each side by its deviation.  The Maccone-Pati checkers read their
bound's decision flag, and c = <psi|A|phi> and d = <psi|B|phi> as matrix
elements; they build no frame.
Like the evaluators, each checker and constructor is an entry that validates and reduces
its inputs, with a private body that reads only the reduction where the sweep runs it.
Checkers and constructors read bound decisions, never reports, so they hash no input.

The constructions (psi = e1) read one reduction of (A, B, e1), its mu, and
the target bound's decision at that mu on [e1 | (0, tail)], orthonormal by construction.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorollaryViolation, DimensionMismatch, HypothesisViolated, RIndependenceViolation
from .linalg import DEFAULT_TOL, ROUNDING_TOL, TIE_TOL, Tolerance, _complex_witness, _norm, _phase_witness
from .relations import (_cross_elements, _Decision, _moments_mu, _mp3_decision, _mp6_decision,
                        _mp_chain_decisions, _mp_inputs, _MPInputs, _require_deviations, _robertson_decision,
                        _schrodinger_decision, _unit_mu, _zero_budget, _zero_deviations)
from .states import PairMoments, PureState, QuantumState, _observable_pair, pair_moments

# Constructed pairs must close their target bound to this relative gap.
CONSTRUCTION_TOL = 1e-8

# A checker's mu within this distance of i or -i is taken as exactly i or -i.
MU_SNAP_TOL = 1e-12

# The powers r >= 1/2 at which the mixed checkers re-verify their witness; a dependence at 1/2 carries to each.
DEFAULT_R_LIST = (0.5, 1.0, 2.0, 3.0)


class CertificateKind(str, enum.Enum):
    ROBERTSON_PURE = "robertson-pure"
    ROBERTSON_MIXED = "robertson-mixed"
    SCHRODINGER = "schrodinger"
    MP_CHAIN_ALL = "mp-chain-all"


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
                     rs: tuple[float, ...], tol: Tolerance) -> tuple[float, ...]:
    """Residuals of coeff_a A_c rho^r + coeff_b B_c rho^r at each r >= 1/2 in ``rs``: norms of Y w^(r - 1/2).

    Y = coeff_a A_c X + coeff_b B_c X is formed once; for its squared column norms c_j, residual^2 =
    sum_j c_j w_j^(2r - 1) and ||w^r||^2 = sum_j w_j w_j^(2r - 1), one product for every r.  At r = 1/2
    the residual is ||Y||_F, the certificate's ``residual``.  Each must stay within limit ||w^r||: the
    largest of the floor ROUNDING_TOL max(|coeff_a| ||A||_F, |coeff_b| ||B||_F) and one share per side,
    none moved by an identity offset: |coeff| dev sqrt(10 eps), the flag's eps^2 scale in a 10x band, or,
    for a side that :func:`_zero_deviations` calls zero, |coeff| z / sqrt(w_max), with its zero budget
    z = max(eps spread, min(eps, ROUNDING_TOL) ||.||_F) and the largest weight w_max.  A zero side's share
    raises on no valid input: for r >= 1/2 and the columns y_j of A_c X, ||(A_c X) w^(r - 1/2)||_F^2 =
    sum_j ||y_j||^2 w_j^(2r - 1) <= w_max^(2r - 1) dev(A)^2 and w_max^r <= ||w^r||, so
    ||(A_c X) w^(r - 1/2)||_F <= dev(A) ||w^r|| / sqrt(w_max) <= z ||w^r|| / sqrt(w_max).
    """
    w, band, zero = m.state.weights, math.sqrt(10.0 * tol.eps), _zero_deviations(m, tol)
    shares = (abs(c) * (_zero_budget(o, tol) / math.sqrt(w.max()) if z else band * dev)
              for c, o, dev, z in zip((coeff_a, coeff_b), (m.a, m.b), (m.dev_a, m.dev_b), zero))
    limit = max(*shares, ROUNDING_TOL * max(abs(coeff_a) * m.a.norm, abs(coeff_b) * m.b.norm))
    y = coeff_a * m.centered_a + coeff_b * m.centered_b
    columns = np.array([(y.real**2 + y.imag**2).sum(axis=0), w]).T  # (c_j, w_j), one row per j
    roots = np.sqrt(w ** (2.0 * np.array(rs)[:, None] - 1.0) @ columns).tolist()
    residuals = tuple(_norm(y) if r == 0.5 else res for r, (res, _) in zip(rs, roots))
    for r, res, (_, norm_w) in zip(rs, residuals, roots):
        if res > limit * norm_w:
            raise RIndependenceViolation(f"witness residual {res:.3e} at r={r} exceeds {limit * norm_w:.3e}")
    return residuals


def _certificate(kind: CertificateKind, m: PairMoments, tol: Tolerance,
                 rs: tuple[float, ...]) -> SaturationCertificate | None:
    """The witness a A_c X + b B_c X = 0 of a saturated bound: a = cos(theta), b = e^{i phi} sin(theta).

    None exactly when the bound's decision is unsaturated, so presence is its report's flag.  The
    witness is the least direction of the moments' Gram form (dev(A)^2, cross, dev(B)^2), at the
    phase i for the Robertson kinds (phi is None).  A deviation zero to rounding enters it as exactly
    0, so one zero side gives (a, b) = (1, 0) or (0, 1) with phi = 0, and two give theta = 0 with
    residual 0.  The residual is ||a A_c X + b B_c X||_F; (a, b) is re-verified at each power in ``rs``
    (:func:`_verify_r_family`).
    """
    schrodinger = kind is CertificateKind.SCHRODINGER
    if not (_schrodinger_decision if schrodinger else _robertson_decision)(m, tol).saturated:
        return None
    zero = _zero_deviations(m, tol)
    dev_a, dev_b = (0.0 if z else dev for z, dev in zip(zero, (m.dev_a, m.dev_b)))
    scale = max(dev_a, dev_b) or 1.0  # so that no square overflows
    form = ((dev_a / scale) ** 2, 0j if any(zero) else m.cross / scale / scale, (dev_b / scale) ** 2)
    a, b, angles = (_complex_witness if schrodinger else _phase_witness)(*form)
    theta, phi = angles if schrodinger else (angles, None)
    residual = 0.0 if all(zero) else _norm(a * m.centered_a + b * m.centered_b)
    return SaturationCertificate(kind=kind, theta=theta, phi=phi, mu=None, residual=residual,
                                 r_checked=rs, r_residuals=_verify_r_family(m, a, b, rs, tol) if rs else ())


def robertson_saturation_pure(observable_a, observable_b, psi: PureState,
                              tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Phase theta with cos(theta) A_c |psi> + i sin(theta) B_c |psi> = 0, if any."""
    return _certificate(CertificateKind.ROBERTSON_PURE,
                        pair_moments(observable_a, observable_b, psi), tol, ())


def robertson_saturation_mixed(observable_a, observable_b, state: QuantumState,
                               tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Mixed-state equality witness, re-verified at every power in ``DEFAULT_R_LIST``."""
    return _certificate(CertificateKind.ROBERTSON_MIXED,
                        pair_moments(observable_a, observable_b, state), tol, DEFAULT_R_LIST)


def schrodinger_saturation(observable_a, observable_b, state: QuantumState,
                           tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Witness (theta, phi) with cos(theta) A_c rho^r + e^{i phi} sin(theta) B_c rho^r = 0 for r >= 1/2."""
    return _certificate(CertificateKind.SCHRODINGER,
                        pair_moments(observable_a, observable_b, state), tol, DEFAULT_R_LIST)


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
    flags = tuple(step.saturated for step in _mp_chain_decisions(p, mu, tol))
    certificate = None
    if all(flags):
        theta = 0.0 if all(_zero_deviations(m, tol)) else (-cmath.phase(c + mu * d)) % (2.0 * math.pi)
        certificate = SaturationCertificate(
            kind=CertificateKind.MP_CHAIN_ALL, theta=theta, phi=None, mu=mu,
            residual=_norm(m.centered_a - np.conj(mu) * m.centered_b))
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


def _equality_check(p: _MPInputs, mu: complex, decision: _Decision, s_a: float, s_b: float) -> EqualityCheck:
    """||(A_c/s_a - mu B_c/s_b)|psi>|| against |c/s_a + mu d/s_b|, flagged by the target's ``decision`` at mu."""
    m = p.moments
    lhs = _norm(m.centered_a / s_a - mu * m.centered_b / s_b)
    rhs = abs(p.c / s_a + mu * p.d / s_b)
    return EqualityCheck(saturated=decision.saturated, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


def mp3_saturation(observable_a, observable_b, psi: PureState, phi: PureState,
                   mu: complex, tol: Tolerance = DEFAULT_TOL) -> EqualityCheck:
    """Equality test for the sum bound: ||(A_c - mu B_c)|psi>|| vs |<psi|A + mu B|phi>|.

    The squares of the two sides differ by the mp3 slack at ``mu``, so the flag
    is the :func:`~qubounds.relations.mp3` report's flag at ``mu``.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    mu = _require_mu_hypothesis(p.moments, mu, tol)
    return _equality_check(p, mu, _mp3_decision(p, mu, tol), 1.0, 1.0)


def mp6_saturation(observable_a, observable_b, psi: PureState, phi: PureState,
                   mu: complex, tol: Tolerance = DEFAULT_TOL) -> EqualityCheck:
    """Equality test for the product bound.

    Compares ||(A_c/dev(A) - mu B_c/dev(B))|psi>|| with |<psi|Q_mu|phi>|,
    the condition under which the division-free form closes; the flag is the
    :func:`~qubounds.relations.mp6` reformulated report's flag at ``mu``; the decision
    is taken first, so zero deviations raise :class:`ZeroDeviation` before any division.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    mu = _require_mu_hypothesis(p.moments, mu, tol)
    return _equality_check(p, mu, _mp6_decision(p, mu, tol)[0], p.moments.dev_a, p.moments.dev_b)


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
    gap is the ``target`` decision's slack at ``mu`` over the scale its flag uses,
    dev(A)^2 + dev(B)^2 for mp3 and 1 for the mp6 reformulation; it is 0 where
    the mp3 decision's zero-deviation rule decides.
    """
    basis = np.eye(m.a.dimension, 2, dtype=complex)
    if tail is not None:
        basis[1:, 1] = tail
    phi = PureState(basis[:, 1])
    p = _MPInputs(m, phi, *_cross_elements(m.a, m.b, m.state, phi))
    if target == "mp3":
        decision = _mp3_decision(p, mu, tol)
        gap = 0.0 if all(_zero_deviations(m, tol)) else decision.slack / decision.lhs
    else:
        gap = _mp6_decision(p, mu, tol)[0].slack
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
    norm = _norm(tail)
    direction = None
    # The tail is degenerate when it is rounding noise beside ||u|| + ||v||.
    if norm > tol.eps * (m.dev_a + m.dev_b):
        direction = tail / norm
        # Fix the free phase so <e1|(A - mu B)|phi> comes out real nonnegative,
        # unless that entry is rounding noise beside the row it is read from.
        row = u.conj() - mu * v.conj()
        entry = complex(row @ direction)
        if abs(entry) > TIE_TOL * _norm(row):
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
    norm = _norm(difference)
    direction = difference / norm if norm > tol.eps else None
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
    res_a, res_b = (_norm(c * np.sqrt(m.state.weights))
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
    floor ROUNDING_TOL ||A||_F ||B||_F, what the deviations allow.  With A = a0 I + a.sigma,
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
    comm_norm = _norm(a @ b - b @ a)
    allowed = (2.0 * (m.a.spread * m.dev_b + m.b.spread * m.dev_a)
               + 2.0 * math.sqrt(2.0) * m.dev_a * m.dev_b + ROUNDING_TOL * (m.a.norm * m.b.norm))
    if comm_norm > allowed:
        raise CorollaryViolation(f"centered products vanish but ||[A, B]|| = {comm_norm:.3e} > {allowed:.3e}")
    return comm_norm
