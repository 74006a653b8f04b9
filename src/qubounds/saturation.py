"""Equality certificates and explicit saturating constructions.

Each characterization is one decision.  A Robertson or Schrodinger
certificate exists exactly when the bound's decision, taken once and handed
to the witness body, is saturated (its relative slack, or a deviation zero
to rounding); its witness is the least
direction of the same moments' 2 x 2 Gram form, and the mixed checkers
re-verify it at the fixed powers (1/2, 1, 2, 3) of rho.  The zero-deviation characterizations
decide each side by its deviation.  The Maccone-Pati checkers read their
bound's decision flag, and c = <A_c psi, phi> and d = <B_c psi, phi> (:func:`~qubounds.relations._mp_pair`),
for which each Maccone-Pati inequality is Cauchy-Schwarz for a unit phi; they build no frame.
Like the evaluators, each checker and constructor is an entry that validates and reduces
its inputs, with a private body that reads only the reduction where the sweep runs it.
Checkers and constructors read bound decisions, never reports, so they hash no input.

The constructions (psi = e1) read one reduction of (A, B, e1), the mu they pick from it, and
the target bound's decision at that mu on [e1 | (0, tail)], orthonormal by construction.
Their body, :func:`_constructions`, takes a stack of trials; a public constructor is its one-trial call.
A body's error on one trial of a stack is kept as that trial's outcome (:func:`_outcome`).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CorollaryViolation, DimensionMismatch, HypothesisViolated, QuboundsError, RIndependenceViolation
from .linalg import DEFAULT_TOL, ROUNDING_TOL, TIE_TOL, Tolerance, _complex_witness, _norm, _phase_witness
from .relations import (_Decision, _moments_mu, _mp3_decision, _mp6_decision, _mp_chain_decisions, _mp_inputs,
                        _mp_pair, _MPInputs, _robertson_decision, _schrodinger_decision, _unit_mu, _zero_budget,
                        _zero_deviations)
from .states import PairMoments, PureState, QuantumState, _entry, _reduction, pair_moments

# Constructed pairs must close their target bound to this relative gap.
CONSTRUCTION_TOL = 1e-8

# A checker's mu within this distance of i or -i is taken as exactly i or -i.
MU_SNAP_TOL = 1e-12

# The powers r >= 1/2 at which the mixed checkers re-verify their witness; a dependence at 1/2 carries to each.
DEFAULT_R_LIST = (0.5, 1.0, 2.0, 3.0)
# The exponents 2r - 1 of the re-check's weights, one row per power.
_EXPONENTS = 2.0 * np.array(DEFAULT_R_LIST)[:, None] - 1.0
_EXPONENTS.setflags(write=False)


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


def _verify_r_family(m: PairMoments, coeff_a: complex, coeff_b: complex, zero: tuple[bool, bool],
                     tol: Tolerance) -> tuple[float, ...]:
    """Residuals of coeff_a A_c rho^r + coeff_b B_c rho^r at each r in ``DEFAULT_R_LIST``: norms of Y w^(r - 1/2).

    Y = coeff_a A_c X + coeff_b B_c X is formed once, over the square root X that the moments read; for the
    squared norms c_j of its columns over the state's factor (:meth:`~qubounds.states.PairMoments._over_factor`),
    residual^2 = sum_j c_j w_j^(2r - 1) and ||w^r||^2 = sum_j w_j w_j^(2r - 1), one product for every r.  At
    r = 1/2 the residual is ||Y||_F over any square root, a mixed certificate's ``residual``.  Each must stay
    within limit ||w^r||: the largest of the floor ROUNDING_TOL max(|coeff_a| ||A||_F, |coeff_b| ||B||_F) and one
    share per side, none moved by an identity offset: |coeff| dev sqrt(10 eps), the flag's eps^2 scale in a 10x
    band, or, for a side that the certificate's flags ``zero`` (:func:`_zero_deviations`) call zero,
    |coeff| z / sqrt(w_max), with its zero budget
    z = max(eps spread, min(eps, ROUNDING_TOL) ||.||_F) and the largest weight w_max.  A zero side's share
    raises on no valid input: for r >= 1/2 and the columns y_j of A_c X over the factor,
    ||(A_c X) w^(r - 1/2)||_F^2 = sum_j ||y_j||^2 w_j^(2r - 1) <= w_max^(2r - 1) dev(A)^2 and w_max^r <= ||w^r||, so
    ||(A_c X) w^(r - 1/2)||_F <= dev(A) ||w^r|| / sqrt(w_max) <= z ||w^r|| / sqrt(w_max).
    """
    w, band = m.state.weights, math.sqrt(10.0 * tol.eps)
    shares = [abs(c) * (_zero_budget(o, tol) / math.sqrt(w[0]) if z else band * dev)
              for c, o, dev, z in ((coeff_a, m.a, m.dev_a, zero[0]), (coeff_b, m.b, m.dev_b, zero[1]))]
    limit = max(*shares, ROUNDING_TOL * max(abs(coeff_a) * m.a.norm, abs(coeff_b) * m.b.norm))
    y = coeff_a * m.centered_a + coeff_b * m.centered_b
    turned = m._over_factor(y)
    columns = np.empty((2, len(w)))  # its transpose holds (c_j, w_j), one row per j
    columns[0], columns[1] = np.add.reduce(turned.real**2 + turned.imag**2, axis=0), w
    roots, norms_w = np.sqrt(w ** _EXPONENTS @ columns.T).T.tolist()
    residuals = (_norm(y), *roots[1:])  # the first power is 1/2
    for r, res, norm_w in zip(DEFAULT_R_LIST, residuals, norms_w):
        if res > limit * norm_w:
            raise RIndependenceViolation(f"witness residual {res:.3e} at r={r} exceeds {limit * norm_w:.3e}")
    return residuals


def _certificate(kind: CertificateKind, m: PairMoments, decision: _Decision,
                 tol: Tolerance) -> SaturationCertificate | None:
    """The witness a A_c X + b B_c X = 0 of a saturated bound: a = cos(theta), b = e^{i phi} sin(theta).

    None exactly when ``decision``, the bound's decision on ``m`` (Schrodinger's for that kind, else
    Robertson's), already taken, is unsaturated, so presence is its report's flag.  The
    witness is the least direction of the moments' Gram form (dev(A)^2, cross, dev(B)^2), at the
    phase i for the Robertson kinds (phi is None).  A deviation zero to rounding enters it as exactly
    0, so one zero side gives (a, b) = (1, 0) or (0, 1) with phi = 0, and two give theta = 0 with
    residual 0.  The mixed kinds re-verify (a, b) at each power in ``DEFAULT_R_LIST`` (:func:`_verify_r_family`),
    on the same zero sides, and their residual ||a A_c X + b B_c X||_F is that re-check's r = 1/2 one; the pure
    kind re-verifies nothing, and reads one zero side's residual from the moments.
    """
    if not decision.saturated:
        return None
    schrodinger = kind is CertificateKind.SCHRODINGER
    zero = _zero_deviations(m, tol)
    dev_a, dev_b = 0.0 if zero[0] else m.dev_a, 0.0 if zero[1] else m.dev_b
    scale = max(dev_a, dev_b) or 1.0  # so that no square overflows
    form = ((dev_a / scale) ** 2, 0j if any(zero) else m.cross / scale / scale, (dev_b / scale) ** 2)
    a, b, angles = (_complex_witness if schrodinger else _phase_witness)(*form)
    theta, phi = angles if schrodinger else (angles, None)
    rs = () if kind is CertificateKind.ROBERTSON_PURE else DEFAULT_R_LIST
    r_residuals = _verify_r_family(m, a, b, zero, tol) if rs else ()
    # A pure kind's one zero side has the witness (1, 0) or (0, 1), of residual that side's deviation.
    residual = (0.0 if all(zero) else r_residuals[0] if rs else m.dev_a if zero[0] else m.dev_b if zero[1]
                else _norm(a * m.centered_a + b * m.centered_b))
    return SaturationCertificate(kind=kind, theta=theta, phi=phi, mu=None, residual=residual,
                                 r_checked=rs, r_residuals=r_residuals)


def robertson_saturation_pure(observable_a, observable_b, psi: PureState,
                              tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Phase theta with cos(theta) A_c |psi> + i sin(theta) B_c |psi> = 0, if any; ``psi`` must be a
    :class:`PureState`, as a mixed state's certificate needs the power re-check (:func:`robertson_saturation_mixed`)."""
    m = _reduction(*_entry(observable_a, observable_b, (psi,), PureState), psi)
    return _certificate(CertificateKind.ROBERTSON_PURE, m, _robertson_decision(m, tol), tol)


def robertson_saturation_mixed(observable_a, observable_b, state: QuantumState,
                               tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Mixed-state equality witness, re-verified at every power in ``DEFAULT_R_LIST``."""
    m = pair_moments(observable_a, observable_b, state)
    return _certificate(CertificateKind.ROBERTSON_MIXED, m, _robertson_decision(m, tol), tol)


def schrodinger_saturation(observable_a, observable_b, state: QuantumState,
                           tol: Tolerance = DEFAULT_TOL) -> SaturationCertificate | None:
    """Witness (theta, phi) with cos(theta) A_c rho^r + e^{i phi} sin(theta) B_c rho^r = 0 for r >= 1/2."""
    m = pair_moments(observable_a, observable_b, state)
    return _certificate(CertificateKind.SCHRODINGER, m, _schrodinger_decision(m, tol), tol)


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
    mu = 1j if abs(given - 1j) <= MU_SNAP_TOL else -1j if abs(given + 1j) <= MU_SNAP_TOL else None
    if mu is None:
        raise ValueError(f"mu must be i or -i, got {given!r}")
    if not (choice := _moments_mu(m, tol)).tie_broken and mu != choice.mu:
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


def _case2_tails(u: np.ndarray, mu_v: np.ndarray, m: PairMoments, tol: Tolerance) -> tuple:
    """u - mu v, degenerate as rounding noise beside dev(A) + dev(B) = ||u|| + ||v||, and the row
    conj(u) - mu conj(v) = conj(u + mu v) (as mu = +-i) of A - mu B, whose entry with phi is phased real."""
    return u - mu_v, tol.eps * (m.dev_a + m.dev_b), np.conjugate(u + mu_v)


def _w_mp6_tails(u: np.ndarray, mu_v: np.ndarray, m: PairMoments, tol: Tolerance) -> tuple:
    """u/dev(A) - mu v/dev(B), degenerate below tol.eps, and no phase row.  Where dev(A) or dev(B) is exactly zero,
    each entry has a NaN part, so no floor keeps the row; the mp6 decision rejects every trial with a zero deviation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return u / m.dev_a - mu_v / m.dev_b, tol.eps, None


# Each construction's target bound, the dimensions it takes, the rule that rejects the others, and its tails
# (:func:`_constructions`), or None where phi is e2 (n = 2).
_CONSTRUCTIONS = {"case1": ("mp3", lambda n: n == 2, "dimension 2, got {}", None),
                  "case2": ("mp3", lambda n: n > 2, "dimension > 2, got {}", _case2_tails),
                  "w_mp6": ("mp6", lambda n: n >= 2, "dimension >= 2", _w_mp6_tails)}


@functools.cache
def _e1(n: int) -> PureState:
    """e1 in dimension n, the constructions' psi: immutable, so built once per dimension."""
    return PureState(np.eye(1, n, dtype=complex)[0])


def _outcome(body, *args):
    """``body(*args)``, or the :class:`QuboundsError` it raises, kept as a value."""
    try:
        return body(*args)
    except QuboundsError as exc:
        return exc


def _constructions(targets: tuple[str, ...], moments: list, tol: Tolerance) -> list:
    """Each trial's construction per target ("case1", "case2", "w_mp6"), or the QuboundsError it raises, from its
    e1 moments, each at the mu :func:`_moments_mu` picks.  A target states its tails once (``_CONSTRUCTIONS``), from
    the first-column tails u, v of the trial's A_c e1 and B_c e1: the tail, its degeneracy floor, and a phase row or
    None.  phi is e2 unless the tail's norm is above its floor; then it is the tail over that norm, phased so that
    its entry with the row is real nonnegative where that entry is not noise beside the row.  A dropped tail leaves
    e2 and marks the construction degenerate.  One state pass builds every phi; c = <A_c e1, phi> = <u, tail> and
    d = <v, tail> are read from the moments (:func:`~qubounds.relations._mp_pair`)."""
    n = moments[0].a.dimension
    rows = np.zeros((len(moments), len(targets), n), dtype=complex)
    rows[:, :, 1:2] = 1.0  # e2, where no kept tail replaces it (none at n = 1, which no construction takes)
    mus, keeps = [], []
    for m, trial in zip(moments, rows):
        mus.append(mu := _moments_mu(m, tol).mu)
        u, mu_v = m.centered_a[1:, 0], mu * m.centered_b[1:, 0]
        keeps.append(keep := [])
        for target, direction in zip(targets, trial[:, 1:]):
            _, allowed, rule, tails = _CONSTRUCTIONS[target]
            if not allowed(n):
                raise DimensionMismatch("construction requires " + rule.format(n))
            if tails is None:
                keep.append(True)
                continue
            tail, floor, row = tails(u, mu_v, m, tol)
            norm = _norm(tail)
            keep.append(kept := norm > floor)
            if kept:
                np.divide(tail, norm, out=direction)  # complex: no complex-by-real loop
                # A phase product only where fixed, as a factor 1 can flip a zero's sign.
                if row is not None and abs(entry := complex(row @ direction)) > TIE_TOL * _norm(row):
                    direction *= cmath.exp(-1j * cmath.phase(entry))
    phis = iter(PureState._stack(rows.reshape(-1, n)))
    return [[_outcome(_constructed, target, m, mu, next(phis), not k, tol) for target, k in zip(targets, ks)]
            for m, mu, ks in zip(moments, mus, keeps)]


def _constructed(target: str, m: PairMoments, mu: complex, phi: PureState, degenerate: bool, tol: Tolerance):
    """[e1 | phi], orthonormal by construction (so it skips a caller's pair checks), with its gap: the target
    decision's slack at mu over its flag's scale, dev(A)^2 + dev(B)^2 (or 0 by the zero rule) for mp3 and 1
    for mp6.  The decision may raise."""
    p = _mp_pair(m, phi)
    if target == "w_mp6":
        gap = _mp6_decision(p, mu, tol)[0].slack
    else:
        decision = _mp3_decision(p, mu, tol)
        gap = 0.0 if all(_zero_deviations(m, tol)) else decision.slack / decision.lhs
    return ConstructedPair(mu=mu, psi=m.state, phi=phi, target=_CONSTRUCTIONS[target][0], achieved_slack=gap,
                           degenerate=degenerate)


def _construct(target: str, observable_a, observable_b, tol: Tolerance) -> ConstructedPair:
    """The body's one-trial call, after the constructors' one input check: the reduction of (A, B, e1) kept for the
    pair's checkers (:func:`~qubounds.states._reduction`) by its own e1, a fresh state over ``_e1``'s amplitudes.
    A_c e1 = (0, u) for the first-column tail u of A, so dev(A) = ||u||; likewise for B."""
    a, b = _entry(observable_a, observable_b)
    e1 = object.__new__(PureState)
    vars(e1)["amplitudes"] = _e1(a.dimension).amplitudes  # frozen already
    built = _constructions((target,), [_reduction(a, b, e1)], tol)[0][0]
    if isinstance(built, QuboundsError):
        raise built
    return built


def construct_case1(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the sum bound in dimension 2: psi = e1, phi = e2."""
    return _construct("case1", observable_a, observable_b, tol)


def construct_case2(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the sum bound in dimension n > 2.

    With psi = e1, equality needs the remaining frame directions orthogonal
    to the first-column tail u - mu v of A - mu B, so phi is that tail
    normalized (phase-fixed to make <psi|(A - mu B)|phi> real nonnegative).
    A vanishing tail makes the equality hold for any phi; e2 is used then.
    """
    return _construct("case2", observable_a, observable_b, tol)


def construct_w_mp6(observable_a, observable_b, tol: Tolerance = DEFAULT_TOL) -> ConstructedPair:
    """Saturating pair for the product bound.

    psi = e1, and phi embeds the normalized difference u/||u|| - mu v/||v||
    of the normalized first-column tails (those norms are the deviations of
    A and B in e1).  When the difference vanishes both equality sides are
    zero for any phi; e2 is used then.
    """
    return _construct("w_mp6", observable_a, observable_b, tol)


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
    res_a, res_b = (_norm(m._over_factor(c) * np.sqrt(m.state.weights)) for c in (m.centered_a, m.centered_b))
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
    m = pair_moments(observable_a, observable_b, state)
    if m.a.dimension != 2:
        raise DimensionMismatch(f"qubit check requires dimension 2, got {m.a.dimension}")
    if not all(_zero_deviations(m, tol)):
        return None
    a, b = m.a.matrix, m.b.matrix
    comm_norm = _norm(a @ b - b @ a)
    allowed = (2.0 * (m.a.spread * m.dev_b + m.b.spread * m.dev_a)
               + 2.0 * math.sqrt(2.0) * m.dev_a * m.dev_b + ROUNDING_TOL * (m.a.norm * m.b.norm))
    if comm_norm > allowed:
        raise CorollaryViolation(f"centered products vanish but ||[A, B]|| = {comm_norm:.3e} > {allowed:.3e}")
    return comm_norm
