"""Evaluation of the uncertainty bounds as auditable reports.

Every evaluator returns a :class:`BoundReport` (or a small bundle of them)
carrying both sides of the inequality, the slack, a saturation flag, the
tolerance used, and a digest of the inputs: a hash of the inputs' own
digests and the bound's tag.  A negative slack beyond the rounding budget
raises :class:`~qubounds.errors.BoundViolation` instead of being reported,
since each inequality is a theorem.  One rule decides each bound
(:func:`_decide`): the slack check, and a saturation flag that is
dimensionless and blind to an identity offset.

Each public evaluator is a thin entry that validates and reduces its inputs
(:func:`~qubounds.states.pair_moments`, or :func:`_mp_inputs` for the
Maccone-Pati family), runs the bound's one decision body on that reduction
and the tolerance (both sides, the slack and the flag: :class:`_Decision`),
and wraps the decision in a report with the digest.  The checkers, the
constructions and the verification sweep read only decisions, so they hash
nothing; the sweep names each trial's inputs once in its record, and takes
its Maccone-Pati reduction from the entries' own reduction body (:func:`_mp_reduction`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundViolation, DimensionMismatch, NotOrthogonal, ZeroDeviation
from .linalg import (DEFAULT_TOL, ROUNDING_TOL, Tolerance, _ArrayEquality, _completion, _grams, _input_budget,
                     _pair_budget, _require_orthonormal)
from .states import (Observable, PairMoments, PureState, QuantumState, _moments, _observable_pair, _pair_moments,
                     pair_moments)


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance: lhs >= rhs with slack = lhs - rhs."""

    lhs: float
    rhs: float
    slack: float
    saturated: bool
    tol_used: Tolerance
    inputs_digest: str


class _Decision(NamedTuple):
    """A bound's decision, in :class:`BoundReport` field order; a report adds the tolerance and digest."""

    lhs: float
    rhs: float
    slack: float
    saturated: bool


@dataclass(frozen=True)
class MuChoice:
    """The phase mu in {i, -i} making mu * <[A, B]> nonnegative."""

    mu: complex
    commutator_expectation: complex
    tie_broken: bool


@dataclass(frozen=True, eq=False)
class MPFrame(_ArrayEquality):
    """Audit quantities from the unitary frame with (psi, phi) as leading columns.

    ``u`` and ``v`` are the length n-1 first-row tails of the rotated
    observables; their norms equal the standard deviations, and their first
    entries are the cross matrix elements c = <psi|A|phi> and d = <psi|B|phi>.
    Only :func:`mp_frame` builds it; :func:`mp_chain` reads the same
    quantities from the moments and c, d, without a frame.
    """

    alpha: float
    beta: float
    u: np.ndarray
    v: np.ndarray
    c: complex
    d: complex


@dataclass(frozen=True)
class ChainReport:
    """The three chained sum-bound inequalities and the mu of the last step."""

    steps: tuple[BoundReport, BoundReport, BoundReport]
    mu: complex


@dataclass(frozen=True)
class MP3Report:
    report: BoundReport
    mu: MuChoice


@dataclass(frozen=True)
class MP6Reports:
    """Product bound in both forms.

    The reformulated report is always present; the product-form report is
    None when its denominator is degenerate (flagged separately).
    """

    reformulated: BoundReport
    product: BoundReport | None
    denominator_degenerate: bool
    mu: MuChoice


def _digest(*parts) -> str:
    """Inputs (observables, states) enter by their ``digest``; mu and the tag by their repr."""
    return hashlib.sha256(repr([getattr(p, "digest", p) for p in parts]).encode()).hexdigest()[:16]


def _mp_digest(p: _MPInputs, *tags) -> str:
    """The report digest of a Maccone-Pati bound: A, B, psi and phi, then ``tags`` (the chain's mu, the tag)."""
    m = p.moments
    return _digest(m.a, m.b, m.state, p.phi, *tags)


def _decide(name: str, lhs: float, rhs: float, scale: float, tol: Tolerance,
            zero: bool = False, size: float = 0.0) -> _Decision:
    """The decision of lhs >= rhs: saturated when ``zero`` or slack <= tol.eps * ``scale``.

    ``scale`` is the bound's natural size: the lhs of a product bound,
    dev(A)^2 + dev(B)^2 for mp3 and the chain, 1 for the mp6 reformulation.
    The relative slack so tested is of order eps^2 at distance eps from
    saturation.  ``zero`` marks deviations zero to rounding
    (:func:`_zero_deviations`): any for a product bound, both for a sum bound.
    A slack that is not finite, or below -max(_input_budget(tol) max(|lhs|, |rhs|),
    ROUNDING_TOL ``size``, for ``size`` the inputs' size in the bound's units), raises.
    """
    slack = lhs - rhs
    if not math.isfinite(slack):
        raise BoundViolation(f"{name}: slack {slack!r} is not finite")
    budget = max(_input_budget(tol) * max(abs(lhs), abs(rhs)), ROUNDING_TOL * size)
    if slack < -budget:
        raise BoundViolation(f"{name}: slack {slack:.3e} below -{budget:.3e}")
    return _Decision(float(lhs), float(rhs), float(slack), bool(zero or slack <= tol.eps * scale))


def _square(x: float) -> float:
    """x ** 2, or inf where a float power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _zero_budget(o: Observable, tol: Tolerance) -> float:
    """The largest deviation of A = ``o`` that is zero to rounding (:func:`_zero_deviation`)."""
    return max(tol.eps * o.spread, min(tol.eps, ROUNDING_TOL) * o.norm)


def _zero_deviation(dev: float, o: Observable, tol: Tolerance) -> bool:
    """Whether dev(A) = ``dev`` is zero to rounding, for A = ``o``.

    dev(A) is zero within tol.eps times the spread of A, which no identity
    offset moves, or within the rounding floor min(tol.eps, ROUNDING_TOL) ||A||_F,
    which covers n = 1 and multiples of the identity (spread 0).  As spread(A) <= ||A||_F, a
    deviation above tol.eps ||A||_F is not zero and needs no spread.
    """
    return dev <= tol.eps * o.norm and dev <= _zero_budget(o, tol)


def _zero_deviations(m: PairMoments, tol: Tolerance) -> tuple[bool, bool]:
    """Whether dev(A) and dev(B) are zero to rounding (:func:`_zero_deviation`)."""
    return _zero_deviation(m.dev_a, m.a, tol), _zero_deviation(m.dev_b, m.b, tol)


def _robertson_decision(m: PairMoments, tol: Tolerance) -> _Decision:
    lhs = m.dev_a * m.dev_b
    return _decide("robertson", lhs, abs(m.commutator_expectation) / 2.0, lhs, tol,
                   any(_zero_deviations(m, tol)), m.a.norm * m.b.norm)


def _schrodinger_decision(m: PairMoments, tol: Tolerance) -> _Decision:
    lhs = _square(m.dev_a * m.dev_b)
    return _decide("schrodinger", lhs, _square(m.cross.real) + _square(m.cross.imag), lhs, tol,
                   any(_zero_deviations(m, tol)), _square(m.a.norm * m.b.norm))


def robertson(observable_a, observable_b, state: QuantumState, tol: Tolerance = DEFAULT_TOL) -> BoundReport:
    """dev(A) dev(B) >= |<[A, B]>| / 2, for pure or mixed states."""
    m = pair_moments(observable_a, observable_b, state)
    return BoundReport(*_robertson_decision(m, tol), tol, _digest(m.a, m.b, m.state, "robertson"))


def schrodinger(observable_a, observable_b, state: QuantumState, tol: Tolerance = DEFAULT_TOL) -> BoundReport:
    """dev(A)^2 dev(B)^2 >= |<{A,B}>/2 - alpha beta|^2 + |<[A,B]>/(2i)|^2.

    Both right-hand terms are read off the centered cross inner product, so
    the anticommutator piece never suffers the alpha*beta cancellation.
    """
    m = pair_moments(observable_a, observable_b, state)
    return BoundReport(*_schrodinger_decision(m, tol), tol, _digest(m.a, m.b, m.state, "schrodinger"))


def _moments_mu(m: PairMoments, tol: Tolerance) -> MuChoice:
    """The one mu policy: the sign that makes mu <[A, B]> nonnegative, ties to i.

    A tie is |<[A, B]>| <= tol.eps * 2 dev(A) dev(B), relative as
    |<[A, B]>| <= 2 dev(A) dev(B), or a deviation zero to rounding.
    """
    comm = m.commutator_expectation
    tie = bool(abs(comm) <= tol.eps * 2.0 * m.dev_a * m.dev_b or any(_zero_deviations(m, tol)))
    mu = -1j if comm.imag > 0 and not tie else 1j
    return MuChoice(mu=mu, commutator_expectation=comm, tie_broken=tie)


def choose_mu(observable_a, observable_b, psi: PureState, tol: Tolerance = DEFAULT_TOL) -> MuChoice:
    """Pick mu in {i, -i} with mu * <psi|[A, B]|psi> >= 0; ties go to i."""
    return _moments_mu(pair_moments(observable_a, observable_b, psi), tol)


def _require_dimensions(a: Observable, psi: PureState, phi: PureState) -> None:
    if not a.dimension == psi.dimension == phi.dimension:
        raise DimensionMismatch(
            f"dimensions differ: {a.dimension} vs {psi.dimension} and {phi.dimension}"
        )


def _unit_mu(mu: complex, tol: Tolerance) -> complex:
    mu = complex(mu)
    # Written so that a NaN modulus fails the test too.
    if not abs(abs(mu) - 1.0) <= _pair_budget(tol):
        raise ValueError(f"|mu| must be 1, got {abs(mu)!r}")
    return mu


def _cross_elements(a: np.ndarray, b: np.ndarray, psi: np.ndarray, phi: np.ndarray) -> list:
    """[c, d] = [<psi|A|phi>, <psi|B|phi>], each a list of shape (...), for matrices A, B (..., n, n) and
    columns psi, phi (..., n, 1): each slice of a stacked call is the one-triple call."""
    bra = psi.conj().swapaxes(-1, -2)
    return [(bra @ (a @ phi))[..., 0, 0].tolist(), (bra @ (b @ phi))[..., 0, 0].tolist()]


@dataclass(frozen=True)
class _MPInputs:
    """The one Maccone-Pati reduction of (A, B, psi, phi).

    The moments in psi (which carry A, B and psi), phi, c = <psi|A|phi>
    and d = <psi|B|phi>.  A caller's pair passed the pair checks; a
    constructed pair [e1 | (0, tail)] is orthonormal by construction.
    """

    moments: PairMoments
    phi: PureState
    c: complex
    d: complex


def _mp_reduction(a: Observable, b: Observable, psi: PureState, phi: PureState, gram: list, moments: tuple,
                  cd: list, tol: Tolerance) -> _MPInputs:
    """The one Maccone-Pati reduction body, from the Gram matrix of (psi, phi) (:func:`~qubounds.linalg._grams`),
    the moments body's output in psi and [c, d].  Its checks run in order: the overlap (:class:`NotOrthogonal`),
    the Gram test, then the moments' mean check.  A sweep runs it once per trial on its chunk's slices."""
    overlap = abs(gram[1][0])
    if overlap > _pair_budget(tol):
        raise NotOrthogonal(f"|<phi|psi>| = {overlap:.3e}")
    _require_orthonormal(gram, tol)
    return _MPInputs(_pair_moments(a, b, psi, moments), phi, *cd)


def _mp_inputs(observable_a, observable_b, psi: PureState, phi: PureState, tol: Tolerance) -> _MPInputs:
    """Validate (A, B, psi, phi) once, check the dimensions, and reduce it (:func:`_mp_reduction`) from the
    pair's one Gram product, the moments in psi and c, d."""
    a, b = _observable_pair(observable_a, observable_b)
    _require_dimensions(a, psi, phi)
    return _mp_reduction(a, b, psi, phi, _grams(np.array(((psi.amplitudes, phi.amplitudes),)))[0],
                         _moments(a.matrix, b.matrix, psi.factor),
                         _cross_elements(a.matrix, b.matrix, psi.factor, phi.factor), tol)


def mp_frame(observable_a, observable_b, psi: PureState, phi: PureState,
             tol: Tolerance = DEFAULT_TOL) -> MPFrame:
    """Rotate A and B into the frame whose leading columns are psi and phi.

    Only the first rows (psi^dagger A) U and (psi^dagger B) U are formed.
    This is the audit view of the chain's quantities and the one place that
    completes a frame (one QR of an n x (n + 2) matrix).
    """
    m = _mp_inputs(observable_a, observable_b, psi, phi, tol).moments
    basis = _completion(np.array((psi.amplitudes, phi.amplitudes)).T)
    bra = psi.amplitudes.conj()
    row_a = (bra @ m.a.matrix) @ basis
    row_b = (bra @ m.b.matrix) @ basis
    return MPFrame(
        alpha=float(row_a[0].real),
        beta=float(row_b[0].real),
        u=row_a[1:],
        v=row_b[1:],
        c=complex(row_a[1]),
        d=complex(row_b[1]),
    )


def mp_chain(observable_a, observable_b, psi: PureState, phi: PureState,
             mu: complex, tol: Tolerance = DEFAULT_TOL) -> ChainReport:
    """The three-step sum-bound chain for any unit-modulus mu.

    dev(A)^2 + dev(B)^2 >= |c|^2 + |d|^2 >= (|c| + |d|)^2 / 2
                        >= |<psi|(A + mu B)|phi>|^2 / 2,
    with c = <psi|A|phi> and d = <psi|B|phi>, read from the moments and c, d
    without a frame (:func:`mp_frame`: ||u||^2 + ||v||^2, |c|, |d|, c + mu d).
    """
    mu = _unit_mu(mu, tol)
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    decisions = _mp_chain_decisions(p, mu, tol)
    digest = _mp_digest(p, mu, "mp-chain")
    return ChainReport(steps=tuple(BoundReport(*d, tol, digest) for d in decisions), mu=mu)


def _mp_chain_decisions(p: _MPInputs, mu: complex, tol: Tolerance) -> tuple[_Decision, _Decision, _Decision]:
    m = p.moments
    scale = m.dev_a**2 + m.dev_b**2
    zero = all(_zero_deviations(m, tol))
    abs_c, abs_d = abs(p.c), abs(p.d)
    sides = (scale, abs_c**2 + abs_d**2, _square(abs_c + abs_d) / 2.0, _square(abs(p.c + mu * p.d)) / 2.0)
    size = _square(m.a.norm) + _square(m.b.norm)
    return tuple(_decide(f"mp-chain step {k + 1}", sides[k], sides[k + 1], scale, tol, zero, size)
                 for k in range(3))


def mu_ratio(observable_a, observable_b, psi: PureState, phi: PureState) -> complex:
    """<psi|A|phi> / <psi|B|phi>: the mu that aligns the chain's last step.

    For orthogonal psi and phi, |<psi|B|phi>| <= dev(B) <= spread(B), so the
    denominator is zero when a deviation of B would be (:func:`_zero_deviation`
    at the default tolerance): beside spread(B), or within the rounding floor
    of ||B||_F.
    """
    a, b = _observable_pair(observable_a, observable_b)
    _require_dimensions(a, psi, phi)
    c, d = _cross_elements(a.matrix, b.matrix, psi.factor, phi.factor)
    if _zero_deviation(abs(d), b, DEFAULT_TOL):
        raise ZeroDeviation("denominator matrix element <psi|B|phi> vanishes")
    return c / d


def mp3(observable_a, observable_b, psi: PureState, phi: PureState,
        tol: Tolerance = DEFAULT_TOL) -> MP3Report:
    """Sum bound: dev(A)^2 + dev(B)^2 >= mu <[A,B]> + |<psi|(A + mu B)|phi>|^2."""
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    choice = _moments_mu(p.moments, tol)
    return MP3Report(report=BoundReport(*_mp3_decision(p, choice.mu, tol), tol, _mp_digest(p, "mp3")), mu=choice)


def _mp3_decision(p: _MPInputs, mu: complex, tol: Tolerance) -> _Decision:
    m = p.moments
    lhs = m.dev_a**2 + m.dev_b**2
    # mu is exactly i or -i and <[A, B]> = cross - conj(cross) exactly imaginary,
    # so mu <[A, B]> is exactly real.
    rhs = (mu * m.commutator_expectation).real + _square(abs(p.c + mu * p.d))
    return _decide("mp3", lhs, rhs, lhs, tol, all(_zero_deviations(m, tol)),
                   _square(m.a.norm) + _square(m.b.norm))


def mp6(observable_a, observable_b, psi: PureState, phi: PureState,
        tol: Tolerance = DEFAULT_TOL) -> MP6Reports:
    """Product bound via the normalized combination Q_mu = A/dev(A) + mu B/dev(B).

    The division-free reformulation
        1 - |<psi|Q_mu|phi>|^2 / 2 >= mu <[A,B]> / (2 dev(A) dev(B))
    is always evaluated; the product form
        dev(A) dev(B) >= (mu/2) <[A,B]> / (1 - |<psi|Q_mu|phi>|^2 / 2)
    only when the denominator stays clear of zero.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    choice = _moments_mu(p.moments, tol)
    reformulated, product = _mp6_decisions(p, choice.mu, tol)
    digest = _mp_digest(p, "mp6")
    return MP6Reports(reformulated=BoundReport(*reformulated, tol, digest),
                      product=None if product is None else BoundReport(*product, tol, digest),
                      denominator_degenerate=product is None, mu=choice)


def _mp6_decisions(p: _MPInputs, mu: complex, tol: Tolerance) -> tuple[_Decision, _Decision | None]:
    """The reformulated decision at ``mu``, and the product form's, or None where its denominator is degenerate."""
    m = p.moments
    reformulated, comm_term = _mp6_decision(p, mu, tol)
    if reformulated.lhs <= tol.eps:
        return reformulated, None
    lhs = m.dev_a * m.dev_b
    # The product form is dev(A) dev(B) / lhs times the reformulation, and so is its floor.
    return reformulated, _decide("mp6 product", lhs, comm_term / 2.0 / reformulated.lhs, lhs, tol,
                                 size=(m.a.norm * m.dev_b + m.b.norm * m.dev_a) / reformulated.lhs)


def _mp6_decision(p: _MPInputs, mu: complex, tol: Tolerance) -> tuple[_Decision, float]:
    """The division-free decision at ``mu``, and mu <[A, B]>; a deviation zero to rounding raises first."""
    m = p.moments
    if any(_zero_deviations(m, tol)):
        raise ZeroDeviation(f"deviations ({m.dev_a:.3e}, {m.dev_b:.3e}) too small for the product bound")
    q_elem = p.c / m.dev_a + mu * p.d / m.dev_b
    comm_term = (mu * m.commutator_expectation).real
    decision = _decide("mp6 reformulated", 1.0 - abs(q_elem) ** 2 / 2.0,
                       comm_term / (2.0 * m.dev_a * m.dev_b), 1.0, tol,
                       size=m.a.norm / m.dev_a + m.b.norm / m.dev_b)
    return decision, comm_term
