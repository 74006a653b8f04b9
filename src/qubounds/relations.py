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
at its tolerance (:func:`~qubounds.states._reduction`, or :func:`_mp_inputs` for the
Maccone-Pati family), runs the bound's one decision body on that reduction alone
(both sides, the slack and the flag: :class:`_Decision`), and wraps the decision
in a report with the digest.  The reduction carries the tolerance and its zero
sides, so no body takes a tolerance.  The checkers, the
constructions and the verification sweep read only decisions, so they hash
nothing; the sweep names each trial's inputs once in its record, and takes
its Maccone-Pati reduction from the entries' own reduction body (:func:`_mp_reduction`).
Every Maccone-Pati reduction reads c = <A_c psi, phi> and d = <B_c psi, phi> (:func:`_mp_pair`), which are
<psi|A|phi> and <psi|B|phi> for phi orthogonal to psi; each Maccone-Pati inequality is then Cauchy-Schwarz
between a unit phi and (A_c/s_a - mu B_c/s_b) psi, with s = 1 for mp3 and the deviations for mp6.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BoundViolation, NotOrthogonal, ZeroDeviation
from .linalg import (DEFAULT_TOL, ROUNDING_TOL, Tolerance, _ArrayEquality, _completion, _grams, _input_budget,
                     _pair_budget, _require_orthonormal, _square)
from .states import (Observable, PairMoments, PureState, QuantumState, _entry, _pair_moments, _reduction,
                     _zero_deviation)


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
            zero: bool = False, size: float = 0.0, pair: float = 0.0) -> _Decision:
    """The decision of lhs >= rhs: saturated when ``zero`` or slack <= tol.eps * ``scale``.

    ``scale`` is the bound's natural size: the lhs of a product bound,
    dev(A)^2 + dev(B)^2 for mp3 and the chain, 1 for the mp6 reformulation.
    The relative slack so tested is of order eps^2 at distance eps from
    saturation.  ``zero`` marks deviations zero to rounding (the reduction's
    ``zero``): any for a product bound, both for a sum bound.
    A slack that is not finite, or below -max(_input_budget(tol) max(|lhs|, |rhs|), ROUNDING_TOL ``size``) - ``pair``
    raises: ``size`` is the inputs' size in the bound's units, and ``pair`` a Maccone-Pati pair's Gram term.
    """
    slack = lhs - rhs
    if not math.isfinite(slack):
        raise BoundViolation(f"{name}: slack {slack!r} is not finite")
    budget = max(_input_budget(tol) * max(abs(lhs), abs(rhs)), ROUNDING_TOL * size) + pair
    if slack < -budget:
        raise BoundViolation(f"{name}: slack {slack:.3e} below -{budget:.3e}")
    return _Decision(float(lhs), float(rhs), float(slack), bool(zero or slack <= tol.eps * scale))


def _robertson_decision(m: PairMoments) -> _Decision:
    lhs = m.dev_a * m.dev_b
    return _decide("robertson", lhs, abs(m.commutator_expectation) / 2.0, lhs, m.tol, any(m.zero), m.a.norm * m.b.norm)


def _schrodinger_decision(m: PairMoments) -> _Decision:
    lhs = _square(m.dev_a * m.dev_b)
    return _decide("schrodinger", lhs, _square(m.cross.real) + _square(m.cross.imag), lhs, m.tol,
                   any(m.zero), _square(m.a.norm * m.b.norm))


def robertson(observable_a, observable_b, state: QuantumState, tol: Tolerance = DEFAULT_TOL) -> BoundReport:
    """dev(A) dev(B) >= |<[A, B]>| / 2, for pure or mixed states."""
    m = _reduction(*_entry(observable_a, observable_b, (state,)), state, tol)
    return BoundReport(*_robertson_decision(m), tol, _digest(m.a, m.b, m.state, "robertson"))


def schrodinger(observable_a, observable_b, state: QuantumState, tol: Tolerance = DEFAULT_TOL) -> BoundReport:
    """dev(A)^2 dev(B)^2 >= |<{A,B}>/2 - alpha beta|^2 + |<[A,B]>/(2i)|^2.

    Both right-hand terms are read off the centered cross inner product, so
    the anticommutator piece never suffers the alpha*beta cancellation.
    """
    m = _reduction(*_entry(observable_a, observable_b, (state,)), state, tol)
    return BoundReport(*_schrodinger_decision(m), tol, _digest(m.a, m.b, m.state, "schrodinger"))


def _moments_mu(m: PairMoments) -> MuChoice:
    """The one mu policy: the sign that makes mu <[A, B]> nonnegative, ties to i.

    A tie is |<[A, B]>| <= tol.eps * 2 dev(A) dev(B), relative as
    |<[A, B]>| <= 2 dev(A) dev(B), or a deviation zero to rounding.
    """
    comm = m.commutator_expectation
    tie = bool(abs(comm) <= m.tol.eps * 2.0 * m.dev_a * m.dev_b or any(m.zero))
    mu = -1j if comm.imag > 0 and not tie else 1j
    return MuChoice(mu=mu, commutator_expectation=comm, tie_broken=tie)


def choose_mu(observable_a, observable_b, psi: PureState, tol: Tolerance = DEFAULT_TOL) -> MuChoice:
    """Pick mu in {i, -i} with mu * <psi|[A, B]|psi> >= 0; ties go to i."""
    return _moments_mu(_reduction(*_entry(observable_a, observable_b, (psi,)), psi, tol))


def _unit_mu(mu: complex, tol: Tolerance) -> complex:
    mu = complex(mu)
    # Written so that a NaN modulus fails the test too.
    if not abs(abs(mu) - 1.0) <= _pair_budget(tol):
        raise ValueError(f"|mu| must be 1, got {abs(mu)!r}")
    return mu


@dataclass  # not frozen: a frozen init costs four times as much, and no caller writes one
class _MPInputs:
    """The one Maccone-Pati reduction of (A, B, psi, phi), built only by :func:`_mp_pair`.

    The moments in psi (which carry A, B and psi), phi, c = <A_c psi, phi>, d = <B_c psi, phi>, and the
    ||Gram - I||_F of (psi, phi) that the pair checks admitted, 0 for a constructed pair [e1 | (0, tail)].  Each
    bound's Gram term, that deviation times the part of its sides quadratic in phi, widens its violation floor."""

    moments: PairMoments
    phi: PureState
    c: complex
    d: complex
    gram: float


def _mp_pair(m: PairMoments, phi: PureState, gram: float = 0.0) -> _MPInputs:
    """The :class:`_MPInputs` of psi's moments ``m``, phi and the admitted ||Gram - I||_F ``gram``: c = <A_c psi, phi>
    and d = <B_c psi, phi>, two dot products with the centred pair, so no identity offset enters them; or the c and d
    that a construction's own psi = e1 keeps for that phi, A and B (:func:`~qubounds.saturation._constructed`)."""
    kept, x = vars(m.state).get("_paired"), phi.amplitudes
    if kept is not None and kept[0]() is phi and kept[1]() is m.a and kept[2]() is m.b:
        return _MPInputs(m, phi, kept[3], kept[4], gram)
    return _MPInputs(m, phi, complex(np.vdot(m.centered_a, x)), complex(np.vdot(m.centered_b, x)), gram)


def _mp_reduction(a: Observable, b: Observable, psi: PureState, phi: PureState, gram: list, moments: tuple | None,
                  tol: Tolerance) -> _MPInputs:
    """The one Maccone-Pati reduction body, from the Gram matrix of (psi, phi) (:func:`~qubounds.linalg._grams`) and
    the moments body's output in psi (None: psi's slot).  Its checks run in order: the overlap (:class:`NotOrthogonal`),
    the Gram test, then the mean check; :func:`_mp_pair` then reads c and d.  A sweep runs it on each trial's slices."""
    overlap = abs(gram[1][0])
    if overlap > _pair_budget(tol):
        raise NotOrthogonal(f"|<phi|psi>| = {overlap:.3e}")
    deviation = _require_orthonormal(gram, tol)
    m = _reduction(a, b, psi, tol) if moments is None else _pair_moments(a, b, psi, moments, tol)
    return _mp_pair(m, phi, deviation)


def _mp_inputs(observable_a, observable_b, psi: PureState, phi: PureState, tol: Tolerance) -> _MPInputs:
    """The one door of every Maccone-Pati entry: check (A, B, psi, phi) once, psi and phi as pure states
    (:func:`~qubounds.states._entry`), and reduce it (:func:`_mp_reduction`) from the pair's one Gram product and
    the moments in psi, through psi's slot.  For the phi that a construction built on its own psi = e1
    (:func:`~qubounds.saturation._constructed`), the Gram rows are [[1, 0], [0, <phi, phi>]], as phi[0] = 0: each
    entry as that product gives it, with one dot product."""
    a, b = _entry(observable_a, observable_b, (psi, phi), PureState)
    kept, x = vars(psi).get("_paired"), phi.amplitudes
    if kept is not None and kept[0]() is phi:  # [e1 | (0, tail)]: its Gram rows, each entry as _grams gives it
        return _mp_reduction(a, b, psi, phi, [[1.0, 0.0], [0.0, complex(np.vdot(x, x))]], None, tol)
    return _mp_reduction(a, b, psi, phi, _grams(np.array(((psi.amplitudes, x),)))[0], None, tol)


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
    with c = <psi|A|phi> = <A_c psi, phi> and d = <psi|B|phi> = <B_c psi, phi> (:func:`_mp_pair`), so step 1 is
    Cauchy-Schwarz for the unit phi; no frame (:func:`mp_frame`: ||u||^2 + ||v||^2, |c|, |d|, c + mu d) is built.
    """
    mu = _unit_mu(mu, tol)
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    decisions = _mp_chain_decisions(p, mu)
    digest = _mp_digest(p, mu, "mp-chain")
    return ChainReport(steps=tuple(BoundReport(*d, tol, digest) for d in decisions), mu=mu)


def _mp_chain_decisions(p: _MPInputs, mu: complex) -> tuple[_Decision, _Decision, _Decision]:
    m = p.moments
    scale = m.dev_a**2 + m.dev_b**2
    abs_c, abs_d = abs(p.c), abs(p.d)
    sides = (scale, abs_c**2 + abs_d**2, _square(abs_c + abs_d) / 2.0, _square(abs(p.c + mu * p.d)) / 2.0)
    size, pair = _square(m.a.norm) + _square(m.b.norm), p.gram * sides[1]
    return tuple(_decide(f"mp-chain step {k + 1}", sides[k], sides[k + 1], scale, m.tol, all(m.zero), size, pair)
                 for k in range(3))


def mu_ratio(observable_a, observable_b, psi: PureState, phi: PureState) -> complex:
    """<psi|A|phi> / <psi|B|phi>: the mu that aligns the chain's last step.

    Read as c / d, blind to an identity offset, through the door of :func:`mp3` (:func:`_mp_inputs` at the
    default tolerance), so its type, dimension, overlap, Gram and mean checks run first.  |d| <= dev(B) <= spread(B),
    so the denominator is zero when a deviation of B would be (the zero rule,
    :func:`~qubounds.states._zero_deviation`, at the default tolerance): beside spread(B), or within the rounding
    floor of ||B||_F.
    """
    p = _mp_inputs(observable_a, observable_b, psi, phi, DEFAULT_TOL)
    if _zero_deviation(abs(p.d), p.moments.b, DEFAULT_TOL):
        raise ZeroDeviation("denominator matrix element <psi|B|phi> vanishes")
    return p.c / p.d


def mp3(observable_a, observable_b, psi: PureState, phi: PureState,
        tol: Tolerance = DEFAULT_TOL) -> MP3Report:
    """Sum bound: dev(A)^2 + dev(B)^2 >= mu <[A,B]> + |<psi|(A + mu B)|phi>|^2."""
    p = _mp_inputs(observable_a, observable_b, psi, phi, tol)
    choice = _moments_mu(p.moments)
    return MP3Report(report=BoundReport(*_mp3_decision(p, choice.mu), tol, _mp_digest(p, "mp3")), mu=choice)


def _mp3_decision(p: _MPInputs, mu: complex) -> _Decision:
    m = p.moments
    lhs = m.dev_a**2 + m.dev_b**2
    # mu is exactly i or -i and <[A, B]> = cross - conj(cross) exactly imaginary,
    # so mu <[A, B]> is exactly real.
    quadratic = _square(abs(p.c + mu * p.d))
    rhs = (mu * m.commutator_expectation).real + quadratic
    return _decide("mp3", lhs, rhs, lhs, m.tol, all(m.zero), _square(m.a.norm) + _square(m.b.norm),
                   p.gram * quadratic)


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
    choice = _moments_mu(p.moments)
    reformulated, product = _mp6_decisions(p, choice.mu)
    digest = _mp_digest(p, "mp6")
    return MP6Reports(reformulated=BoundReport(*reformulated, tol, digest),
                      product=None if product is None else BoundReport(*product, tol, digest),
                      denominator_degenerate=product is None, mu=choice)


def _mp6_decisions(p: _MPInputs, mu: complex) -> tuple[_Decision, _Decision | None]:
    """The reformulated decision at ``mu``, and the product form's, or None where its denominator is degenerate."""
    m = p.moments
    reformulated, comm_term, pair = _mp6_decision(p, mu)
    if reformulated.lhs <= m.tol.eps:
        return reformulated, None
    lhs = m.dev_a * m.dev_b
    # The product form is dev(A) dev(B) / lhs times the reformulation, and so is its floor.
    return reformulated, _decide("mp6 product", lhs, comm_term / 2.0 / reformulated.lhs, lhs, m.tol,
                                 size=(m.a.norm * m.dev_b + m.b.norm * m.dev_a) / reformulated.lhs,
                                 pair=pair * lhs / reformulated.lhs)


def _mp6_decision(p: _MPInputs, mu: complex) -> tuple[_Decision, float, float]:
    """The division-free decision at ``mu``, mu <[A, B]>, and its Gram term (:class:`_MPInputs`), for q =
    <psi|Q_mu|phi> the pair's ||Gram - I||_F times |q|^2; a deviation zero to rounding raises first."""
    m = p.moments
    if any(m.zero):
        raise ZeroDeviation(f"deviations ({m.dev_a:.3e}, {m.dev_b:.3e}) too small for the product bound")
    q_elem = p.c / m.dev_a + mu * p.d / m.dev_b
    comm_term, q_sq = (mu * m.commutator_expectation).real, abs(q_elem) ** 2
    decision = _decide("mp6 reformulated", 1.0 - q_sq / 2.0, comm_term / (2.0 * m.dev_a * m.dev_b), 1.0, m.tol,
                       size=m.a.norm / m.dev_a + m.b.norm / m.dev_b, pair=p.gram * q_sq)
    return decision, comm_term, p.gram * q_sq
