import dataclasses
import math

import numpy as np
import pytest

from qubounds import (
    DensityMatrix,
    DimensionMismatch,
    NonRealExpectation,
    NotOrthogonal,
    NotOrthonormal,
    Observable,
    PureState,
    QuboundsError,
    Tolerance,
    ZeroDeviation,
    bloch_state,
    choose_mu,
    construct_case2,
    haar_unitary,
    mp3,
    mp3_saturation,
    mp6,
    mp6_saturation,
    mp_chain,
    mp_chain_saturation,
    mp_frame,
    mu_ratio,
    pair_moments,
    qubit_commutation_witness,
    random_density,
    random_hermitian,
    random_pure_state,
    robertson,
    robertson_saturation_pure,
    schrodinger,
    stddev,
    trial_rng,
)
from qubounds import relations, states
from qubounds.linalg import DEFAULT_TOL
from qubounds.relations import _decide
from qubounds.sampling import _haar_columns
from qubounds.errors import BoundViolation
from helpers import (SIGMA_X, SIGMA_Y, SIGMA_Z, block_pair_4x4, hermitian_array, plant_saturating_pure, reduction_at,
                     replaced)

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
MINUS = PureState(np.array([1.0, -1.0]) / np.sqrt(2))


def _orthonormal_pair(n, rng):
    u = haar_unitary(n, rng)
    return PureState(u[:, 0]), PureState(u[:, 1])


def test_make_report_flags_and_violation():
    tol = Tolerance(1e-12 + 1e-9)
    report = _decide("t", 1.0, 1.0, 1.0, tol)
    assert report.saturated and report.slack == 0.0
    report = _decide("t", 2.0, 1.0, 1.0, tol)
    assert not report.saturated and report.slack == 1.0
    with pytest.raises(BoundViolation):
        _decide("t", 1.0, 1.0 + 1e-6, 1.0, tol)
    # Negative slack inside the rounding budget is reported, not raised.
    report = _decide("t", 1.0, 1.0 + 1e-13, 1.0, tol)
    assert report.saturated


def test_bound_oracle_catches_a_wrong_bound_at_every_scale(monkeypatch):
    # A Robertson rhs made 1.5 times too large must raise on planted saturated
    # instances at every scale, and no caller's tolerance may loosen the check.
    with pytest.raises(BoundViolation):
        _decide("x", 1.0, 2.0, 1.0, Tolerance(10.0 + 1e-9))
    decide = relations._decide
    monkeypatch.setattr(relations, "_decide",
                        lambda name, lhs, rhs, *args, **kw: decide(name, lhs, 1.5 * rhs, *args, **kw))
    instances = [plant_saturating_pure(4, 0.7j, np.random.default_rng(s)) for s in range(100)]
    for tol in (Tolerance(), Tolerance(0.0), Tolerance(10.0 + 1e-9)):
        for c in (1.0, 1e-4, 1e-6, 1e-8, 1e-13):
            raised = 0
            for a, b, psi in instances:
                try:
                    robertson(c * a.matrix, c * b.matrix, psi, tol)
                except BoundViolation:
                    raised += 1
            assert raised >= 99, (tol, c, raised)


def test_an_overflow_never_becomes_a_report():
    # ||A||_F that overflows is rejected where A enters; a bound whose sides
    # overflow raises BoundViolation instead of reporting a NaN or inf slack.
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    for c in (1e100, 1e160, 1e200):
        a, b = c * SIGMA_X, c * SIGMA_Y
        evaluations = [lambda: robertson(a, b, KET0), lambda: robertson(a, b, rho),
                       lambda: schrodinger(a, b, KET0), lambda: schrodinger(a, b, rho),
                       lambda: mp3(a, b, KET0, KET1).report, lambda: mp_chain(a, b, KET0, KET1, 1j).steps,
                       lambda: (mp6(a, b, KET0, KET1).reformulated, mp6(a, b, KET0, KET1).product)]
        for evaluate in evaluations:
            try:
                result = evaluate()
            except (QuboundsError, ValueError):
                continue
            for report in result if isinstance(result, tuple) else (result,):
                if report is not None:
                    assert all(map(math.isfinite, (report.lhs, report.rhs, report.slack)))
    with pytest.raises(ValueError):
        Observable(1e160 * SIGMA_X)


def test_robertson_pauli_golden():
    report = robertson(SIGMA_X, SIGMA_Y, KET0)
    assert report.lhs == pytest.approx(1.0, abs=1e-14)
    assert report.rhs == pytest.approx(1.0, abs=1e-14)
    assert report.saturated


def test_robertson_maximally_mixed_golden():
    report = robertson(SIGMA_X, SIGMA_Y, DensityMatrix(np.eye(2) / 2))
    assert report.lhs == pytest.approx(1.0, abs=1e-14)
    assert report.rhs == pytest.approx(0.0, abs=1e-14)
    assert not report.saturated


def test_robertson_block_mixed_golden():
    a, b, rho = block_pair_4x4()
    report = robertson(a, b, rho)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert report.saturated


def test_robertson_matches_uncentered_oracle():
    rng = trial_rng(200, 0)
    for n in (2, 3, 4):
        for _ in range(20):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            rho = random_density(n, n, rng)
            report = robertson(a, b, rho)
            alpha = np.trace(a @ rho.matrix).real
            beta = np.trace(b @ rho.matrix).real
            dev_a = math.sqrt(np.trace(a @ a @ rho.matrix).real - alpha**2)
            dev_b = math.sqrt(np.trace(b @ b @ rho.matrix).real - beta**2)
            rhs = abs(np.trace((a @ b - b @ a) @ rho.matrix)) / 2
            assert report.lhs == pytest.approx(dev_a * dev_b, abs=1e-10)
            assert report.rhs == pytest.approx(rhs, abs=1e-10)


def test_schrodinger_pauli_golden():
    report = schrodinger(SIGMA_X, SIGMA_Y, KET0)
    assert report.lhs == pytest.approx(1.0, abs=1e-14)
    assert report.rhs == pytest.approx(1.0, abs=1e-14)
    assert report.saturated


def test_schrodinger_equal_observables_golden():
    report = schrodinger(SIGMA_Z, SIGMA_Z, PLUS)
    assert report.lhs == pytest.approx(1.0, abs=1e-14)
    assert report.rhs == pytest.approx(1.0, abs=1e-14)
    assert report.saturated


def test_schrodinger_block_mixed_golden():
    a, b, rho = block_pair_4x4()
    anticommutator = a @ b + b @ a
    assert np.linalg.norm(anticommutator) <= 1e-14
    report = schrodinger(a, b, rho)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert report.saturated


def test_schrodinger_matches_anticommutator_oracle():
    rng = trial_rng(201, 0)
    for _ in range(30):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        rho = random_density(3, 2, rng)
        report = schrodinger(a, b, rho)
        alpha = np.trace(a @ rho.matrix).real
        beta = np.trace(b @ rho.matrix).real
        anti = np.trace((a @ b + b @ a) @ rho.matrix) / 2 - alpha * beta
        comm = np.trace((a @ b - b @ a) @ rho.matrix) / 2j
        assert report.rhs == pytest.approx(abs(anti) ** 2 + abs(comm) ** 2, abs=1e-10)
        rob = robertson(a, b, rho)
        assert report.rhs >= rob.rhs**2 - 1e-10 * max(1.0, report.rhs)


def test_choose_mu_golden_cases():
    choice = choose_mu(SIGMA_X, SIGMA_Y, KET0)
    assert choice.mu == -1j and not choice.tie_broken
    assert choice.commutator_expectation == pytest.approx(2j)
    choice = choose_mu(SIGMA_X, SIGMA_Y, KET1)
    assert choice.mu == 1j and not choice.tie_broken
    assert choice.commutator_expectation == pytest.approx(-2j)
    choice = choose_mu(SIGMA_X, SIGMA_Y, PLUS)
    assert choice.mu == 1j and choice.tie_broken


def test_choose_mu_hypothesis_holds_randomly():
    rng = trial_rng(202, 0)
    for _ in range(50):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi = random_pure_state(3, rng)
        choice = choose_mu(a, b, psi)
        assert (choice.mu * choice.commutator_expectation).real >= -1e-12


def test_mp_frame_invariants():
    rng = trial_rng(203, 0)
    for n in (2, 3, 5):
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        psi, phi = _orthonormal_pair(n, rng)
        frame = mp_frame(a, b, psi, phi)
        assert np.linalg.norm(frame.u) == pytest.approx(stddev(a, psi), abs=1e-10)
        assert np.linalg.norm(frame.v) == pytest.approx(stddev(b, psi), abs=1e-10)
        assert frame.u[0] == pytest.approx(frame.c)
        assert frame.v[0] == pytest.approx(frame.d)
        elem = psi.amplitudes.conj() @ (a.matrix @ phi.amplitudes)
        assert frame.c == pytest.approx(complex(elem), abs=1e-12)


def test_mp_chain_steps_match_the_frame():
    # The chain reads dev(A), dev(B), c and d; mp_frame's first rows give the
    # same sides by Bessel's inequality: ||u||^2 + ||v||^2, |c|, |d|, c + mu d.
    rng = trial_rng(204, 0)
    for n in (2, 3, 4, 8, 64):
        for _ in range(5):
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            psi, phi = _orthonormal_pair(n, rng)
            mu = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            frame = mp_frame(a, b, psi, phi)
            dev_sq_sum = np.vdot(frame.u, frame.u).real + np.vdot(frame.v, frame.v).real
            abs_c, abs_d = abs(frame.c), abs(frame.d)
            pair_sum = (abs_c + abs_d) ** 2 / 2.0
            expected = (
                (dev_sq_sum, abs_c**2 + abs_d**2),
                (abs_c**2 + abs_d**2, pair_sum),
                (pair_sum, abs(frame.c + mu * frame.d) ** 2 / 2.0),
            )
            for step, (lhs, rhs) in zip(mp_chain(a, b, psi, phi, mu).steps, expected):
                assert step.lhs == pytest.approx(lhs, rel=1e-12)
                assert step.rhs == pytest.approx(rhs, rel=1e-12)


def test_mp_chain_rejects_bad_inputs():
    with pytest.raises(NotOrthogonal):
        mp_chain(SIGMA_X, SIGMA_Y, KET0, KET0, 1j)
    with pytest.raises(ValueError):
        mp_chain(SIGMA_X, SIGMA_Y, KET0, KET1, 2.0)


def test_a_mu_of_non_unit_or_nan_modulus_is_a_bad_input():
    # |nan| - 1 > budget is False: a NaN mu would reach the bounds and raise BoundViolation there.
    for check in (mp_chain, mp_chain_saturation):
        for mu in (complex(math.nan, 0.0), complex(math.nan, math.nan), 2.0, math.inf):
            with pytest.raises(ValueError):
                check(SIGMA_X, SIGMA_Y, KET0, KET1, mu)


def test_mp_chain_structure_and_slacks():
    rng = trial_rng(204, 0)
    for _ in range(30):
        a = hermitian_array(rng, 4)
        b = hermitian_array(rng, 4)
        psi, phi = _orthonormal_pair(4, rng)
        chain = mp_chain(a, b, psi, phi, 1j)
        s1, s2, s3 = chain.steps
        assert s1.rhs == s2.lhs
        assert s2.rhs == s3.lhs
        assert s1.rhs >= s2.rhs >= s3.rhs
        for step in chain.steps:
            assert step.slack >= -1e-10 * max(1.0, step.lhs, step.rhs)


def test_mp_chain_step1_identity_on_bloch_family():
    for theta in np.linspace(0.0, math.pi, 9):
        for phi_angle in np.linspace(0.0, 2 * math.pi, 9):
            psi = bloch_state(theta, phi_angle)
            other = PureState(
                np.array(
                    [math.sin(theta / 2), -np.exp(1j * phi_angle) * math.cos(theta / 2)],
                    dtype=complex,
                )
            )
            chain = mp_chain(SIGMA_X, SIGMA_Y, psi, other, 1j)
            assert abs(chain.steps[0].slack) <= 1e-12


def test_mu_ratio_matches_matrix_elements():
    psi = bloch_state(0.0, 0.7)
    other = PureState(np.array([0.0, -np.exp(0.7j)], dtype=complex))
    assert mu_ratio(SIGMA_X, SIGMA_Y, psi, other) == pytest.approx(1j, abs=1e-12)
    phi3 = PureState(np.array([0.0, 1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        mu_ratio(SIGMA_X, SIGMA_Y, psi, phi3)


def test_mu_ratio_zero_denominator_is_decided_at_every_scale():
    # d = <psi|B|phi> is zero only beside spread(B) or the rounding floor of
    # ||B||_F, so scaling (A, B) together moves no decision and no ratio.  An
    # absolute 1e-14 threshold called d zero for every pair at (A, B) -> 1e-15 (A, B).
    rng = trial_rng(120, 0)
    for _ in range(20):
        a, b = random_hermitian(4, rng).matrix, random_hermitian(4, rng).matrix
        psi, phi = (PureState(c) for c in _haar_columns(4, 2, rng).T)
        mu = mu_ratio(a, b, psi, phi)
        for c in (1e-8, 1.0, 1e8, 1e-15):
            assert mu_ratio(c * a, c * b, psi, phi) == pytest.approx(mu, rel=1e-12)
    # An exactly vanishing d is zero at every scale, with or without an identity part.
    e1, e2 = (PureState(v) for v in np.eye(2, 4))
    for b in (np.diag([1.0, -2.0, 0.5, 3.0]), 2.0 * np.eye(4)):
        for c in (1e-8, 1.0, 1e8, 1e-15):
            with pytest.raises(ZeroDeviation):
                mu_ratio(c * np.ones((4, 4)), c * b, e1, e2)


def test_mp3_basis_pair_golden():
    result = mp3(SIGMA_X, SIGMA_Y, KET0, KET1)
    assert result.mu.mu == -1j
    assert result.report.lhs == pytest.approx(2.0, abs=1e-14)
    assert result.report.rhs == pytest.approx(2.0, abs=1e-14)
    assert result.report.saturated


def test_mp3_plus_minus_golden():
    result = mp3(SIGMA_X, SIGMA_Y, PLUS, MINUS)
    assert result.mu.mu == 1j and result.mu.tie_broken
    assert result.report.lhs == pytest.approx(1.0, abs=1e-14)
    assert result.report.rhs == pytest.approx(1.0, abs=1e-14)
    assert result.report.saturated


def test_mp3_random_slack_nonnegative():
    rng = trial_rng(205, 0)
    for _ in range(50):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi, phi = _orthonormal_pair(3, rng)
        report = mp3(a, b, psi, phi).report
        assert report.slack >= -1e-10 * max(1.0, report.lhs, report.rhs)


def test_mp3_rhs_shift_invariance():
    rng = trial_rng(206, 0)
    for _ in range(20):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi, phi = _orthonormal_pair(3, rng)
        shift_a, shift_b = rng.uniform(-4.0, 4.0, size=2)
        base = mp3(a, b, psi, phi).report
        shifted = mp3(
            a + shift_a * np.eye(3), b + shift_b * np.eye(3), psi, phi
        ).report
        assert shifted.rhs == pytest.approx(base.rhs, abs=1e-10)


def test_mp6_basis_pair_golden():
    reports = mp6(SIGMA_X, SIGMA_Y, KET0, KET1)
    assert reports.mu.mu == -1j
    assert not reports.denominator_degenerate
    assert reports.product is not None
    assert reports.product.lhs == pytest.approx(1.0, abs=1e-14)
    assert reports.product.rhs == pytest.approx(1.0, abs=1e-14)
    assert reports.product.saturated
    # Q_mu = sigma_x - i sigma_y has zero (1, 2) element, so the denominator is 1.
    q = SIGMA_X - 1j * SIGMA_Y
    assert abs(KET0.amplitudes.conj() @ q @ KET1.amplitudes) <= 1e-14
    assert reports.reformulated.lhs == pytest.approx(1.0, abs=1e-14)


def test_mp6_zero_deviation_rejected():
    with pytest.raises(ZeroDeviation):
        mp6(SIGMA_Z, SIGMA_Y, KET0, KET1)


def test_mp6_random_reformulated_slack_nonnegative():
    rng = trial_rng(207, 0)
    for _ in range(50):
        a = hermitian_array(rng, 4)
        b = hermitian_array(rng, 4)
        psi, phi = _orthonormal_pair(4, rng)
        reports = mp6(a, b, psi, phi)
        r = reports.reformulated
        assert r.slack >= -1e-10 * max(1.0, r.lhs, r.rhs)
        if reports.product is not None:
            p = reports.product
            assert p.slack >= -1e-10 * max(1.0, p.lhs, p.rhs)


def test_mixed_pure_consistency_of_reports():
    rng = trial_rng(208, 0)
    for n in (2, 3, 4):
        for _ in range(10):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            psi = random_pure_state(n, rng)
            projector = DensityMatrix.from_pure(psi)
            rp, rm = robertson(a, b, psi), robertson(a, b, projector)
            assert rp.lhs == pytest.approx(rm.lhs, abs=1e-12)
            assert rp.rhs == pytest.approx(rm.rhs, abs=1e-12)
            sp, sm = schrodinger(a, b, psi), schrodinger(a, b, projector)
            assert sp.lhs == pytest.approx(sm.lhs, abs=1e-12)
            assert sp.rhs == pytest.approx(sm.rhs, abs=1e-12)


def test_reports_carry_digest_and_tolerance():
    report = robertson(SIGMA_X, SIGMA_Y, KET0)
    assert len(report.inputs_digest) == 16
    assert report.tol_used == Tolerance()
    again = robertson(SIGMA_X, SIGMA_Y, KET0)
    assert report.inputs_digest == again.inputs_digest
    other = robertson(SIGMA_X, SIGMA_Z, KET0)
    assert report.inputs_digest != other.inputs_digest
    # Inputs enter by their own digest: a rebuilt or relabelled observable is the same input.
    assert robertson(Observable(SIGMA_X), Observable(SIGMA_Y, label="B"), KET0).inputs_digest \
        == report.inputs_digest
    assert Observable(SIGMA_X, label="A").digest == Observable(SIGMA_X).digest
    assert Observable(np.asfortranarray(SIGMA_Y)).digest == Observable(SIGMA_Y).digest
    # A changed A, state or tag, and a pure state against its projector, all change it.
    changed = [
        robertson(SIGMA_Z, SIGMA_Y, KET0),
        robertson(SIGMA_X, SIGMA_Y, KET1),
        robertson(SIGMA_X, SIGMA_Y, DensityMatrix.from_pure(KET0)),
        schrodinger(SIGMA_X, SIGMA_Y, KET0),
    ]
    assert len({report.inputs_digest, *(r.inputs_digest for r in changed)}) == 5
    # Maccone-Pati reports also hash phi, and the chain its mu.
    phi_i = PureState(np.array([0.0, 1.0j]))
    mp_digests = {
        mp3(SIGMA_X, SIGMA_Y, KET0, KET1).report.inputs_digest,
        mp3(SIGMA_X, SIGMA_Y, KET0, phi_i).report.inputs_digest,
        mp6(SIGMA_X, SIGMA_Y, KET0, KET1).reformulated.inputs_digest,
        mp_chain(SIGMA_X, SIGMA_Y, KET0, KET1, 1j).steps[0].inputs_digest,
        mp_chain(SIGMA_X, SIGMA_Y, KET0, KET1, -1j).steps[0].inputs_digest,
    }
    assert len(mp_digests) == 5


def test_the_pair_checks_run_before_the_mean_check_through_the_slot(monkeypatch):
    # With a moments body whose means carry an imaginary residue, the Maccone-Pati entries still
    # check in their documented order: the dimensions, the overlap, the Gram test at the caller's
    # tolerance, and only then the means, which the slot's reduction checks.
    real = states._moments

    def non_real(*args):
        means, gram, centred = real(*args)
        return means + 1j, gram, centred

    for module in (states, relations):
        for attr, obj in list(vars(module).items()):
            if obj is real:
                monkeypatch.setattr(module, attr, non_real)
    a, b = Observable(SIGMA_X), Observable(SIGMA_Y)
    ket0, ket1, plus = (PureState(s.amplitudes) for s in (KET0, KET1, PLUS))
    stretched = PureState(np.array([0.0, 1.0 + 1e-11]))
    cases = ((PureState(np.array([1.0, 0.0, 0.0])), ket1, DEFAULT_TOL, DimensionMismatch),
             (ket0, plus, DEFAULT_TOL, NotOrthogonal), (ket0, stretched, Tolerance(0.0), NotOrthonormal),
             (ket0, stretched, DEFAULT_TOL, NonRealExpectation), (ket0, ket1, DEFAULT_TOL, NonRealExpectation))
    for psi, phi, tol, error in cases:
        for entry in (mp3, mp6):
            with pytest.raises(error):
                entry(a, b, psi, phi, tol)
        assert "_reduced" not in vars(psi)


def _stretched_qubit_trial(k):
    """Trial k of ``SampleConfig(2, 2, 7, ...)``'s draws (A, B, psi, rho, then the Haar pair), with phi scaled by
    1 + 5e-11: a unit state within ``INPUT_TOL`` whose Gram deviation, about 1e-10, the default pair budget admits."""
    rng = trial_rng(7, k)
    a, b = random_hermitian(2, rng), random_hermitian(2, rng)
    random_pure_state(2, rng), random_density(2, 2, rng)
    pair = _haar_columns(2, 2, rng)
    return a, b, PureState(pair[:, 0]), PureState(pair[:, 1] * (1.0 + 5e-11))


@pytest.mark.parametrize("k", [4, 10, 13])
def test_a_stretched_pair_that_the_gram_test_admits_violates_no_bound(k):
    # These near-saturated qubit pairs read an mp6 slack of about -9.5e-11, below the floor of
    # the sides and the inputs alone (about -5e-11).  Each Maccone-Pati floor carries the admitted
    # ||Gram - I||_F times the part of its sides quadratic in phi, so none of them raises.
    a, b, psi, phi = _stretched_qubit_trial(k)
    p = relations._mp_inputs(a, b, psi, phi, DEFAULT_TOL)
    assert 0.5e-10 < p.gram < 2e-10
    reports = mp6(a, b, psi, phi)
    assert reports.reformulated.slack < -5e-11 and reports.reformulated.saturated
    assert mp3(a, b, psi, phi).report.saturated
    mp_chain(a, b, psi, phi, 1j)
    # Without the Gram term, or with c and d moved 1e-9 further than the pair's deviation, the
    # reformulated slack is a violation again.
    mu = reports.mu.mu
    for pushed in (dataclasses.replace(p, gram=0.0), dataclasses.replace(p, c=p.c * (1 + 1e-9), d=p.d * (1 + 1e-9))):
        with pytest.raises(BoundViolation, match="mp6 reformulated"):
            relations._mp6_decisions(pushed, mu)


def test_an_admitted_overlap_moves_no_maccone_pati_decision_under_an_identity_offset():
    # construct_case2's phi leaned by -5e-10 e1 has an overlap of 5e-10 with psi = e1, which the
    # default pair budget admits.  c and d are read from the centred pair, so A -> A + cI moves
    # neither.  Read from A itself, c carried c <psi|phi>: at an offset of 1e3 mp3 raised ("slack
    # -7.497e-07 below -3.014e-07"), and at 1e6 a slack of -7.5e-4 passed under the rounding floor.
    rng = trial_rng(11, 0)
    h, b = random_hermitian(3, rng).matrix, random_hermitian(3, rng).matrix
    decisions = []
    for offset in (0.0, 1e3, 1e6):
        a = h + offset * np.eye(3)
        pair = construct_case2(a, b)
        leaned = pair.phi.amplitudes - 5e-10 * np.eye(3)[0]
        psi, phi = pair.psi, PureState(leaned / np.linalg.norm(leaned))
        assert 4e-10 < abs(np.vdot(psi.amplitudes, phi.amplitudes)) < 6e-10
        sum_bound, product_bound, chain = mp3(a, b, psi, phi), mp6(a, b, psi, phi), mp_chain(a, b, psi, phi, 1j)
        reports = (sum_bound.report, product_bound.reformulated, product_bound.product, *chain.steps)
        decisions.append(([None if r is None else r.saturated for r in reports], product_bound.denominator_degenerate,
                          sum_bound.mu, product_bound.mu, sum_bound.report.slack))
        assert sum_bound.report.saturated
    assert decisions[0] == decisions[1] == decisions[2]
    # mu_ratio reads the same c and d, so an offset of 1e6 leaves it where it was.
    mu = mu_ratio(h, b, psi, phi)
    assert mu_ratio(h + 1e6 * np.eye(3), b, psi, phi) == pytest.approx(mu, rel=1e-12)


def test_a_zero_slack_is_saturated_at_a_zero_tolerance():
    # dev(sigma_x) dev(sigma_y) = 1 = |<[sigma_x, sigma_y]>| / 2 in |0>, exactly: the flag's
    # comparison admits the slack equal to eps times the scale, 0 here.
    report = robertson(SIGMA_X, SIGMA_Y, KET0, Tolerance(0.0))
    assert report.slack == 0.0 and report.saturated


def test_a_zero_slack_within_a_zero_violation_budget_is_saturated_and_raises_nothing():
    # Zero observables give lhs = rhs = 0, so slack 0, and a violation budget of exactly 0 (no size, no Gram
    # term for the basis pair): a slack equal to minus the budget is no violation, at eps = 0 too.
    zero = np.zeros((2, 2))
    for tol in (Tolerance(), Tolerance(0.0)):
        reports = (robertson(zero, zero, KET0, tol), schrodinger(zero, zero, KET0, tol),
                   mp3(zero, zero, KET0, KET1, tol).report)
        assert [(r.slack, r.saturated) for r in reports] == 3 * [(0.0, True)]


def test_a_sum_bound_with_one_zero_deviation_is_decided_by_its_slack():
    # The sum bounds' zero rule needs both deviations zero.  With A = 2 I, dev(A) = 0 but
    # dev(B)^2 exceeds |<e1|B|e2>|^2 for a B with a nonzero <e3|B|e1>, so mp3 and the
    # chain's first two steps are not saturated.
    rng = trial_rng(337, 0)
    a, b = 2.0 * np.eye(3), random_hermitian(3, rng)
    psi, phi = (PureState(np.eye(3)[j]) for j in (0, 1))
    assert not mp3(a, b, psi, phi).report.saturated
    assert [step.saturated for step in mp_chain(a, b, psi, phi, 1j).steps[:2]] == [False, False]


# dev(A) in e1 is 2^-31: zero to rounding beside spread(A), whose zero budget eps spread(A) is about 7e-10, but not
# exactly zero; dev(B) = 1 is not zero.  A_c e1 = 2^-31 e2 with B_c e1 = e3 (n = 3), or with B_c e1 = i e2 (sigma_y).
TINY = 2.0 ** -31
ONE_ZERO_3 = (np.array([[0, TINY, 0], [TINY, 1, 0], [0, 0, 1]]), np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
ONE_ZERO_2 = (np.array([[0, TINY], [TINY, 1]]), SIGMA_Y)


def test_a_product_bound_reads_one_deviation_zero_to_rounding_as_saturated():
    # A product bound's zero rule needs one deviation zero (any).  ONE_ZERO_3 in e1 has the cross term 0, so Robertson
    # reads 2^-31 >= 0 and Schrodinger 2^-62 >= 0, each saturated by that rule alone, in pure and in projector form.
    a, b = ONE_ZERO_3
    e1 = PureState(np.eye(3)[0])
    m = pair_moments(a, b, e1)
    assert (m.dev_a, m.dev_b) == (TINY, 1.0) and m.zero == (True, False)
    for state in (e1, DensityMatrix.from_pure(e1)):
        for bound in (robertson, schrodinger):
            report = bound(a, b, state)
            assert report.rhs == 0.0 and report.slack > 0.0 and report.saturated


def test_mp6_rejects_one_deviation_zero_to_rounding():
    # The product bound divides by each deviation, so one zero to rounding, though not exactly zero, is a ZeroDeviation.
    with pytest.raises(ZeroDeviation):
        mp6(*ONE_ZERO_3, *(PureState(np.eye(3)[j]) for j in (0, 1)))


def test_one_deviation_zero_to_rounding_ties_mu():
    # ONE_ZERO_2 in |0> gives <[A, B]> = 2^-30 i, 2 dev(A) dev(B) and far above the tie budget eps 2 dev(A) dev(B), so
    # its sign alone would pick mu = -i; dev(A), zero to rounding, makes it a tie, which goes to i.
    choice = choose_mu(*ONE_ZERO_2, KET0)
    assert choice.commutator_expectation == 2.0 * TINY * 1j and (choice.mu, choice.tie_broken) == (1j, True)


# Each Maccone-Pati entry as a call on (psi, phi), with the qubit pair (sigma_x, sigma_y) and mu = i where one is taken.
MP_ENTRIES = {
    "mp3": lambda psi, phi: mp3(SIGMA_X, SIGMA_Y, psi, phi),
    "mp6": lambda psi, phi: mp6(SIGMA_X, SIGMA_Y, psi, phi),
    "mp_chain": lambda psi, phi: mp_chain(SIGMA_X, SIGMA_Y, psi, phi, 1j),
    "mp_frame": lambda psi, phi: mp_frame(SIGMA_X, SIGMA_Y, psi, phi),
    "mu_ratio": lambda psi, phi: mu_ratio(SIGMA_X, SIGMA_Y, psi, phi),
    "mp3_saturation": lambda psi, phi: mp3_saturation(SIGMA_X, SIGMA_Y, psi, phi, 1j),
    "mp6_saturation": lambda psi, phi: mp6_saturation(SIGMA_X, SIGMA_Y, psi, phi, 1j),
    "mp_chain_saturation": lambda psi, phi: mp_chain_saturation(SIGMA_X, SIGMA_Y, psi, phi, 1j),
}
NOT_PURE = {"density-matrix": DensityMatrix(np.eye(2) / 2), "list": [1.0, 0.0], "str": "10"}
# Each entry with states of the wrong kind: the Maccone-Pati entries at psi and at phi, qubit_commutation_witness,
# which takes a DensityMatrix, at its state, and robertson_saturation_pure, which does not, at its state.  A mixed
# state's certificate needs the power re-check of robertson_saturation_mixed: the pure checker returned one with
# r_checked=() for the projector |0><0| before.
WRONG_KIND = {f"{name}-{kind}-{slot}": (entry, (bad, KET1) if slot == "psi" else (KET0, bad))
              for name, entry in MP_ENTRIES.items() for kind, bad in NOT_PURE.items() for slot in ("psi", "phi")}
WRONG_KIND.update({f"qubit_commutation_witness-{kind}":
                   (lambda state: qubit_commutation_witness(SIGMA_X, SIGMA_Y, state), (NOT_PURE[kind],))
                   for kind in ("list", "str")})
WRONG_KIND.update({f"robertson_saturation_pure-{kind}":
                   (lambda state: robertson_saturation_pure(SIGMA_X, SIGMA_Y, state), (bad,))
                   for kind, bad in dict(NOT_PURE, projector=DensityMatrix.from_pure(KET0)).items()})


@pytest.mark.parametrize("entry, args", WRONG_KIND.values(), ids=WRONG_KIND)
def test_a_state_of_the_wrong_kind_is_a_type_error(entry, args):
    # psi and phi enter every Maccone-Pati entry, and psi robertson_saturation_pure, through one door, which takes
    # only PureStates and raises the TypeError of pair_moments for anything else; qubit_commutation_witness reads
    # the dimension only after pair_moments has checked the state.  An AttributeError or NumPy's reshape ValueError
    # escaped before.
    with pytest.raises(TypeError, match="unsupported state type") as info:
        entry(*args)
    assert type(info.value) is TypeError


def test_mu_ratio_runs_the_checks_of_mp3():
    # mu_ratio reads c / d through the door of mp3, so it raises what mp3 raises for the same inputs.  On the
    # first pair, phi = (e1 + e2) / sqrt(2) leans on psi = e1: c / d from the centred pair would read -0.5i, where
    # <psi|A|phi> / <psi|B|phi> = -1.5i.  The third phi has an overlap of 9e-10 with psi, within the default pair
    # budget 1e-9, and a Gram deviation of about sqrt(2) 9e-10, beyond it.
    a = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 5.0]])
    b = np.array([[0.0, 1j, 0.0], [-1j, 0.0, 1.0], [0.0, 1.0, 3.0]])
    e = np.eye(3)
    psi = PureState(e[0])
    cases = (((e[0] + e[1]) / math.sqrt(2), NotOrthogonal), (np.eye(2)[1], DimensionMismatch),
             (np.array([9e-10, math.sqrt(1.0 - 8.1e-19), 0.0]), NotOrthonormal))
    for amplitudes, error in cases:
        phi = PureState(amplitudes)
        for entry in (mp3, mu_ratio):
            with pytest.raises(error) as info:
                entry(a, b, psi, phi)
            assert type(info.value) is error
    assert mu_ratio(a, b, psi, PureState(e[1])) == pytest.approx(0.5 / 1j, rel=1e-15)


def test_the_mu_tie_sits_at_eps_times_twice_the_deviations():
    # In rho = diag(p, 1 - p), dev(sigma_x) = dev(sigma_y) = 1 and <[sigma_x, sigma_y]> = 2i (2p - 1), so the
    # tie's ratio |<[A, B]>| / (2 dev(A) dev(B)) is the dyadic 2p - 1.  At eps = 1/16, 1/32 ties (mu = i) and
    # 3/32 and 5/32 do not (mu = -i, as the commutator's imaginary part is positive).  A budget twice as wide
    # would tie 3/32 as well.
    tol = Tolerance(2.0 ** -4)
    for ratio, tie in ((1 / 32, True), (3 / 32, False), (5 / 32, False)):
        p = 0.5 + ratio / 2
        choice = choose_mu(SIGMA_X, SIGMA_Y, DensityMatrix(np.diag([p, 1.0 - p])), tol)
        assert choice.commutator_expectation == pytest.approx(2j * ratio, rel=1e-14)
        assert (choice.tie_broken, choice.mu) == (tie, 1j if tie else -1j)


def test_the_schrodinger_violation_floor_is_quartic_at_every_scale():
    # Schrodinger's sides are quartic in (A, B), and so is its rounding floor ROUNDING_TOL (||A||_F ||B||_F)^2:
    # scaling both by 2^k moves no decision.  In |0>, s sigma_x and s sigma_y give dev = s and cross = s^2 i
    # exactly.  A cross planted at s^2 i (1 + 2^-48) reads the slack -2^-47 s^4, within the floor 4e-13 s^4 (a
    # floor quadratic in the norms, 2e-13 s^2, would raise from s = 8 on); one at s^2 i (1 + 2^-38) reads
    # -2^-37 s^4, beyond it at every scale.  At eps = 0 the input budget is 0, so the floor alone decides.
    tol = Tolerance(0.0)
    for k in range(-8, 9):
        s = 2.0 ** k
        m = reduction_at(s * SIGMA_X, s * SIGMA_Y, KET0, tol)
        assert (m.dev_a, m.dev_b, m.cross) == (s, s, s * s * 1j)
        decision = relations._schrodinger_decision(replaced(m, cross=s * s * 1j * (1.0 + 2.0 ** -48)))
        assert decision.slack == -(2.0 ** -47) * s ** 4 and decision.saturated
        with pytest.raises(BoundViolation, match="schrodinger"):
            relations._schrodinger_decision(replaced(m, cross=s * s * 1j * (1.0 + 2.0 ** -38)))


def test_the_overlap_check_rejects_what_the_pair_budget_does_not_admit():
    # At eps = 2^-30 the overlap and Gram budgets are both 2^-30, and phi = (s, sqrt(1 - s^2), 0) has overlap s
    # with e1 exactly, and a Gram deviation of sqrt(2) s.  s = 2^-31 passes both checks; s = 2^-30 passes the
    # overlap check and fails the Gram test; 3 2^-31 and 2^-26 fail the overlap check.  An overlap budget ten
    # times as wide would send 3 2^-31 on to the Gram test, which raises NotOrthonormal instead.
    tol = Tolerance(2.0 ** -30)
    a, b = hermitian_array(np.random.default_rng(33), 3), hermitian_array(np.random.default_rng(34), 3)
    psi = PureState(np.eye(3)[0])
    for s, error in ((2.0 ** -31, None), (2.0 ** -30, NotOrthonormal), (3 * 2.0 ** -31, NotOrthogonal),
                     (2.0 ** -26, NotOrthogonal)):
        phi = PureState(np.array([s, math.sqrt(1.0 - s * s), 0.0]))
        assert np.vdot(psi.amplitudes, phi.amplitudes) == s
        for entry in (mp3, mp6):
            if error is None:
                entry(a, b, psi, phi, tol)
                continue
            with pytest.raises(error) as info:
                entry(a, b, psi, phi, tol)
            assert type(info.value) is error


def test_a_mu_off_the_unit_circle_by_more_than_the_pair_budget_is_a_bad_input():
    # At eps = 2^-30 the |mu| budget is 2^-30, and | |mu| - 1 | is exact for mu = +-i (1 + x) with dyadic x:
    # x = 2^-31 and 2^-30 pass, 3 2^-31 and 2^-28 raise.  A budget twice as wide would pass 3 2^-31.
    tol = Tolerance(2.0 ** -30)
    for unit in (1j, -1j):
        for x, passes in ((2.0 ** -31, True), (2.0 ** -30, True), (3 * 2.0 ** -31, False), (2.0 ** -28, False)):
            mu = unit * (1.0 + x)
            assert abs(mu) - 1.0 == x
            for check in (mp_chain, mp_chain_saturation):
                if passes:
                    check(SIGMA_X, SIGMA_Y, KET0, KET1, mu, tol)
                    continue
                with pytest.raises(ValueError, match="must be 1"):
                    check(SIGMA_X, SIGMA_Y, KET0, KET1, mu, tol)


def test_the_mp6_denominator_is_degenerate_up_to_and_at_eps():
    # With A = sigma_x, B = [[0, 24 + 7i], [24 - 7i, 0]] (dev(B) = 25 exactly), psi = |0> and phi = |1>, the
    # commutator's imaginary part is negative, so mu = i at every tolerance and the reformulated lhs
    # L = 1 - |1 + i (24 + 7i) / 25|^2 / 2, about 0.28, does not move with eps.  The product form is degenerate
    # exactly when L <= eps: at eps = L and one ulp above it, and not one ulp below it.
    a, b = SIGMA_X, np.array([[0.0, 24 + 7j], [24 - 7j, 0.0]])
    lhs = mp6(a, b, KET0, KET1).reformulated.lhs
    assert lhs == pytest.approx(0.28, rel=1e-14)
    for eps, degenerate in ((np.nextafter(lhs, 0.0), False), (lhs, True), (np.nextafter(lhs, 1.0), True)):
        reports = mp6(a, b, KET0, KET1, Tolerance(float(eps)))
        assert reports.mu.mu == 1j and reports.reformulated.lhs == lhs
        assert reports.denominator_degenerate is degenerate and (reports.product is None) is degenerate
