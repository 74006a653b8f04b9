import math

import numpy as np
import pytest

from qubounds import (
    DensityMatrix,
    DimensionMismatch,
    NotOrthogonal,
    Observable,
    PureState,
    QuboundsError,
    Tolerance,
    ZeroDeviation,
    bloch_state,
    choose_mu,
    haar_unitary,
    mp3,
    mp6,
    mp_chain,
    mp_frame,
    mu_ratio,
    random_density,
    random_hermitian,
    random_pure_state,
    robertson,
    schrodinger,
    stddev,
    trial_rng,
)
from qubounds import relations
from qubounds.relations import _make_report
from qubounds.sampling import _haar_columns
from qubounds.errors import BoundViolation
from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, block_pair_4x4, hermitian_array, plant_saturating_pure

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
MINUS = PureState(np.array([1.0, -1.0]) / np.sqrt(2))


def _orthonormal_pair(n, rng):
    u = haar_unitary(n, rng)
    return PureState(u[:, 0]), PureState(u[:, 1])


def test_make_report_flags_and_violation():
    tol = Tolerance(absolute=1e-12, relative=1e-9)
    report = _make_report("t", 1.0, 1.0, 1.0, tol, "d")
    assert report.saturated and report.slack == 0.0
    report = _make_report("t", 2.0, 1.0, 1.0, tol, "d")
    assert not report.saturated and report.slack == 1.0
    with pytest.raises(BoundViolation):
        _make_report("t", 1.0, 1.0 + 1e-6, 1.0, tol, "d")
    # Negative slack inside the rounding budget is reported, not raised.
    report = _make_report("t", 1.0, 1.0 + 1e-13, 1.0, tol, "d")
    assert report.saturated


def test_bound_oracle_catches_a_wrong_bound_at_every_scale(monkeypatch):
    # A Robertson rhs made 1.5 times too large must raise on planted saturated
    # instances at every scale, and no caller's tolerance may loosen the check.
    with pytest.raises(BoundViolation):
        _make_report("x", 1.0, 2.0, 1.0, Tolerance(absolute=10.0), "d")
    make_report = relations._make_report
    monkeypatch.setattr(relations, "_make_report",
                        lambda name, lhs, rhs, *args, **kw: make_report(name, lhs, 1.5 * rhs, *args, **kw))
    instances = [plant_saturating_pure(4, 0.7j, np.random.default_rng(s)) for s in range(100)]
    for tol in (Tolerance(), Tolerance(0.0, 0.0), Tolerance(absolute=10.0)):
        for c in (1.0, 1e-4, 1e-6, 1e-8, 1e-13):
            raised = 0
            for a, b, psi in instances:
                try:
                    robertson(c * a.matrix, c * b.matrix, psi, tol)
                except BoundViolation:
                    raised += 1
            assert raised >= 99, (tol, c, raised)


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
