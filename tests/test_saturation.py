import cmath
import dataclasses
import hashlib
import math
import os
import sys

import numpy as np
import pytest

from qubounds import (
    CertificateKind,
    ConstructedPair,
    DensityMatrix,
    DimensionMismatch,
    HypothesisViolated,
    NotOrthogonal,
    NotOrthonormal,
    Observable,
    PureState,
    QuboundsError,
    RIndependenceViolation,
    SampleConfig,
    SaturationCertificate,
    Tolerance,
    ZeroDeviation,
    ZeroProductCheck,
    ZeroWitness,
    bloch_state,
    choose_mu,
    complex_dependence,
    construct_case1,
    construct_case2,
    construct_w_mp6,
    expectation,
    haar_unitary,
    hermitian_eig,
    mp3,
    mp3_saturation,
    mp6,
    mp6_saturation,
    mp_chain,
    mp_chain_saturation,
    mp_frame,
    mu_ratio,
    pair_moments,
    phase_dependence,
    psd_power,
    qubit_commutation_witness,
    random_density,
    random_hermitian,
    random_pure_state,
    robertson,
    robertson_saturation_mixed,
    robertson_saturation_pure,
    run_verification_suite,
    schrodinger,
    schrodinger_saturation,
    stddev,
    trial_rng,
    unitary_completion,
    zero_product_characterization,
    zero_sum_characterization,
)
import qubounds
from qubounds import linalg, relations, saturation, states
from qubounds.linalg import ROUNDING_TOL, complex_dependence_detail, phase_dependence_detail
from qubounds.saturation import CONSTRUCTION_TOL, DEFAULT_R_LIST, _constructions, _e1, _verify_r_family
from helpers import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    block_pair_4x4,
    certify_requests,
    complex_normal,
    hermitian_array,
    per_power_r_family,
    plant_saturating_mixed,
    plant_saturating_pure,
)

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
MINUS = PureState(np.array([1.0, -1.0]) / np.sqrt(2))


def _orthonormal_pair(n, rng):
    u = haar_unitary(n, rng)
    return PureState(u[:, 0]), PureState(u[:, 1])


# ---------------------------------------------------------------------------
# Pure product-bound saturation


def test_pure_certificate_north_pole():
    cert = robertson_saturation_pure(SIGMA_X, SIGMA_Y, bloch_state(0.0, 0.3))
    assert cert is not None
    assert cert.kind is CertificateKind.ROBERTSON_PURE
    assert cert.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert cert.residual <= 1e-12


def test_pure_certificate_south_pole():
    cert = robertson_saturation_pure(SIGMA_X, SIGMA_Y, bloch_state(math.pi, 1.1))
    assert cert is not None
    assert cert.theta == pytest.approx(7 * math.pi / 4, abs=1e-12)


def test_pure_certificate_degenerate_deviation():
    # dev(sigma_x) = 0 on |+>: both bound sides vanish and theta = 0 witnesses it.
    cert = robertson_saturation_pure(SIGMA_X, SIGMA_Y, PLUS)
    assert cert is not None
    assert cert.theta == pytest.approx(0.0)
    assert cert.residual == pytest.approx(0.0, abs=1e-14)
    report = robertson(SIGMA_X, SIGMA_Y, PLUS)
    assert report.lhs == pytest.approx(0.0, abs=1e-14)
    assert report.rhs == pytest.approx(0.0, abs=1e-14)


# In |0>, A = [[0, t], [t, 1]] with t = 2^-31 gives dev(A) = t: zero to rounding beside spread(A), but not exactly zero.
TINY = 2.0 ** -31
TINY_TAIL = np.array([[0, TINY], [TINY, 1]])


def test_a_certificate_enters_one_deviation_zero_to_rounding_as_exactly_zero():
    # With sigma_y, dev(B) = 1 and the cross term is t i.  The Gram form takes dev(A) and the cross term as exact
    # zeros, so the witness is (1, 0) at theta = 0 (kept, the cross term would lean it by about t), and its residual
    # is that side's deviation, t, not the both-zero 0.
    for cert in (robertson_saturation_pure(TINY_TAIL, SIGMA_Y, KET0),
                 schrodinger_saturation(TINY_TAIL, SIGMA_Y, DensityMatrix.from_pure(KET0))):
        assert (cert.theta, cert.residual) == (0.0, TINY)


def test_the_zero_characterizations_read_one_deviation_zero_to_rounding():
    # dev(A) = t is zero to rounding and dev(B) = 1 is not: the product dev(A) dev(B) is zero (any), the sum
    # dev(A)^2 + dev(B)^2 is not (all), and the qubit commutation witness, which needs both zero, is None.
    check = zero_product_characterization(TINY_TAIL, SIGMA_Y, KET0)
    assert (check.product_is_zero, check.witness, check.residual_a) == (True, ZeroWitness.A_ZERO, TINY)
    assert not zero_sum_characterization(TINY_TAIL, SIGMA_Y, KET0)
    assert qubit_commutation_witness(TINY_TAIL, SIGMA_Y, KET0) is None


def test_the_chain_certificate_angle_is_zero_only_where_both_deviations_are():
    # In |0> with phi = |1>, A = [[0, -i t], [i t, 1]] and B = t sigma_x give dev(A) = dev(B) = t, c = -i t and d = t:
    # at mu = -i every step holds exactly, with c + mu d = -2 i t.  dev(A) is zero to rounding beside spread(A), but
    # dev(B) is not beside spread(B) = sqrt(2) t, so theta is -arg(c + mu d) = pi/2, not the both-zero 0.
    chain = mp_chain_saturation(np.array([[0, -1j * TINY], [1j * TINY, 1]]), TINY * SIGMA_X, KET0, KET1, -1j)
    assert chain.step_saturated == (True, True, True) and chain.all_equalities.theta == math.pi / 2


def test_a_construction_gap_is_zero_only_where_both_deviations_are():
    # A = diag(0, 1, 2) with t in its first column's tail has dev(A) = sqrt(2) t in e1, zero to rounding beside
    # spread(A) = sqrt(2); B is random.  mp3's zero rule needs both deviations zero, so the gap of case 2 is its
    # decision's slack over its flag's scale: rounding noise, nonzero on some draws, and never the zero rule's 0.
    a = np.diag([0.0, 1.0, 2.0])
    a[0, 1:] = a[1:, 0] = TINY
    gaps = []
    for seed in range(6):
        b = hermitian_array(np.random.default_rng(seed), 3)
        pair = construct_case2(a, b)
        report = mp3(a, b, pair.psi, pair.phi).report
        assert pair.achieved_slack == report.slack / report.lhs
        gaps.append(pair.achieved_slack)
    assert any(gaps)


def test_pure_certificate_agreement_sweep():
    rng = trial_rng(300, 0)
    seen_present = 0
    for n in (2, 3, 4):
        for _ in range(120):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            psi = random_pure_state(n, rng)
            cert = robertson_saturation_pure(a, b, psi)
            report = robertson(a, b, psi)
            assert (cert is not None) == report.saturated
            if cert is not None:
                seen_present += 1
    # Random instances are essentially never saturated.
    assert seen_present == 0


def test_certificate_agreement_sweep_mixed_and_golden():
    # Presence of a certificate must track the saturated flag over a large
    # random sweep (both checkers, several ranks) and on the golden instances.
    rng = trial_rng(299, 0)
    trials = 0
    for n in (2, 3, 4):
        for _ in range(110):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            rho = random_density(n, int(rng.integers(1, n + 1)), rng)
            cert = robertson_saturation_mixed(a, b, rho)
            assert (cert is not None) == robertson(a, b, rho).saturated
            cert = schrodinger_saturation(a, b, rho)
            assert (cert is not None) == schrodinger(a, b, rho).saturated
            trials += 2
    assert trials >= 660
    a, b, rho = block_pair_4x4()
    assert (robertson_saturation_mixed(a, b, rho) is not None) == robertson(a, b, rho).saturated
    psi = bloch_state(0.0, 0.0)
    assert (robertson_saturation_pure(SIGMA_X, SIGMA_Y, psi) is not None) == robertson(
        SIGMA_X, SIGMA_Y, psi
    ).saturated


# ---------------------------------------------------------------------------
# One decision per characterization, at every scale

SCALES = (1e-8, 1.0, 1e8)
# (A, B) -> transformed pair: A scaled, A and B scaled together to 1e-13, and A
# shifted by a large multiple of the identity, which no flag may see.
TRANSFORMS = tuple((lambda a, b, c=c: (c * a, b)) for c in SCALES) + (
    lambda a, b: (1e-13 * a, 1e-13 * b),
    lambda a, b: (a + 1e4 * np.linalg.norm(a) * np.eye(len(a)), b),
)


def _moved_instances(eps, rng):
    """Planted saturating instances moved by ``eps``, each with the (checker, bound)
    pairs it saturates: pure n = 3 states moved by eps, mixed rank-2 ones with A
    moved by eps ||A||_F H."""
    robertson_pure = ((robertson_saturation_pure, robertson),)
    for coupling, checks in ((1j * rng.uniform(0.3, 3.0), robertson_pure),
                             (complex(*rng.uniform(-2.0, 2.0, 2)), ((schrodinger_saturation, schrodinger),))):
        a, b, psi0 = plant_saturating_pure(3, coupling, rng)
        g = complex_normal(rng, 3, 1).ravel()
        psi = psi0.amplitudes + eps * g / np.linalg.norm(g)
        yield a.matrix, b.matrix, PureState(psi / np.linalg.norm(psi)), checks
    mixed = ((robertson_saturation_mixed, robertson), (schrodinger_saturation, schrodinger))
    for phase, checks in ((math.pi / 2, mixed), (rng.uniform(0.3, 2 * math.pi - 0.3), mixed[1:])):
        a, b, rho = plant_saturating_mixed(5, 2, rng.uniform(0.2, 1.3), phase, rng)
        h = hermitian_array(rng, 5)
        yield a.matrix + eps * a.norm * h / np.linalg.norm(h), b.matrix, rho, checks


def test_saturation_flag_is_certificate_presence_at_every_scale():
    # At distance eps the relative slack is of order eps^2 and crosses the
    # budget between eps = 1e-3 and 1e-5.  No checker may raise anywhere on the
    # way, a certificate exists exactly when the report is saturated, and
    # scaling A, scaling A and B together or shifting A moves no flag.
    rng = trial_rng(330, 0)
    saturated, checked = {}, {}
    for eps in (1e-3, 1e-5, 1e-6, 1e-8, 1e-10):
        saturated[eps] = checked[eps] = 0
        for _ in range(3):
            for a, b, state, checks in _moved_instances(eps, rng):
                for check, bound in checks:
                    flags = set()
                    for transform in TRANSFORMS:
                        pair = transform(a, b)
                        cert = check(*pair, state)
                        report = bound(*pair, state)
                        assert (cert is not None) == report.saturated
                        flags.add(report.saturated)
                    assert len(flags) == 1
                    saturated[eps] += flags.pop()
                    checked[eps] += 1
    assert saturated[1e-3] == 0
    assert saturated[1e-8] == saturated[1e-10] == checked[1e-10]


def test_rescaled_r_family_check_fires_at_every_scale():
    # The witness of a planted instance fails the power family of the same
    # instance moved by eps = 1e-3, at every scale of A and under an identity
    # offset.  Below unit scale a max(1, ...) budget made this check vacuous,
    # and a budget read from ||A||_F let a large offset do the same.
    rng = trial_rng(331, 0)
    for phase, check in ((math.pi / 2, robertson_saturation_mixed), (1.0, schrodinger_saturation)):
        a, b, rho = plant_saturating_mixed(5, 2, 0.7, phase, rng)
        h = hermitian_array(rng, 5)
        moved = a.matrix + 1e-3 * a.norm * h / np.linalg.norm(h)
        for c, shift in [(c, 0.0) for c in SCALES] + [(1.0, 1e4)]:
            cert = check(c * a.matrix, b, rho)
            coeff_b = (1j if cert.phi is None else cmath.exp(1j * cert.phi)) * math.sin(cert.theta)
            m = pair_moments(c * moved + shift * np.eye(5), b, rho)
            with pytest.raises(RIndependenceViolation):
                _verify_r_family(m, math.cos(cert.theta), coeff_b, relations._zero_deviations(m, Tolerance()),
                                 Tolerance())


# The Maccone-Pati sum bound adds dev(A)^2 and dev(B)^2, so A and B scale together.
MP_TRANSFORMS = tuple((lambda a, b, c=c: (c * a, c * b)) for c in SCALES) + TRANSFORMS[len(SCALES):]


def _moved_constructions(eps, rng):
    """construct_case2 and construct_w_mp6 pairs (n = 4), then A moved by eps ||A||_F H."""
    for construct in (construct_case2, construct_w_mp6):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        pair = construct(a, b)
        h = hermitian_array(rng, 4)
        yield a + eps * np.linalg.norm(a) * h / np.linalg.norm(h), b, pair.psi, pair.phi


def test_maccone_pati_flags_are_their_reports_at_every_scale():
    # Each checker's flag is its report's flag, and no joint scale or identity
    # offset moves mu, the mp3 and mp6 flags or the chain-step flags.  Below
    # unit scale a max(1, ...) budget called every bound saturated.
    rng = trial_rng(332, 0)
    saturated = {}
    for eps in (0.0, 1e-3, 1e-5, 1e-6, 1e-8):
        saturated[eps] = 0
        for _ in range(3):
            for a, b, psi, phi in _moved_constructions(eps, rng):
                outcomes = set()
                for transform in MP_TRANSFORMS:
                    pair = transform(a, b)
                    sum_bound, product_bound = mp3(*pair, psi, phi), mp6(*pair, psi, phi)
                    mu = sum_bound.mu.mu
                    assert product_bound.mu.mu == mu
                    sum_check = mp3_saturation(*pair, psi, phi, mu)
                    product_check = mp6_saturation(*pair, psi, phi, mu)
                    assert sum_check.saturated == sum_bound.report.saturated
                    assert product_check.saturated == product_bound.reformulated.saturated
                    chain = mp_chain_saturation(*pair, psi, phi, mu)
                    steps = tuple(step.saturated for step in mp_chain(*pair, psi, phi, mu).steps)
                    assert chain.step_saturated == steps
                    outcomes.add((mu, sum_check.saturated, product_check.saturated, steps))
                assert len(outcomes) == 1
                saturated[eps] += sum(outcomes.pop()[1:3])
    # Each construction saturates its own bound; a move by 1e-3 opens both.
    assert saturated[0.0] >= 6 and saturated[1e-3] == 0


# ---------------------------------------------------------------------------
# Mixed product-bound saturation


def test_mixed_certificate_block_golden():
    a, b, rho = block_pair_4x4()
    cert = robertson_saturation_mixed(a, b, rho)
    assert cert is not None
    assert cert.kind is CertificateKind.ROBERTSON_MIXED
    assert cert.theta == pytest.approx(math.pi / 4, abs=1e-9)
    assert cert.r_checked == (0.5, 1.0, 2.0, 3.0)
    assert max(cert.r_residuals) <= 1e-9


def test_mixed_certificate_none_for_full_rank_qubit():
    rng = trial_rng(301, 0)
    for _ in range(50):
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        rho = random_density(2, 2, rng)
        assert robertson_saturation_mixed(a, b, rho) is None


def test_mixed_certificate_reduces_to_pure():
    psi = bloch_state(0.0, 0.0)
    pure = robertson_saturation_pure(SIGMA_X, SIGMA_Y, psi)
    mixed = robertson_saturation_mixed(SIGMA_X, SIGMA_Y, DensityMatrix.from_pure(psi))
    assert mixed is not None and pure is not None
    assert mixed.theta == pytest.approx(pure.theta, abs=1e-12)


def test_mixed_certificate_recovers_planted_angle():
    rng = trial_rng(302, 0)
    for n, k in ((3, 1), (4, 2), (6, 3)):
        for _ in range(5):
            theta = rng.uniform(0.2, math.pi / 2 - 0.2)
            a, b, rho = plant_saturating_mixed(n, k, theta, math.pi / 2, rng)
            cert = robertson_saturation_mixed(a, b, rho)
            assert cert is not None
            assert cert.theta == pytest.approx(theta, abs=1e-7)
            assert max(cert.r_residuals) <= 1e-8


# ---------------------------------------------------------------------------
# Schrodinger saturation


def test_schrodinger_certificate_qubit_golden():
    cert = schrodinger_saturation(SIGMA_X, SIGMA_Y, DensityMatrix.from_pure(KET0))
    assert cert is not None
    assert cert.kind is CertificateKind.SCHRODINGER
    assert cert.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert cert.phi == pytest.approx(math.pi / 2, abs=1e-12)
    assert max(cert.r_residuals) <= 1e-12


def test_schrodinger_certificate_equal_observables():
    rng = trial_rng(303, 0)
    a = random_hermitian(3, rng)
    rho = random_density(3, 2, rng)
    cert = schrodinger_saturation(a, a, rho)
    assert cert is not None
    assert cert.theta == pytest.approx(math.pi / 4, abs=1e-10)
    assert cert.phi == pytest.approx(math.pi, abs=1e-10)


def test_schrodinger_certificate_none_generically():
    rng = trial_rng(304, 0)
    for _ in range(30):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        rho = random_density(3, 3, rng)
        cert = schrodinger_saturation(a, b, rho)
        report = schrodinger(a, b, rho)
        assert (cert is not None) == report.saturated
        assert cert is None


def test_schrodinger_certificate_recovers_planted_angles():
    rng = trial_rng(305, 0)
    for _ in range(10):
        theta = rng.uniform(0.2, math.pi / 2 - 0.2)
        phi = rng.uniform(0.3, 2 * math.pi - 0.3)
        a, b, rho = plant_saturating_mixed(4, 2, theta, phi, rng)
        cert = schrodinger_saturation(a, b, rho)
        assert cert is not None
        assert cert.theta == pytest.approx(theta, abs=1e-7)
        assert cert.phi == pytest.approx(phi, abs=1e-7)
        assert max(cert.r_residuals) <= 1e-8


# ---------------------------------------------------------------------------
# Chain saturation


def test_chain_saturation_north_pole_all_steps():
    psi = bloch_state(0.0, 0.4)
    other = PureState(np.array([0.0, -np.exp(0.4j)], dtype=complex))
    sat = mp_chain_saturation(SIGMA_X, SIGMA_Y, psi, other, 1j)
    assert sat.step_saturated == (True, True, True)
    assert sat.all_equalities is not None
    assert sat.all_equalities.residual <= 1e-12
    assert sat.all_equalities.mu == 1j


def test_chain_saturation_quarter_turn_step2():
    for theta in np.linspace(0.1, math.pi - 0.1, 7):
        psi = bloch_state(theta, math.pi / 4)
        other = PureState(
            np.array(
                [math.sin(theta / 2), -np.exp(1j * math.pi / 4) * math.cos(theta / 2)],
                dtype=complex,
            )
        )
        sat = mp_chain_saturation(SIGMA_X, SIGMA_Y, psi, other, 1j)
        assert sat.step_saturated[1]


def test_chain_saturation_agrees_with_reports():
    rng = trial_rng(306, 0)
    for _ in range(40):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi, phi = _orthonormal_pair(3, rng)
        sat = mp_chain_saturation(a, b, psi, phi, 1j)
        chain = mp_chain(a, b, psi, phi, 1j)
        for flag, step in zip(sat.step_saturated, chain.steps):
            assert flag == step.saturated
        assert sat.all_equalities is None
        assert (sat.all_equalities is not None) == all(sat.step_saturated)
    # psi = e1 is an eigenvector of A - conj(mu) B, but A_c psi = e2 is not parallel
    # to phi = e3, so step 1 is open by its whole lhs and no certificate exists.
    e1, e2, e3 = np.eye(3)
    a = np.outer(e1, e2) + np.outer(e2, e1) + 0.7 * np.outer(e3, e3)
    b = -1j * np.outer(e1, e2) + 1j * np.outer(e2, e1) - 0.3 * np.outer(e3, e3)
    sat = mp_chain_saturation(a, b, PureState(e1), PureState(e3), 1j)
    chain = mp_chain(a, b, PureState(e1), PureState(e3), 1j)
    assert sat.step_saturated == tuple(step.saturated for step in chain.steps) == (False, True, True)
    assert chain.steps[0].slack == pytest.approx(2.0)
    assert (sat.all_equalities is not None) == all(sat.step_saturated)


# ---------------------------------------------------------------------------
# Sum/product equality checks


def test_mp3_saturation_basis_pair():
    check = mp3_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, -1j)
    assert check.saturated
    assert check.lhs == pytest.approx(0.0, abs=1e-14)
    assert check.rhs == pytest.approx(0.0, abs=1e-14)


def test_mp3_saturation_plus_minus():
    check = mp3_saturation(SIGMA_X, SIGMA_Y, PLUS, MINUS, 1j)
    assert check.saturated
    assert check.lhs == pytest.approx(1.0, abs=1e-14)
    assert check.rhs == pytest.approx(1.0, abs=1e-14)


def test_mp3_saturation_hypothesis_guard():
    with pytest.raises(HypothesisViolated):
        mp3_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, 1j)
    with pytest.raises(ValueError):
        mp3_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, 1.0)


def test_a_given_mu_is_a_unit_only_within_mu_snap_tol():
    # -i + 2^-40 (9.1e-13 from -i) is within MU_SNAP_TOL = 1e-12 and taken as -i exactly; -i + 2^-39 (1.8e-12)
    # and -i + 2^-36 (1.5e-11) are not, and are no mu.
    assert mp3_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, -1j + 2.0**-40) == mp3_saturation(SIGMA_X, SIGMA_Y, KET0,
                                                                                          KET1, -1j)
    for off in (2.0**-39, 2.0**-36):
        with pytest.raises(ValueError, match="mu must be i or -i"):
            mp3_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, -1j + off)


def test_mp3_saturation_agrees_with_report():
    rng = trial_rng(307, 0)
    agreements = 0
    for _ in range(40):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi, phi = _orthonormal_pair(3, rng)
        result = mp3(a, b, psi, phi)
        check = mp3_saturation(a, b, psi, phi, result.mu.mu)
        assert check.saturated == result.report.saturated
        agreements += 1
    assert agreements == 40


def test_mp6_saturation_basis_pair():
    check = mp6_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, -1j)
    assert check.saturated
    assert check.lhs == pytest.approx(0.0, abs=1e-14)
    assert check.rhs == pytest.approx(0.0, abs=1e-14)


def test_mp6_saturation_zero_deviation_guard():
    # dev(sigma_x) = 0 on |+>, so the product-bound equality test is undefined.
    with pytest.raises(ZeroDeviation):
        mp6_saturation(SIGMA_X, SIGMA_Y, PLUS, MINUS, 1j)


def test_product_bound_deviations_are_not_zero_at_small_scale():
    # At (A, B) -> 1e-10 (A, B) the deviations are 1e-10, not zero, so neither
    # mp6 nor construct_w_mp6 raises ZeroDeviation, and nothing dimensionless moves.
    rng = trial_rng(333, 0)
    for _ in range(20):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        psi, phi = _orthonormal_pair(4, rng)
        small, unit = mp6(1e-10 * a, 1e-10 * b, psi, phi), mp6(a, b, psi, phi)
        assert small.mu.mu == unit.mu.mu
        assert small.reformulated.saturated == unit.reformulated.saturated
        assert small.reformulated.slack == pytest.approx(unit.reformulated.slack, rel=1e-9, abs=1e-12)
        pair = construct_w_mp6(1e-10 * a, 1e-10 * b)
        assert pair.mu == construct_w_mp6(a, b).mu
        assert mp6_saturation(1e-10 * a, 1e-10 * b, pair.psi, pair.phi, pair.mu).saturated


def test_checkers_take_mu_as_exactly_plus_or_minus_i():
    # An accepted mu within 1e-12 of i or -i is snapped to it, so the checkers
    # return exactly what they return at i or -i.
    rng = trial_rng(338, 0)
    signs = set()
    for _ in range(20):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        psi, phi = _orthonormal_pair(4, rng)
        mu = mp3(a, b, psi, phi).mu.mu
        signs.add(mu)
        for check in (mp3_saturation, mp6_saturation):
            assert check(a, b, psi, phi, mu * (1 + 5e-13)) == check(a, b, psi, phi, mu)
    assert signs == {1j, -1j}


def test_mp6_saturation_agrees_with_report():
    rng = trial_rng(308, 0)
    for _ in range(40):
        a = hermitian_array(rng, 4)
        b = hermitian_array(rng, 4)
        psi, phi = _orthonormal_pair(4, rng)
        reports = mp6(a, b, psi, phi)
        check = mp6_saturation(a, b, psi, phi, reports.mu.mu)
        assert check.saturated == reports.reformulated.saturated


def _maccone_pati_checks(a, b, psi, phi, mu, tol):
    return {
        "mp3": lambda: mp3_saturation(a, b, psi, phi, mu, tol),
        "mp6": lambda: mp6_saturation(a, b, psi, phi, mu, tol),
        "chain": lambda: mp_chain_saturation(a, b, psi, phi, mu, tol),
        "mp3 bound": lambda: mp3(a, b, psi, phi, tol),
        "mp6 bound": lambda: mp6(a, b, psi, phi, tol),
        "chain bound": lambda: mp_chain(a, b, psi, phi, mu, tol),
    }


def test_maccone_pati_checkers_build_no_frame(monkeypatch):
    # c = <A_c psi, phi> and d = <B_c psi, phi> are dot products: no QR completion,
    # in the checkers, in mp3 and mp6, or in the chain; only mp_frame completes one.
    rng = trial_rng(309, 0)
    cases = []
    for n in (2, 3, 5):
        a, b = hermitian_array(rng, n), hermitian_array(rng, n)
        psi, phi = _orthonormal_pair(n, rng)
        cases.append((a, b, psi, phi, mp3(a, b, psi, phi).mu.mu))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *args, **kw: calls.append(1) or qr(*args, **kw))
    for a, b, psi, phi, mu in cases:
        for check in _maccone_pati_checks(a, b, psi, phi, mu, Tolerance()).values():
            check()
    assert calls == []


def test_mp_chain_saturation_residuals_match_the_frame():
    rng = trial_rng(310, 0)
    for n in (2, 3, 4, 8):
        for _ in range(10):
            a, b = hermitian_array(rng, n), hermitian_array(rng, n)
            psi, phi = _orthonormal_pair(n, rng)
            mu = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            frame = mp_frame(a, b, psi, phi)
            dev_a, dev_b = np.linalg.norm(frame.u), np.linalg.norm(frame.v)
            abs_c, abs_d = abs(frame.c), abs(frame.d)
            expected = (
                max(abs(dev_a - abs_c), abs(dev_b - abs_d)),
                abs(abs_c - abs_d),
                abs_c + abs_d - abs(frame.c + mu * frame.d),
            )
            sat = mp_chain_saturation(a, b, psi, phi, mu)
            np.testing.assert_allclose(sat.step_residuals, expected, rtol=0, atol=1e-12)


def test_maccone_pati_checkers_reject_what_the_chain_rejects():
    # Each checker runs mp_chain's checks in its order, so a bad pair raises the same type.
    near_unit = PureState(np.array([0.0, 1.0 + 1e-12]))
    ket3 = PureState(np.array([0.0, 1.0, 0.0]))
    cases = [
        (SIGMA_X, SIGMA_Y, KET0, KET0, -1j, Tolerance()),
        (SIGMA_X, SIGMA_Y, KET0, ket3, -1j, Tolerance()),
        (SIGMA_X, SIGMA_Y, KET0, near_unit, -1j, Tolerance(0.0)),
        # Two columns cannot be orthonormal in dimension 1, however loose the budget.
        (np.eye(1), 2 * np.eye(1), PureState(np.ones(1)), PureState(np.ones(1)), 1j,
         Tolerance(10.0 + 1e-9)),
    ]
    for a, b, psi, phi, mu, tol in cases:
        with pytest.raises(QuboundsError) as expected:
            mp_chain(a, b, psi, phi, mu, tol)
        for name, check in _maccone_pati_checks(a, b, psi, phi, mu, tol).items():
            if name == "mp6" and psi.dimension == 1:
                continue  # zero deviations are refused first
            with pytest.raises(expected.type):
                check()
    with pytest.raises(ValueError):
        mp_chain_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, 2.0)
    # The near-unit pair passes at the default budget, as it does for mp_chain.
    mp_chain(SIGMA_X, SIGMA_Y, KET0, near_unit, -1j)
    for check in _maccone_pati_checks(SIGMA_X, SIGMA_Y, KET0, near_unit, -1j,
                                      Tolerance()).values():
        check()


def test_a_loose_tolerance_never_loosens_an_input_check():
    # |mu| = 1, the overlap and the Gram test compare against at most the default budget.
    loose = Tolerance(10.0 + 1e-9)
    with pytest.raises(ValueError):
        mp_chain_saturation(SIGMA_X, SIGMA_Y, KET0, KET1, 2.0, loose)
    with pytest.raises(ValueError):
        mp_chain(SIGMA_X, SIGMA_Y, KET0, KET1, 2.0, loose)
    with pytest.raises(NotOrthogonal):
        mp3(SIGMA_X, SIGMA_Y, KET0, KET0, loose)
    with pytest.raises(NotOrthonormal):
        unitary_completion([(1.0, 0.0), (1.0, 1e-3)], loose)


def test_chain_certificate_theta_is_zero_when_c_plus_mu_d_is_noise():
    # A = 3I, B = I: c and d are multiples of <psi|phi>, zero up to rounding.
    for seed in range(5):
        frame = haar_unitary(3, seed)
        psi, phi = PureState(frame[:, 0]), PureState(frame[:, 1])
        cert = mp_chain_saturation(3.0 * np.eye(3), np.eye(3), psi, phi, 1j).all_equalities
        assert cert is not None and cert.residual <= 1e-12
        assert cert.theta == 0.0


# ---------------------------------------------------------------------------
# Constructions


def test_construct_case1_pauli_golden():
    pair = construct_case1(SIGMA_X, SIGMA_Y)
    assert pair.mu == -1j
    assert abs(pair.achieved_slack) <= 1e-12
    np.testing.assert_array_equal(pair.psi.amplitudes, KET0.amplitudes)
    np.testing.assert_array_equal(pair.phi.amplitudes, KET1.amplitudes)
    check = mp3_saturation(SIGMA_X, SIGMA_Y, pair.psi, pair.phi, pair.mu)
    assert check.saturated


def test_construct_case1_commuting_tie():
    pair = construct_case1(SIGMA_Z, SIGMA_Z)
    assert pair.mu == 1j
    assert pair.achieved_slack == pytest.approx(0.0, abs=1e-14)


def test_construct_case1_random_sweep():
    rng = trial_rng(309, 0)
    for _ in range(50):
        a = hermitian_array(rng, 2)
        b = hermitian_array(rng, 2)
        pair = construct_case1(a, b)
        assert abs(pair.achieved_slack) <= 1e-10
    with pytest.raises(DimensionMismatch):
        construct_case1(np.eye(3), np.eye(3))
    with pytest.raises(DimensionMismatch):
        construct_case1(np.eye(2), np.eye(3))


def test_construct_case2_random_sweep():
    rng = trial_rng(310, 0)
    for n in (3, 4, 8):
        for _ in range(25):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            pair = construct_case2(a, b)
            assert abs(pair.achieved_slack) <= 1e-8
            check = mp3_saturation(
                Observable(a), Observable(b), pair.psi, pair.phi, pair.mu
            )
            assert check.saturated
    with pytest.raises(DimensionMismatch):
        construct_case2(SIGMA_X, SIGMA_Y)
    with pytest.raises(DimensionMismatch):
        construct_case2(np.eye(3), np.eye(4))


def test_construct_case2_tail_decision_is_scale_free():
    # The tail u - mu v is degenerate only beside ||u|| + ||v||.  At (A, B) -> 1e-13 (A, B)
    # a budget of max(1, ||A||_F, ||B||_F) took e2 for every input, a pair that closes nothing.
    rng = trial_rng(335, 0)
    for _ in range(10):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        small, unit = construct_case2(1e-13 * a, 1e-13 * b), construct_case2(a, b)
        assert not small.degenerate and small.mu == unit.mu
        np.testing.assert_allclose(small.phi.amplitudes, unit.phi.amplitudes, atol=1e-12)
        assert mp3(a, b, small.psi, small.phi).report.saturated


def test_construct_case2_phase_convention():
    # <psi|(A - mu B)|phi> is pinned real nonnegative for reproducible output.
    rng = trial_rng(317, 0)
    for _ in range(10):
        a = hermitian_array(rng, 4)
        b = hermitian_array(rng, 4)
        pair = construct_case2(a, b)
        entry = complex(
            pair.psi.amplitudes.conj() @ ((a - pair.mu * b) @ pair.phi.amplitudes)
        )
        assert abs(entry.imag) <= 1e-12
        assert entry.real >= -1e-12


def test_construct_case2_phase_convention_at_every_scale():
    # The phase is fixed whenever <e1|(A - mu B)|phi> is not rounding noise beside
    # its row, so phi is the same at every common scale of (A, B).  An absolute
    # 1e-14 threshold left the phase free at (A, B) -> 1e-15 (A, B).
    rng = trial_rng(336, 0)
    for _ in range(20):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        unit = construct_case2(a, b)
        for c in SCALES + (1e-15,):
            pair = construct_case2(c * a, c * b)
            assert pair.mu == unit.mu and not pair.degenerate
            np.testing.assert_allclose(pair.phi.amplitudes, unit.phi.amplitudes, rtol=0, atol=1e-12)
            entry = complex(pair.psi.amplitudes.conj() @ ((a - pair.mu * b) @ pair.phi.amplitudes))
            assert abs(entry.imag) <= 1e-12 * abs(entry) and entry.real >= 0.0


def test_construct_case2_degenerate_first_row():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = np.diag([5.0, 4.0, 3.0]).astype(complex)
    pair = construct_case2(a, b)
    assert pair.degenerate
    np.testing.assert_array_equal(pair.phi.amplitudes, np.array([0, 1, 0], dtype=complex))
    assert abs(pair.achieved_slack) <= 1e-12


def test_construct_case2_degeneracy_floor_counts_both_deviations():
    # The tail u - mu v is degenerate within eps (dev(A) + dev(B)) = eps (||u|| + ||v||).  With
    # v = -i u + delta and ||delta|| = 1.5e-9 ||u||, <[A, B]> in e1 is 2i Im <u, v> < 0, so mu = i and
    # the tail is -i delta: inside that floor, about 2e-9 ||u||, but outside eps dev(A) alone.
    rng = trial_rng(338, 0)
    u = complex_normal(rng, 2, 1).ravel()
    delta = complex_normal(rng, 2, 1).ravel()
    delta *= 1.5e-9 * np.linalg.norm(u) / np.linalg.norm(delta)
    a, b = hermitian_array(rng, 3), hermitian_array(rng, 3)
    for m, tail in ((a, u), (b, -1j * u + delta)):
        m[1:, 0], m[0, 1:] = tail, tail.conj()
    pair = construct_case2(a, b)
    assert pair.mu == 1j and pair.degenerate


def test_construct_case2_block_pair_degenerate_but_saturating():
    a, b, _ = block_pair_4x4()
    pair = construct_case2(a, b)
    assert pair.degenerate
    assert abs(pair.achieved_slack) <= 1e-12


def test_construct_w_mp6_random_sweep():
    rng = trial_rng(311, 0)
    for n in (3, 4, 8):
        for _ in range(25):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            pair = construct_w_mp6(a, b)
            assert abs(pair.achieved_slack) <= 1e-8
            check = mp6_saturation(
                Observable(a), Observable(b), pair.psi, pair.phi, pair.mu
            )
            assert check.saturated


def test_construct_w_mp6_qubit_degenerate_difference():
    pair = construct_w_mp6(SIGMA_X, SIGMA_Y)
    assert pair.mu == -1j
    assert pair.degenerate
    np.testing.assert_allclose(np.abs(pair.phi.amplitudes), [0.0, 1.0], atol=1e-14)
    check = mp6_saturation(SIGMA_X, SIGMA_Y, pair.psi, pair.phi, pair.mu)
    assert check.saturated and check.residual <= 1e-14


def test_construct_w_mp6_parallel_tails_degenerate():
    rng = trial_rng(312, 0)
    u0 = complex_normal(rng, 3, 1).ravel()
    a = np.zeros((4, 4), dtype=complex)
    a[1:, 0] = u0
    a[0, 1:] = u0.conj()
    a[1:, 1:] = hermitian_array(rng, 3)
    b = np.zeros((4, 4), dtype=complex)
    b[1:, 0] = 1j * u0
    b[0, 1:] = (1j * u0).conj()
    b[1:, 1:] = hermitian_array(rng, 3)
    pair = construct_w_mp6(a, b)
    assert pair.mu == -1j
    assert pair.degenerate
    check = mp6_saturation(Observable(a), Observable(b), pair.psi, pair.phi, pair.mu)
    assert check.saturated and check.residual <= 1e-12


def test_construct_w_mp6_zero_tail_rejected():
    # An exact zero deviation, and one that underflows: in e1 the tail u = (1e-170, 0) is nonzero but dev(A)^2 =
    # 1e-340 is 0.  Each raises ZeroDeviation with no RuntimeWarning (an error under the test configuration).
    underflow = np.array([[0.0, 1e-170, 0.0], [1e-170, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for a, b in ((SIGMA_Z, SIGMA_X), (underflow, np.roll(np.eye(3), 1, axis=0) + np.roll(np.eye(3), -1, axis=0))):
        with pytest.raises(ZeroDeviation):
            construct_w_mp6(a, b)


def test_construct_w_mp6_rejects_dimension_one():
    with pytest.raises(DimensionMismatch):
        construct_w_mp6(np.array([[1.0]]), np.array([[2.0]]))


def test_construction_gap_is_scale_free(monkeypatch):
    # The gap is the target report's slack over the scale its flag uses, so a pair
    # that does not close its bound reads one gap at every common scale of (A, B).
    # Over max(1, |lhs|, |rhs|) it shrank as c^2 below unit scale and passed CONSTRUCTION_TOL.
    rng = trial_rng(337, 0)
    scales = (1e-12, 1e-6, 1e-4, 1.0, 1e8)
    for _ in range(10):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        for construct in (construct_case2, construct_w_mp6):
            for c in scales:
                assert abs(construct(c * a, c * b).achieved_slack) <= 1e-12
            # phi = e2 instead of the saturating direction, through the same body: every tail reads as degenerate.
            with monkeypatch.context() as patch:
                patch.setattr(saturation, "_norm", lambda x: 0.0)
                wrong = [construct(c * a, c * b).achieved_slack for c in scales]
            assert min(map(abs, wrong)) > CONSTRUCTION_TOL
            np.testing.assert_allclose(wrong, wrong[3], rtol=1e-12, atol=0)


def test_zero_tolerance_never_trips_a_constructed_pairs_checks():
    # [e1 | (0, tail)] is orthonormal by construction.  Checked as a caller's pair,
    # a phi normalised to 1 +- 1 ulp failed the Gram test at a zero budget.
    zero = Tolerance(0.0)
    for k in range(200):
        rng = trial_rng(7, k)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        for construct in (construct_case2, construct_w_mp6):
            construct(a, b, zero)


def test_constructed_pairs_pass_every_pair_check_at_zero_tolerance():
    # Passed back as a caller's pair, [e1 | (0, tail)] goes through |mu| = 1, the
    # overlap and the Gram test.  phi is unit to 1 +- 1 ulp, within each check's
    # rounding floor, so a zero budget raises on none of these 1,600 calls.
    zero = Tolerance(0.0)
    calls = 0
    for n in (2, 3, 4, 5):
        for k in range(40):
            rng = trial_rng(343, k)
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            for construct in (construct_case1 if n == 2 else construct_case2, construct_w_mp6):
                pair = construct(a, b, zero)
                checks = _maccone_pati_checks(a, b, pair.psi, pair.phi, pair.mu, zero)
                for name in ("mp3", "mp6", "mp3 bound", "mp6 bound", "chain bound"):
                    checks[name]()
                    calls += 1
    assert calls == 1600


def test_shifted_eigenstates_raise_nothing_but_zero_deviation():
    # At an exact eigenstate the deviations are rounding noise, and an identity
    # offset of A makes c = <psi|A|phi> carry rounding of the offset.  Every
    # guard's floor is read at the inputs' size, so no check raises on them.
    for k in range(8):
        rng = trial_rng(342, k)
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        vectors = np.linalg.eigh(a)[1]
        psi, phi = PureState(vectors[:, 0]), PureState(vectors[:, 1])
        rho = DensityMatrix.from_factor(vectors[:, :2])
        for t in (0.0, 1e4, 1e8):
            shifted = a + t * np.linalg.norm(a) * np.eye(4)
            mu = mp3(shifted, b, psi, phi).mu.mu
            for evaluate in (
                lambda: robertson(shifted, b, psi), lambda: schrodinger(shifted, b, rho),
                lambda: robertson_saturation_pure(shifted, b, psi),
                lambda: robertson_saturation_mixed(shifted, b, rho),
                lambda: schrodinger_saturation(shifted, b, rho),
                lambda: mp6(shifted, b, psi, phi), lambda: mp3_saturation(shifted, b, psi, phi, mu),
                lambda: mp_chain_saturation(shifted, b, psi, phi, mu),
                lambda: construct_case2(shifted, b), lambda: construct_w_mp6(shifted, b),
            ):
                try:
                    evaluate()
                except ZeroDeviation:
                    pass


# ---------------------------------------------------------------------------
# Zero-deviation characterizations


def test_zero_product_block_scalar_case():
    a = Observable(np.diag([2.0, 2.0, 5.0, 7.0]).astype(complex))
    b = Observable(np.diag([3.0, 3.0, 1.0, 9.0]).astype(complex))
    rho = DensityMatrix(np.diag([0.4, 0.6, 0.0, 0.0]).astype(complex))
    result = zero_product_characterization(a, b, rho)
    assert result.product_is_zero
    assert result.witness is ZeroWitness.BOTH
    assert zero_sum_characterization(a, b, rho)


def test_zero_product_generic_negative():
    result = zero_product_characterization(SIGMA_X, SIGMA_Y, DensityMatrix(np.eye(2) / 2))
    assert not result.product_is_zero
    assert result.witness is ZeroWitness.NONE
    assert not zero_sum_characterization(SIGMA_X, SIGMA_Y, DensityMatrix(np.eye(2) / 2))


def test_zero_product_scalar_observable():
    rng = trial_rng(313, 0)
    b = random_hermitian(3, rng)
    rho = random_density(3, 2, rng)
    result = zero_product_characterization(3.0 * np.eye(3), b, rho)
    assert result.product_is_zero
    assert result.witness is ZeroWitness.A_ZERO


def test_zero_sum_scalar_pair():
    rng = trial_rng(314, 0)
    rho = random_density(2, 2, rng)
    assert zero_sum_characterization(2.0 * np.eye(2), -1.0 * np.eye(2), rho)


def test_qubit_commutation_witness_diagonal():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    witness = qubit_commutation_witness(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), rho)
    assert witness == pytest.approx(0.0, abs=1e-14)
    witness = qubit_commutation_witness(SIGMA_Z, SIGMA_Z, rho)
    assert witness == pytest.approx(0.0, abs=1e-14)


def test_qubit_commutation_witness_guard_sweep():
    rng = trial_rng(315, 0)
    for _ in range(50):
        rho = random_density(2, int(rng.integers(1, 3)), rng)
        assert qubit_commutation_witness(SIGMA_X, SIGMA_Y, rho) is None
    with pytest.raises(DimensionMismatch):
        qubit_commutation_witness(np.eye(3), np.eye(3), DensityMatrix(np.eye(3) / 3))


def test_qubit_commutation_witness_at_the_edge_of_the_zero_rule():
    # dev(A) = 0 and dev(B) = e on |0>; dev(B) is zero to rounding up to about
    # 1.41e-9 = tol.eps spread(B), where ||[A, B]||_F = sqrt(2) e (times
    # the scale of A) meets its allowance 2 spread(A) dev(B) with equality.
    for e in (1e-9, 1.3e-9, 1.5e-9):
        for c in (1.0, 1e4):
            a, b = c * np.diag([0.0, 1.0]), np.array([[-1.0, e], [e, 1.0]])
            for state in (KET0, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))):
                witness = qubit_commutation_witness(a, b, state)
                if e < 1.4e-9:
                    assert witness == pytest.approx(math.sqrt(2.0) * c * e, rel=1e-12)
                else:
                    assert witness is None


def test_qubit_commutator_is_bounded_by_the_deviations():
    # The allowance of qubit_commutation_witness holds on every qubit state:
    # ||[A, B]||_F <= 2 (spread(A) dev(B) + spread(B) dev(A)) + 2 sqrt(2) dev(A) dev(B).
    rng = trial_rng(334, 0)
    for k in range(300):
        a, b = Observable(hermitian_array(rng, 2)), Observable(hermitian_array(rng, 2))
        if k % 3 == 0:
            state = random_density(2, 2, rng)
        else:
            # Near-eigenstates of A, where dev(A) is small and the bound is nearly tight.
            psi = np.linalg.eigh(a.matrix)[1][:, 0] + 10.0 ** -rng.uniform(0, 10) * complex_normal(rng, 2, 1).ravel()
            state = PureState(psi / np.linalg.norm(psi))
        m = pair_moments(a, b, state)
        comm = np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix)
        allowed = 2 * (a.spread * m.dev_b + b.spread * m.dev_a) + 2 * math.sqrt(2) * m.dev_a * m.dev_b
        assert comm <= allowed * (1 + 1e-12) + 1e-15


def test_degenerate_deviation_consistency():
    # dev(A) = 0 forces both bound sides to zero and a zero-residual witness.
    rng = trial_rng(316, 0)
    b = random_hermitian(2, rng)
    report = robertson(SIGMA_Z, b, KET0)
    assert report.lhs == pytest.approx(0.0, abs=1e-14)
    assert report.rhs == pytest.approx(0.0, abs=1e-14)
    cert = robertson_saturation_pure(SIGMA_Z, b, KET0)
    assert cert is not None and cert.residual <= 1e-14
    assert stddev(SIGMA_Z, KET0) == pytest.approx(0.0, abs=1e-14)


def test_density_matrix_entry_is_the_only_psd_decision():
    # -5e-11 passes the entry check, -1e-10 * max(1, ||rho||_F), but lies below
    # -1e-10 * ||rho||_F (about -1e-11): no later power of rho may reject it.
    n = 100
    rng = trial_rng(311, 0)
    u = haar_unitary(n, rng)
    spectrum = np.full(n, 1.0 / 99.0)
    spectrum[-1] = -5e-11
    rho = DensityMatrix((u * spectrum) @ u.conj().T)
    a = random_hermitian(n, rng)
    b = random_hermitian(n, rng)
    assert not robertson(a, b, rho).saturated
    assert robertson_saturation_mixed(a, b, rho) is None


# ---------------------------------------------------------------------------
# One state path: a pure state is the one-column case of the mixed checkers


def _eigenvector_pair(a, psi):
    """(P A P + Q A Q) with P = |psi><psi|: A with psi made an eigenvector."""
    p = np.outer(psi.amplitudes, psi.amplitudes.conj())
    q = np.eye(len(p)) - p
    return p @ a @ p + q @ a @ q


def _one_path_cases(n, rng):
    a, b = hermitian_array(rng, n), hermitian_array(rng, n)
    psi = random_pure_state(n, rng)
    yield a, b, psi
    yield _eigenvector_pair(a, psi), b, psi
    yield _eigenvector_pair(a, psi), _eigenvector_pair(b, psi), psi
    theta = rng.uniform(0.2, math.pi / 2 - 0.2)
    for phase in (math.pi / 2, rng.uniform(0.3, 2 * math.pi - 0.3)):
        a, b, rho = plant_saturating_mixed(n, 1, theta, phase, rng)
        yield a.matrix, b.matrix, PureState(hermitian_eig(rho.matrix)[1][:, 0])


def _state_checks(n):
    checks = [
        robertson_saturation_mixed,
        schrodinger_saturation,
        zero_product_characterization,
        zero_sum_characterization,
    ]
    return checks + [qubit_commutation_witness] if n == 2 else checks


def _outcome(check, a, b, state):
    try:
        return check(a, b, state)
    except QuboundsError as exc:  # the comparison is on the outcome, errors included
        return type(exc)


def _assert_same_outcome(x, y):
    if x is None or isinstance(x, (bool, type)):
        assert x == y
    elif isinstance(x, float):
        assert y == pytest.approx(x, abs=1e-12)
    elif isinstance(x, ZeroProductCheck):
        assert (x.product_is_zero, x.witness) == (y.product_is_zero, y.witness)
        assert y.residual_a == pytest.approx(x.residual_a, abs=1e-12)
        assert y.residual_b == pytest.approx(x.residual_b, abs=1e-12)
    else:
        assert y is not None and x.r_checked == y.r_checked
        for u, v in ((x.theta, y.theta), (x.phi, y.phi)):
            assert (u is None) == (v is None)
            # Angles are compared on the circle: 2 pi - eps and eps are one angle.
            assert u is None or abs((u - v + math.pi) % (2 * math.pi) - math.pi) <= 1e-12
        assert y.residual == pytest.approx(x.residual, abs=1e-12)
        np.testing.assert_allclose(y.r_residuals, x.r_residuals, rtol=0, atol=1e-12)


def test_pure_state_matches_its_projector_in_every_state_checker():
    rng = trial_rng(320, 0)
    certificates = 0
    for n in (2, 3, 4):
        for a, b, psi in _one_path_cases(n, rng):
            projector = DensityMatrix.from_pure(psi)
            for check in _state_checks(n):
                pure = _outcome(check, a, b, psi)
                _assert_same_outcome(pure, _outcome(check, a, b, projector))
                certificates += isinstance(pure, SaturationCertificate)
    # The planted cases certify, so angles and power residuals are compared too.
    assert certificates >= 6


def test_state_checkers_on_a_pure_state_never_diagonalise(monkeypatch):
    rng = trial_rng(321, 0)
    cases = [(n, case) for n in (2, 3, 4) for case in _one_path_cases(n, rng)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(1) or eigh(*args))
    for n, (a, b, psi) in cases:
        for check in _state_checks(n):
            _outcome(check, Observable(a), Observable(b), psi)
    assert calls == []


def _zero_product_cases(rng):
    for n in (3, 4):
        for rank in range(1, n + 1):
            yield hermitian_array(rng, n), hermitian_array(rng, n), random_density(n, rank, rng)
    # ||A_c rho||_F is about 7e-10, inside the budget, while dev(A) is about
    # 2.2e-5: the deviation decides, so neither side is zero.
    rho = DensityMatrix(np.diag([1 - 5e-10, 5e-10]).astype(complex))
    for scale in (1.0, 1e4):
        yield scale * np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), rho
    # dev(A) is about 1e-5 whatever the identity offset; a budget read from
    # ||A||_F, about 1.4e4 here, called it zero.
    yield np.diag([0.0, 1.0]) + 1e4 * np.eye(2), SIGMA_X, DensityMatrix(
        np.diag([1 - 1e-10, 1e-10]).astype(complex))


def test_zero_product_residuals_match_direct_products():
    rng = trial_rng(322, 0)
    for a, b, rho in _zero_product_cases(rng):
        n = len(a)
        result = zero_product_characterization(a, b, rho)
        for obs, residual in ((a, result.residual_a), (b, result.residual_b)):
            mean = np.trace(obs @ rho.matrix).real
            direct = np.linalg.norm((obs - mean * np.eye(n)) @ rho.matrix)
            assert residual == pytest.approx(direct, abs=1e-12 * max(1.0, np.linalg.norm(obs)))
        assert (result.product_is_zero, result.witness) == (False, ZeroWitness.NONE)
        assert zero_sum_characterization(a, b, rho) is False
        if n == 2:
            # The qubit corollary reads its precondition from the same decision.
            assert qubit_commutation_witness(a, b, rho) is None


def test_checkers_and_constructions_hash_nothing(monkeypatch):
    # Checkers and constructors read bound decisions, never reports: building their
    # inputs and deciding hash nothing.  A digest read afterwards is the input's hash.
    calls = []
    for module, name in ((states, "_array_digest"), (relations, "_digest")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    rng = trial_rng(341, 0)
    a, b, psi = plant_saturating_pure(4, 0.7j, rng)
    ma, mb, rho = plant_saturating_mixed(4, 2, 0.6, math.pi / 2, rng)
    sa, sb, sigma = plant_saturating_mixed(4, 2, 0.6, 0.9, rng)
    h, g = hermitian_array(rng, 3), hermitian_array(rng, 3)
    case1, case2, w = construct_case1(SIGMA_X, SIGMA_Y), construct_case2(h, g), construct_w_mp6(h, g)
    ket0 = PureState(np.array([1.0, 0.0]))
    results = [
        robertson_saturation_pure(a, b, psi),
        robertson_saturation_mixed(ma, mb, rho),
        schrodinger_saturation(sa, sb, sigma),
        mp3_saturation(SIGMA_X, SIGMA_Y, case1.psi, case1.phi, case1.mu).saturated,
        mp3_saturation(h, g, case2.psi, case2.phi, case2.mu).saturated,
        mp6_saturation(h, g, w.psi, w.phi, w.mu).saturated,
        mp_chain_saturation(SIGMA_X, SIGMA_Y, bloch_state(0.0, 0.4),
                            PureState(np.array([0.0, -np.exp(0.4j)])), 1j).all_equalities,
        zero_product_characterization(SIGMA_Z, SIGMA_X, ket0).product_is_zero,
        zero_sum_characterization(SIGMA_Z, SIGMA_Z, ket0),
    ]
    assert all(r is not None and r is not False for r in results)
    assert calls == []
    for x, kind, array in ((a, "observable", a.matrix), (psi, "pure", psi.amplitudes),
                           (rho, "density", rho.matrix), (w.phi, "pure", w.phi.amplitudes)):
        assert x.digest == hashlib.sha256(f"{kind}{array.shape}".encode() + array.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Witnesses read from the moments' Gram form


def test_no_checker_construction_or_detector_runs_an_svd(monkeypatch):
    # Every witness is the least direction of a 2 x 2 Gram form read from the
    # moments (or, in the detectors, from three inner products): nothing factors a matrix.
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    rng = trial_rng(361, 0)
    a, b, psi = plant_saturating_pure(3, 0.7j, rng)
    sa, sb, sigma = plant_saturating_mixed(4, 2, 0.6, 0.9, rng)
    ma, mb, rho = plant_saturating_mixed(4, 2, 0.6, math.pi / 2, rng)
    h, g = hermitian_array(rng, 3), hermitian_array(rng, 3)
    case1, case2, w = construct_case1(SIGMA_X, SIGMA_Y), construct_case2(h, g), construct_w_mp6(h, g)
    x = complex_normal(rng, 3, 2)
    results = [
        robertson_saturation_pure(a, b, psi),
        robertson_saturation_mixed(a, b, psi),
        schrodinger_saturation(a, b, psi),
        robertson_saturation_mixed(ma, mb, rho),
        schrodinger_saturation(sa, sb, sigma),
        mp3_saturation(SIGMA_X, SIGMA_Y, case1.psi, case1.phi, case1.mu).saturated,
        mp3_saturation(h, g, case2.psi, case2.phi, case2.mu).saturated,
        mp6_saturation(h, g, w.psi, w.phi, w.mu).saturated,
        mp_chain_saturation(SIGMA_X, SIGMA_Y, bloch_state(0.0, 0.4),
                            PureState(np.array([0.0, -np.exp(0.4j)])), 1j).all_equalities,
        zero_product_characterization(SIGMA_Z, SIGMA_X, KET0).product_is_zero,
        zero_sum_characterization(SIGMA_Z, SIGMA_Z, KET0),
        qubit_commutation_witness(SIGMA_Z, SIGMA_Z, KET0),
        phase_dependence(x, 0.3j * x),
        complex_dependence(x, (0.3 - 2j) * x),
        phase_dependence_detail(x, 0.3j * x),
        complex_dependence_detail(x, (0.3 - 2j) * x),
    ]
    assert all(r is not None and r is not False for r in results)
    assert calls == []


def test_no_request_path_calls_np_linalg_norm(monkeypatch):
    # Every norm on a request's path is linalg._norm, np.linalg.norm's arithmetic without its
    # wrapper.  The inputs are planted before the count starts; the entry types are counted too,
    # all but DensityMatrix.from_factor, whose column normalisation is the one axis norm left.
    norm, calls = np.linalg.norm, []
    rng = trial_rng(362, 0)
    a, b, psi = plant_saturating_pure(3, 0.7j, rng)
    sa, sb, sigma = plant_saturating_mixed(4, 2, 0.6, 0.9, rng)
    ma, mb, rho = plant_saturating_mixed(8, 3, 0.6, math.pi / 2, rng)
    h, g = hermitian_array(rng, 3), hermitian_array(rng, 3)
    psi_f, phi_f = _orthonormal_pair(3, rng)
    x = complex_normal(rng, 3, 2)
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append(1) or norm(*args, **kwargs))
    case1, case2, w = construct_case1(SIGMA_X, SIGMA_Y), construct_case2(h, g), construct_w_mp6(h, g)
    mu = choose_mu(h, g, psi_f).mu
    results = [
        Observable(h), Observable.hermitian_part(g), PureState(psi.amplitudes), DensityMatrix(rho.matrix),
        expectation(a, psi), stddev(ma, rho), pair_moments(a, b, psi),
        robertson(ma, mb, rho), schrodinger(sa, sb, sigma), mp3(h, g, psi_f, phi_f), mp6(h, g, psi_f, phi_f),
        mp_chain(h, g, psi_f, phi_f, mu), mp_frame(h, g, psi_f, phi_f), mu_ratio(h, g, psi_f, phi_f),
        robertson_saturation_pure(a, b, psi),
        robertson_saturation_mixed(ma, mb, rho),
        schrodinger_saturation(sa, sb, sigma),
        mp3_saturation(SIGMA_X, SIGMA_Y, case1.psi, case1.phi, case1.mu).saturated,
        mp3_saturation(h, g, case2.psi, case2.phi, case2.mu).saturated,
        mp6_saturation(h, g, w.psi, w.phi, w.mu).saturated,
        mp_chain_saturation(SIGMA_X, SIGMA_Y, bloch_state(0.0, 0.4),
                            PureState(np.array([0.0, -np.exp(0.4j)])), 1j).all_equalities,
        zero_product_characterization(SIGMA_Z, SIGMA_X, KET0).product_is_zero,
        zero_sum_characterization(SIGMA_Z, SIGMA_Z, KET0),
        qubit_commutation_witness(SIGMA_Z, SIGMA_Z, KET0),
        phase_dependence(x, 0.3j * x),
        complex_dependence(x, (0.3 - 2j) * x),
        hermitian_eig(h), psd_power(rho.matrix, 0.5), random_pure_state(3, rng), random_hermitian(3, rng),
    ]
    assert all(r is not None and r is not False for r in results)
    assert calls == []


def _assert_within_the_recheck(cert, m, tol=Tolerance()):
    """``cert`` re-checks its r = 1/2 residual as ``residual``, and every residual within its budget."""
    assert cert is not None
    assert cert.r_residuals[cert.r_checked.index(0.5)] == cert.residual
    a, b = abs(math.cos(cert.theta)), abs(math.sin(cert.theta))
    limit = max(math.sqrt(10.0 * tol.eps) * max(a * m.dev_a, b * m.dev_b),
                ROUNDING_TOL * max(a * m.a.norm, b * m.b.norm))
    for r, residual in zip(cert.r_checked, cert.r_residuals):
        assert residual <= limit * np.linalg.norm(m.state.weights ** r)


def _zero_observable_cases(states):
    """(A, 0) and (0, A) with A shifted by 0, 1e4 and 1e8, in each state: the zero side is exactly zero."""
    rng = trial_rng(371, 0)
    for state in states:
        a = hermitian_array(rng, state.dimension)
        zero = np.zeros_like(a)
        for shift in (0.0, 1e4, 1e8):
            shifted = a + shift * np.eye(state.dimension)
            yield shifted, zero, state, math.pi / 2
            yield zero, shifted, state, 0.0


def _check_zero_observable_certificates(cases):
    # The zero side enters the Gram form as exactly 0, so the witness is exactly
    # (a, b) = (0, 1) or (1, 0) and every re-check residual is exactly 0.  Rebuilt
    # from theta = pi/2, cos(theta) = 6e-17 left 6e-17 dev(A) against a budget of 0.
    for a, b, state, theta in cases:
        m = pair_moments(a, b, state)
        for check in (robertson_saturation_mixed, schrodinger_saturation):
            cert = check(a, b, state)
            _assert_within_the_recheck(cert, m)
            assert cert.theta == theta and cert.residual == 0.0 and set(cert.r_residuals) == {0.0}
            assert cert.phi in (None, 0.0)


def test_a_zero_observable_gives_the_exact_witness_on_pure_states():
    rng = trial_rng(372, 0)
    _check_zero_observable_certificates(_zero_observable_cases(
        [random_pure_state(2, rng) for _ in range(5)] + [random_pure_state(3, rng)]))


def test_a_zero_observable_gives_the_exact_witness_on_rank_k_states():
    rng = trial_rng(373, 0)
    _check_zero_observable_certificates(_zero_observable_cases(
        [random_density(3, 2, rng), random_density(4, 2, rng), random_density(4, 3, rng)]))


RATIOS = (1e-8, 1e-10, 1e-12, 1e-13, 1e-14)


def _check_far_apart_certificates(cases):
    # With ||B|| / ||A|| = t, theta lies within about t of pi/2 (or of 0 for 1 / t).
    # The witness coefficients are read from the Gram form, each to its own relative
    # accuracy; recomputing cos(theta) from theta carried an error of ulp(pi/2) / t.
    for a, b, state, checks in cases:
        for t in RATIOS:
            for sa, sb in ((a, t * b), (t * a, b)):
                m = pair_moments(sa, sb, state)
                for check in checks:
                    _assert_within_the_recheck(check(sa, sb, state), m)


def test_far_apart_deviations_keep_their_certificates_on_pure_states():
    # On a qubit pure state the Schrodinger bound is always saturated; a planted
    # Robertson instance stays one when either observable is scaled.
    rng = trial_rng(374, 0)
    cases = [(hermitian_array(rng, 2), hermitian_array(rng, 2), random_pure_state(2, rng),
              (schrodinger_saturation,)) for _ in range(10)]
    for _ in range(4):
        a, b, psi = plant_saturating_pure(3, 0.8j, rng)
        cases.append((a.matrix, b.matrix, psi, (robertson_saturation_mixed, schrodinger_saturation)))
    _check_far_apart_certificates(cases)


def test_far_apart_deviations_keep_their_certificates_on_rank_k_states():
    rng = trial_rng(375, 0)
    cases = []
    for k in (1, 2, 3):
        for phase, check in ((math.pi / 2, robertson_saturation_mixed), (1.1, schrodinger_saturation)):
            for _ in range(2):
                a, b, rho = plant_saturating_mixed(4, k, 0.7, phase, rng)
                cases.append((a.matrix, b.matrix, rho, (check,)))
    _check_far_apart_certificates(cases)


DELTAS = (1e-12, 1e-11, 1e-10, 1e-9)


def _near_eigenstate_cases(delta, rng, n, k, count):
    """(A, B, state): A = U diag(lambda) U^dagger with lambda_1 = ... = lambda_k, and the state's
    k support directions the first k columns of U moved by ``delta`` (a pure state for k = 0)."""
    for _ in range(count):
        u = haar_unitary(n, rng)
        lam = rng.standard_normal(n)
        lam[:k] = lam[0]
        a, b = Observable.hermitian_part((u * lam) @ u.conj().T), hermitian_array(rng, n)
        if k == 0:
            psi = u[:, 0] + delta * complex_normal(rng, n, 1)[:, 0]
            yield a, b, PureState(psi / np.linalg.norm(psi))
        else:
            yield a, b, DensityMatrix.from_factor(u[:, :k] @ complex_normal(rng, k, k)
                                                  + delta * complex_normal(rng, n, k))


def _check_near_eigenstate_certificates(n, k, seed):
    # dev(A) of order delta is zero by the rule up to delta ~ 1e-9, so the flag is saturated and the
    # witness is exactly (a, b) = (1, 0), whose residual, the r = 1/2 re-check's ||A_c X||_F, is dev(A)
    # to rounding.  Against the 10x band's sqrt(10 eps) dev(A) no witness could pass; the zero rule
    # carried to r bounds the residual at each r by dev(A) ||w^r|| / sqrt(w_max), which no valid input
    # exceeds.
    rng = trial_rng(seed, 0)
    tol, zero_sides = Tolerance(), 0
    for delta in DELTAS:
        for a, b, state in _near_eigenstate_cases(delta, rng, n, k, 10):
            m = pair_moments(a, b, state)
            zero = relations._zero_deviations(m, tol)
            zero_sides += zero[0]
            weights = m.state.weights
            scale = m.dev_a / math.sqrt(weights.max())
            for check, bound in ((robertson_saturation_mixed, robertson), (schrodinger_saturation, schrodinger)):
                cert = check(a, b, state)
                assert (cert is not None) == bound(a, b, state).saturated
                if cert is None:
                    continue
                if not zero[0]:
                    _assert_within_the_recheck(cert, m)
                    continue
                assert cert.theta == 0.0 and cert.residual == cert.r_residuals[0]
                assert cert.residual == pytest.approx(m.dev_a, rel=1e-14)
                for r, residual in zip(cert.r_checked, cert.r_residuals):
                    assert residual <= (1 + 1e-12) * scale * np.linalg.norm(weights ** r)
    # The zero rule decides every draw below delta = 1e-9.
    assert zero_sides >= 30


def test_near_eigenstates_keep_their_certificates_on_pure_states():
    _check_near_eigenstate_certificates(3, 0, 376)


def test_near_eigenstates_keep_their_certificates_on_rank_k_states():
    _check_near_eigenstate_certificates(4, 2, 377)
    _check_near_eigenstate_certificates(5, 3, 378)


def test_a_mixed_certificate_with_one_zero_side_reports_its_recheck_residual():
    # A mixed certificate's residual is its power re-check's r = 1/2 residual ||a A_c X + b B_c X||_F, bit for
    # bit, also where one deviation is zero to rounding and the witness is (1, 0).  dev(A), read from the
    # moments' Gram entry, is that norm taken a second way, and may differ from it in the last place.
    rng, tol, checked = trial_rng(377, 0), Tolerance(), 0
    for delta in DELTAS:
        for n, k in ((4, 2), (5, 3)):
            for a, b, state in _near_eigenstate_cases(delta, rng, n, k, 10):
                if relations._zero_deviations(pair_moments(a, b, state), tol) != (True, False):
                    continue
                for check in (robertson_saturation_mixed, schrodinger_saturation):
                    cert = check(a, b, state)
                    assert cert.residual == cert.r_residuals[0]
                    checked += 1
    assert checked >= 60


def _count_zero_rule(monkeypatch) -> list:
    """Count every evaluation of the zero rule (relations._zero_deviation) from here on."""
    calls, real = [], relations._zero_deviation
    monkeypatch.setattr(relations, "_zero_deviation", lambda *args: calls.append(1) or real(*args))
    return calls


def test_a_certificate_request_decides_each_zero_side_twice(monkeypatch):
    # A certificate request evaluates the zero rule on each side for its bound's decision, and once more for its
    # witness, whose zero sides the mixed kinds' power re-check reads: 4 evaluations, pure or mixed.
    rng, calls = trial_rng(29, 3), _count_zero_rule(monkeypatch)
    requests = [(robertson_saturation_pure, *plant_saturating_pure(n, 0.7j, rng)) for n in (2, 4)]
    requests += [(check, *plant_saturating_mixed(n, k, 0.7, phase, rng))
                 for check, phase in ((robertson_saturation_mixed, math.pi / 2), (schrodinger_saturation, 1.0))
                 for n, k in ((2, 1), (4, 2), (8, 3))]
    for check, a, b, state in requests:
        calls.clear()
        assert check(a, b, state) is not None
        assert len(calls) == 4, check.__name__


def _library_calls(request) -> int:
    """The Python calls under ``src/qubounds`` that one run of ``request`` makes, counted with ``sys.setprofile``:
    each resumption of a generator counts, and a list, dict or set comprehension, which Python 3.12 inlines, does
    not."""
    root, calls = os.path.dirname(qubounds.__file__), 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        calls += (event == "call" and code.co_filename.startswith(root)
                  and code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>"))

    sys.setprofile(profile)
    try:
        request()
    finally:
        sys.setprofile(None)
    return calls


# Python calls per certify request kind, the same at every n.
CERTIFY_CALLS = {"pure": 44, "mixed": 54, "schrodinger": 57, "case1+mp3": 91, "case2+mp3": 94, "w_mp6+mp6": 84}


def test_a_certify_request_makes_a_fixed_number_of_python_calls():
    # Each request is shaped as a benchmark op (fresh Observables and state, then the checker; or fresh Observables,
    # the constructor, then its checker), run once first so that the cached e1 of its dimension exists.
    for kind, n, _, request in certify_requests(7):
        request()
        assert _library_calls(request) == CERTIFY_CALLS[kind], (kind, n)


def test_the_zero_side_recheck_raises_where_the_zero_side_outgrows_its_deviation():
    # A zero side along the heaviest support direction, of norm between z sqrt(1 + (w2/w1)^6)
    # and z / sqrt(w1) for the zero rule's budget z: the r = 1/2 re-check passes, and the one at
    # r = 3 raises.  Consistent moments cannot do this, since the norm is then dev(A) <= z.
    rng = trial_rng(379, 0)
    u = haar_unitary(4, rng)
    a = Observable.hermitian_part((u * np.array([0.5, 0.5, -1.0, 2.0])) @ u.conj().T)
    rho = DensityMatrix.from_factor(u[:, :2] * np.sqrt([0.7, 0.3]) + 1e-11 * complex_normal(rng, 4, 2))
    tol = Tolerance()
    m = pair_moments(a, hermitian_array(rng, 4), rho)
    zero = relations._zero_deviations(m, tol)
    assert zero == (True, False)
    _verify_r_family(m, 1.0, 0.0, zero, tol)
    w = np.sort(m.state.weights)[::-1]
    z = relations._zero_budget(m.a, tol)
    column = complex_normal(rng, 4, 1)[:, 0]
    inflated = np.zeros_like(m.centered_a)
    inflated[:, np.argmax(m.state.weights)] = (z * (1 / math.sqrt(w[0]) + math.sqrt(1 + (w[1] / w[0]) ** 6)) / 2
                                               * column / np.linalg.norm(column))
    # The inflated column is over rho's factor; the moments read G/||G||_F, which _basis turns into the factor.
    bad = dataclasses.replace(m, centered_a=inflated @ rho._basis.conj().T)
    with pytest.raises(RIndependenceViolation, match="at r=[123]"):
        _verify_r_family(bad, 1.0, 0.0, zero, tol)


def test_the_power_recheck_admits_a_residual_up_to_its_band():
    # With B = A = sigma_x in rho = diag(3/4, 1/4), the pair (1, -(1 - delta)) leaves Y = delta A_c X, whose
    # residual at every power r is delta ||w^r||, as A_c X has the column norms w_j^(1/2) over the factor.  The
    # limit is the band sqrt(10 eps) dev(A) = 1e-4 at the default eps: delta = 5e-5 passes, 2e-4 and 5e-4 raise.
    # A band sqrt(10) times as wide would pass 2e-4.
    tol = Tolerance()
    m = pair_moments(SIGMA_X, SIGMA_X, DensityMatrix(np.diag([0.75, 0.25])))
    zero = relations._zero_deviations(m, tol)
    assert m.dev_a == pytest.approx(1.0, abs=1e-15) and zero == (False, False)
    for delta, passes in ((5e-5, True), (2e-4, False), (5e-4, False)):
        if passes:
            residuals = _verify_r_family(m, 1.0, -(1.0 - delta), zero, tol)
            norms = [np.linalg.norm(np.array([0.75, 0.25]) ** r) for r in DEFAULT_R_LIST]
            assert residuals == pytest.approx([delta * n for n in norms], rel=1e-9)
            continue
        with pytest.raises(RIndependenceViolation, match="at r=0.5"):
            _verify_r_family(m, 1.0, -(1.0 - delta), zero, tol)


def _recheck_calls(monkeypatch) -> list:
    """Each _verify_r_family call a checker makes from here on, as (arguments, residuals)."""
    calls, real = [], saturation._verify_r_family

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(saturation, "_verify_r_family", spy)
    return calls


def _assert_the_per_power_oracle_agrees(args, residuals):
    # A witness's residual is rounding noise, so it is compared at the size of its two terms,
    # (|a| dev(A) + |b| dev(B)) w_max^(r - 1/2), which bounds each at r; at r = 1/2 both are ||Y||_F.
    m, coeff_a, coeff_b, _, tol = args
    oracle = per_power_r_family(m, coeff_a, coeff_b, DEFAULT_R_LIST, tol)
    assert DEFAULT_R_LIST[0] == 0.5 and residuals[0] == oracle[0]
    w_max = m.state.weights.max()
    for r, got, want in zip(DEFAULT_R_LIST, residuals, oracle):
        size = (abs(coeff_a) * m.dev_a + abs(coeff_b) * m.dev_b) * w_max ** (r - 0.5)
        assert abs(got - want) <= 1e-13 * max(want, size)


def test_the_one_pass_recheck_matches_the_per_power_oracle(monkeypatch):
    # The one-pass re-check sums Y's column squares against w^(2r - 1); the oracle weights Y's columns
    # at each r and takes a norm.  On planted rank-k certificates and near-eigenstate ones they agree,
    # the certificate's residual is its r = 1/2 residual bit for bit, and at random coefficients,
    # where the residual is not rounding noise (a loose tolerance keeps the budget out), to 1e-13 relative.
    calls, rng, loose = _recheck_calls(monkeypatch), trial_rng(380, 0), Tolerance(100.0)
    cases = [plant_saturating_mixed(n, k, 0.7, phase, rng)
             for n in (2, 4, 8) for k in range(1, n) for phase in (math.pi / 2, 1.0)]
    cases += [case for delta in DELTAS for n, k in ((3, 0), (4, 2), (5, 3))
              for case in _near_eigenstate_cases(delta, rng, n, k, 3)]
    certificates = 0
    for a, b, state in cases:
        for check in (robertson_saturation_mixed, schrodinger_saturation):
            calls.clear()
            cert = check(a, b, state)
            if cert is None:
                continue
            (args, residuals), = calls
            assert cert.r_residuals == residuals and residuals[0] == cert.residual
            _assert_the_per_power_oracle_agrees(args, residuals)
            coeffs = complex_normal(rng, 2, 1)[:, 0]
            np.testing.assert_allclose(_verify_r_family(args[0], *coeffs, relations._zero_deviations(args[0], loose),
                                                        loose),
                                       per_power_r_family(args[0], *coeffs, DEFAULT_R_LIST, loose),
                                       rtol=1e-13, atol=0)
            certificates += 1
    assert certificates >= 60


def _result_or_error(call):
    """What a call leaves: its result, or the type and message of the QuboundsError it raises."""
    try:
        return call()
    except QuboundsError as exc:
        return type(exc), str(exc)


def _construction_bytes(result):
    if not isinstance(result, ConstructedPair):
        return result if isinstance(result, tuple) else (type(result), str(result))
    return (result.mu, result.achieved_slack.hex(), result.degenerate, result.target,
            result.psi.amplitudes.tobytes(), result.phi.amplitudes.tobytes(), result.phi.factor.tobytes())


def test_stacked_states_pair_checks_and_constructions_are_the_one_trial_calls_byte_for_byte():
    # A sweep builds a chunk's pure states in one pass, checks its Maccone-Pati pairs from one Gram
    # product and runs both constructions as stacks; the public entries are each body's one-trial
    # call.  Every slice of a stacked call must be that call, byte for byte, or raise its error.
    # Trial 0 has e1 as a common eigenvector (degenerate tails, phi = e2), trial 1 a B offset by
    # 1e12 I, trial 2 multiples of I (zero deviations), and the last trial a pair leaning 1e-6.
    def constructions(a, b, targets):
        """The stacked constructions of the trials (a, b) at both tolerances, each slice checked against its
        public call's bytes."""
        t, n = a.shape[:2]
        e1 = _e1(n)
        reduced = states._moments(a[:, None], b[:, None], np.broadcast_to(e1.factor, (t, 1, n, 1)))
        moments = [states._pair_moments(Observable(a[i]), Observable(b[i]), e1, tuple(x[i, 0] for x in reduced))
                   for i in range(t)]
        publics = [{"case1": construct_case1, "case2": construct_case2, "w_mp6": construct_w_mp6}[x] for x in targets]
        stacks = []
        for tol in (Tolerance(), Tolerance(0.0)):
            stacks.append(built := _constructions(targets, moments, tol))
            for i, pairs in enumerate(built):
                for result, construct in zip(pairs, publics):
                    one = _result_or_error(lambda: construct(a[i], b[i], tol))
                    assert _construction_bytes(result) == _construction_bytes(one), (n, t, i, construct)
        return stacks

    rng = trial_rng(24, 0)
    for n in (2, 3, 4, 8, 16, 17, 64):
        targets = ("case1" if n == 2 else "case2", "w_mp6")
        for t in (1, 2, 4, 7):
            a = np.array([hermitian_array(rng, n) for _ in range(t)])
            b = np.array([hermitian_array(rng, n) for _ in range(t)])
            a[0, 0, 1:] = a[0, 1:, 0] = b[0, 0, 1:] = b[0, 1:, 0] = 0.0
            if t > 1:
                b[1] += 1e12 * np.eye(n)
            if t > 2:
                a[2], b[2] = 2.0 * np.eye(n), -3.0 * np.eye(n)
            rows = np.array([haar_unitary(n, rng)[:, :2].T for _ in range(t)])
            rows[-1, 1] += 1e-6 * rows[-1, 0]
            rows[-1, 1] /= np.linalg.norm(rows[-1, 1])
            # The state pass.
            stacked_states = PureState._stack(rows.reshape(-1, n))
            for state, row in zip(stacked_states, rows.reshape(-1, n)):
                one = PureState(row.copy())
                assert [state.amplitudes.tobytes(), state.factor.tobytes(), state.digest] == [
                    one.amplitudes.tobytes(), one.factor.tobytes(), one.digest]
            # The pair checks: each trial's Gram slice, and the errors it raises; then the stacked
            # reduction of the pairs from the moments in psi.
            grams = linalg._grams(rows)
            reduced = states._moments(a[:, None], b[:, None], rows[:, :1, :, None])

            def stacked_inputs(i, psi, phi, gram, tol):
                return relations._mp_reduction(Observable(a[i]), Observable(b[i]), psi, phi, gram,
                                               tuple(x[i, 0] for x in reduced), tol)

            for i, gram in enumerate(grams):
                psi, phi = stacked_states[2 * i: 2 * i + 2]
                assert repr(gram) == repr(linalg._grams(rows[i: i + 1].copy())[0])
                assert gram[0][1] == np.vdot(psi.amplitudes, phi.amplitudes)
                assert gram[1][0] == phi.amplitudes.conj() @ psi.amplitudes
                for tol in (Tolerance(), Tolerance(0.0)):
                    stacked = _result_or_error(lambda: stacked_inputs(i, psi, phi, gram, tol))
                    one = _result_or_error(lambda: relations._mp_inputs(a[i], b[i], psi, phi, tol))
                    assert isinstance(one, tuple) == isinstance(stacked, tuple) == (i == t - 1 and n > 1)
                    assert one == stacked
                    if isinstance(one, tuple):
                        assert one[0] is NotOrthogonal
            # The constructions.
            for built in constructions(a, b, targets):
                for i, pairs in enumerate(built):
                    if i in (0, 2) and n > 2:
                        assert pairs[0].degenerate and pairs[0].phi.amplitudes[1] == 1.0
                    if i == 2:
                        assert isinstance(pairs[1], ZeroDeviation)
    # One case-2 stack at n = 3 holds a degenerate trial (zero observables), then the dyadic tails of
    # test_a_phase_below_the_tie_floor_is_left_unfixed: at e = 50 a kept row whose phase is left unfixed, at
    # e = 40 one turned by -1, so the body's keep mask and its phase mask within the kept rows both differ.
    a, b = np.zeros((3, 3, 3)), np.zeros((3, 3, 3))
    a[1:, 0, 1] = a[1:, 1, 0] = 1.0
    b[1:, 0, 2] = b[1:, 2, 0] = 1.0 + 2.0 ** -np.array([50.0, 40.0])
    for built in constructions(a, b, ("case2", "w_mp6")):
        assert [pairs[0].degenerate for pairs in built] == [True, False, False]
        assert isinstance(built[0][1], ZeroDeviation)
        for i, fixed in ((1, False), (2, True)):
            tail = a[i, 1:, 0] - 1j * b[i, 1:, 0]
            unit = tail / np.linalg.norm(tail)
            assert np.array_equal(built[i][0].phi.amplitudes[1:], unit) != fixed


def _count_moments(monkeypatch) -> list:
    """Count every call of the moments body from here on, through each module's name for it."""
    calls, real = [], states._moments

    def counting(*args):
        calls.append(1)
        return real(*args)

    for module in (states, relations, saturation):
        for attr, obj in list(vars(module).items()):
            if obj is real:
                monkeypatch.setattr(module, attr, counting)
    return calls


def test_a_constructed_pair_handed_to_its_checkers_is_reduced_once(monkeypatch):
    # The pair's own e1 keeps the reduction of (A, B, e1) in its slot, so the checker and the
    # bound handed the same validated A and B read it back: one moments call per construction.
    # A fresh e1 of the same amplitudes reduces again and gives the same results.
    calls, rng = _count_moments(monkeypatch), trial_rng(29, 0)
    for n in (2, 3, 5):
        a, b = Observable(hermitian_array(rng, n)), Observable(hermitian_array(rng, n))
        calls.clear()
        pair = construct_case1(a, b) if n == 2 else construct_case2(a, b)
        check, report = mp3_saturation(a, b, pair.psi, pair.phi, pair.mu), mp3(a, b, pair.psi, pair.phi)
        assert (len(calls), check.saturated, report.report.saturated) == (1, True, True)
        fresh = PureState(pair.psi.amplitudes)
        assert mp3_saturation(a, b, fresh, pair.phi, pair.mu) == check
        assert mp3(a, b, fresh, pair.phi) == report
        assert len(calls) == 2
        calls.clear()
        pair = construct_w_mp6(a, b)
        check = mp6_saturation(a, b, pair.psi, pair.phi, pair.mu)
        assert (len(calls), check.saturated) == (1, True)
        assert mp6_saturation(a, b, PureState(pair.psi.amplitudes), pair.phi, pair.mu) == check


def test_each_construction_owns_its_e1_and_the_cached_e1_holds_no_slot():
    # e1 is cached per dimension and shared by the sweep, so the reduction slot is never on it:
    # each constructed pair gets its own e1 over the cached (frozen) amplitudes, and the sweep's
    # stacked bodies write no slot.
    rng = trial_rng(29, 1)
    a, b = Observable(hermitian_array(rng, 3)), Observable(hermitian_array(rng, 3))
    first, second, third = construct_case2(a, b), construct_case2(a, b), construct_w_mp6(a, b)
    mp3_saturation(a, b, first.psi, first.phi, first.mu)
    run_verification_suite(SampleConfig(3, 2, 7, 3), Tolerance())
    psis = (first.psi, second.psi, third.psi)
    assert len({id(psi) for psi in (*psis, _e1(3))}) == 4
    assert all(psi.amplitudes is _e1(3).amplitudes for psi in psis)
    assert "_reduced" not in vars(_e1(3)) and all("_reduced" in vars(psi) for psi in psis)


class _CountedProducts(np.ndarray):
    """A centred pair that counts the scalar products taken of it: one per witness formed."""

    products = 0

    def __rmul__(self, coefficient):
        type(self).products += 1
        return coefficient * self.view(np.ndarray)


def test_a_saturated_mixed_certificate_forms_and_norms_its_witness_once(monkeypatch):
    # Y = a A_c X + b B_c X is formed and normed once: a mixed certificate's residual is its
    # re-verification's r = 1/2 residual.  A pure certificate, which re-verifies nothing, forms it once too.
    norms, real_norm, rng = [], saturation._norm, trial_rng(29, 2)
    monkeypatch.setattr(saturation, "_norm", lambda x: norms.append(real_norm(x)) or norms[-1])
    cases = [(kind, *plant_saturating_mixed(n, k, 0.7, phase, rng))
             for kind, phase in ((CertificateKind.ROBERTSON_MIXED, math.pi / 2), (CertificateKind.SCHRODINGER, 1.0))
             for n, k in ((2, 1), (4, 2), (8, 3))]
    cases += [(CertificateKind.ROBERTSON_PURE, *plant_saturating_pure(n, 0.7j, rng)) for n in (2, 4)]
    for kind, a, b, state in cases:
        m = pair_moments(a, b, state)
        counted = dataclasses.replace(m, centered_a=m.centered_a.view(_CountedProducts))
        norms.clear()
        _CountedProducts.products = 0
        decide = relations._schrodinger_decision if kind is CertificateKind.SCHRODINGER else relations._robertson_decision
        cert = saturation._certificate(kind, counted, decide(counted, Tolerance()), Tolerance())
        assert (_CountedProducts.products, norms) == (1, [cert.residual]), kind


def test_every_row_the_library_freezes_as_states_is_unit(monkeypatch):
    # PureState._stack takes no state pass, as each of its producers divides its rows by their norms: psi
    # (_unit_rows), the Haar pair (QR columns times unit phases), and a construction's phi (its tail over the
    # tail's norm, phased or not, or e2 where degenerate).  Every row handed to it is unit within INPUT_TOL, so
    # a producer that stops normalising fails here.
    handed, stack = [], states.PureState._stack.__func__
    monkeypatch.setattr(states.PureState, "_stack",
                        classmethod(lambda cls, a: handed.append(np.array(a)) or stack(cls, a)))
    for seed in (7, 1009):
        for n in (1, 2, 3, 8, 64):
            run_verification_suite(SampleConfig(n, min(n, 3), seed, 2 if n == 64 else 5), Tolerance())
            random_pure_state(n, seed)
    # A degenerate case-2 construction (e1 a common eigenvector: phi = e2), and a case-2 phi whose phase was fixed:
    # its element <e1|A - mu B|phi> is real and positive, which the unphased tail's is not.
    assert construct_case2(np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 1.0, 2.0])).degenerate
    rng = trial_rng(382, 0)
    a, b = random_hermitian(3, rng), random_hermitian(3, rng)
    pair = construct_case2(a, b)
    element = ((a.matrix - pair.mu * b.matrix) @ pair.phi.amplitudes)[0]
    assert not pair.degenerate and element.real > 0.0 and abs(element.imag) <= 1e-15 * element.real
    rows = np.concatenate([x.reshape(-1, x.shape[-1]) for x in handed if x.shape[-1] == 3])
    assert any(np.array_equal(row, [0.0, 1.0, 0.0]) for row in rows)
    assert np.isin(rows, pair.phi.amplitudes).all(axis=1).any()
    norms = np.array([np.linalg.norm(row) for x in handed for row in x])
    assert norms.size > 150 and np.abs(norms - 1.0).max() <= linalg.INPUT_TOL


def test_a_phase_below_the_tie_floor_is_left_unfixed():
    # Case 2 at n = 3 with dyadic first-column tails u = (1, 0) and v = (0, 1 + 2^-e): mu = i (a tie), the tail is
    # u - i v and the row conj(u + i v), whose entry with the unit tail is -(2^(1-e) + 2^-2e) / ||tail||, real
    # and negative.  At e = 50 it is nonzero but below TIE_TOL ||row||, so phi is the unit tail as it is; at
    # e = 40 it is above, and phi is turned by -1 so that the entry is real nonnegative.
    for e, fixed in ((50, False), (40, True)):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        b = np.zeros((3, 3))
        b[0, 2] = b[2, 0] = 1.0 + 2.0 ** -e
        u, v = a[1:, 0], b[1:, 0]
        tail, row = u - 1j * v, np.conj(u + 1j * v)
        direction = tail / np.linalg.norm(tail)
        entry = row @ direction
        assert entry.real < 0.0 and (abs(entry) > linalg.TIE_TOL * np.linalg.norm(row)) == fixed
        pair = construct_case2(a, b)
        assert pair.mu == 1j and not pair.degenerate and pair.phi.amplitudes[0] == 0.0
        if fixed:
            np.testing.assert_allclose(pair.phi.amplitudes[1:], -direction, rtol=0, atol=1e-15)
            assert (row @ pair.phi.amplitudes[1:]).real > 0.0
        else:
            np.testing.assert_array_equal(pair.phi.amplitudes[1:], direction)


def test_both_factor_paths_keep_their_factor_and_weights_and_the_matrix_states_values():
    # A factor G whose Gram eigenvalues all clear the cutoff is read through G/||G||_F, with no eigenvector until
    # its factor or weights is read; one with a dependent column reads its support factor, of weights.size its
    # rank.  On both, factor factor^dagger is rho, the factor's columns are orthogonal with squared norms the
    # weights, and the bounds, the zero-product residuals and the power re-check at random coefficients (a loose
    # tolerance keeps the budget out) are the matrix-built state's, to rounding.
    rng, loose = trial_rng(383, 0), Tolerance(100.0)
    for n, k in ((1, 1), (2, 1), (3, 2), (4, 4), (8, 3)):
        g = complex_normal(rng, n, k) @ haar_unitary(k, rng)
        dependent = np.column_stack([g, g[:, :1] * (0.5 - 2.0j)])
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        coeffs = complex_normal(rng, 2, 1)[:, 0]
        for factor_g, full in ((g, True), (dependent, False)):
            state = DensityMatrix.from_factor(factor_g)
            if full:
                assert not {"factor", "weights", "_basis"} & set(vars(state))
                np.testing.assert_allclose(state._root, g / np.linalg.norm(g), rtol=0, atol=1e-15)
            else:
                assert state._root is state.factor and state._basis is None
            assert state.weights.size == k and abs(state.weights.sum() - 1.0) <= 1e-15
            x = state.factor
            np.testing.assert_allclose(x @ x.conj().T, state.matrix, rtol=0, atol=1e-15)
            np.testing.assert_allclose(x.conj().T @ x, np.diag(state.weights), rtol=0, atol=1e-15)
            checked = DensityMatrix(state.matrix)
            for bound in (robertson, schrodinger):
                got, want = bound(a, b, state), bound(a, b, checked)
                np.testing.assert_allclose([got.lhs, got.rhs], [want.lhs, want.rhs], rtol=1e-12, atol=1e-15)
            got, want = (zero_product_characterization(a, b, s) for s in (state, checked))
            np.testing.assert_allclose([got.residual_a, got.residual_b], [want.residual_a, want.residual_b],
                                       rtol=1e-12, atol=1e-15)
            got, want = (pair_moments(a, b, s) for s in (state, checked))
            np.testing.assert_allclose(_verify_r_family(got, *coeffs, relations._zero_deviations(got, loose), loose),
                                       _verify_r_family(want, *coeffs, relations._zero_deviations(want, loose), loose),
                                       rtol=1e-12, atol=1e-15)
    # A saturated mixed certificate on a factor-built state, its columns mixed by a unitary, re-verifies every
    # power and is the matrix-built certificate, to rounding (a phase other than pi/2 saturates Schrodinger only).
    for n, k, phase in ((4, 2, math.pi / 2), (4, 2, 1.0), (8, 3, 1.0)):
        a, b, rho = plant_saturating_mixed(n, k, 0.7, phase, rng)
        state = DensityMatrix.from_factor(rho.factor @ haar_unitary(k, rng))
        assert state._basis is not None
        for check in (robertson_saturation_mixed, schrodinger_saturation)[phase != math.pi / 2:]:
            got, want = check(a, b, state), check(a, b, rho)
            assert got is not None and want is not None and got.r_checked == DEFAULT_R_LIST
            assert got.theta == pytest.approx(want.theta, abs=1e-12)
            assert got.phi == pytest.approx(want.phi, abs=1e-12)
            np.testing.assert_allclose(got.r_residuals, want.r_residuals, rtol=0, atol=1e-13)
