import cmath
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from qubounds import (
    CertificateKind,
    DensityMatrix,
    DimensionMismatch,
    HypothesisViolated,
    NotOrthogonal,
    NotOrthonormal,
    Observable,
    PureState,
    QuboundsError,
    RIndependenceViolation,
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
    schrodinger,
    schrodinger_saturation,
    stddev,
    trial_rng,
    unitary_completion,
    zero_product_characterization,
    zero_sum_characterization,
)
from qubounds import relations, saturation, states
from qubounds.linalg import ROUNDING_TOL, complex_dependence_detail, phase_dependence_detail
from qubounds.saturation import (CONSTRUCTION_TOL, DEFAULT_R_LIST, _constructed_pair,
                                 _e1_reduction, _verify_r_family)
from helpers import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    block_pair_4x4,
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
                _verify_r_family(m, math.cos(cert.theta), coeff_b, DEFAULT_R_LIST, Tolerance())


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
    # c = <psi|A|phi> and d = <psi|B|phi> are matrix elements: no QR completion,
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
    with pytest.raises(ZeroDeviation):
        construct_w_mp6(SIGMA_Z, SIGMA_X)


def test_construct_w_mp6_rejects_dimension_one():
    with pytest.raises(DimensionMismatch):
        construct_w_mp6(np.array([[1.0]]), np.array([[2.0]]))


def test_construction_gap_is_scale_free():
    # The gap is the target report's slack over the scale its flag uses, so a pair
    # that does not close its bound reads one gap at every common scale of (A, B).
    # Over max(1, |lhs|, |rhs|) it shrank as c^2 below unit scale and passed CONSTRUCTION_TOL.
    rng = trial_rng(337, 0)
    e2_tail = np.eye(1, 3, dtype=complex)[0]
    for _ in range(10):
        a, b = hermitian_array(rng, 4), hermitian_array(rng, 4)
        for target, construct in (("mp3", construct_case2), ("mp6", construct_w_mp6)):
            wrong = []
            for c in (1e-12, 1e-6, 1e-4, 1.0, 1e8):
                # phi = e2 instead of the saturating direction, through the same core.
                m, mu = _e1_reduction(c * a, c * b, Tolerance())
                wrong.append(_constructed_pair(m, mu, e2_tail, target, Tolerance()).achieved_slack)
                assert abs(construct(c * a, c * b).achieved_slack) <= 1e-12
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
        yield a.matrix, b.matrix, PureState(rho.spectrum.eigenvectors[:, 0])


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
    # witness is exactly (a, b) = (1, 0), whose residual is dev(A) itself.  Against the 10x band's
    # sqrt(10 eps) dev(A) no witness could pass; the zero rule carried to r bounds the residual at
    # each r by dev(A) ||w^r|| / sqrt(w_max), which no valid input exceeds.
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
                assert cert.theta == 0.0 and cert.residual == m.dev_a
                for r, residual in zip(cert.r_checked, cert.r_residuals):
                    assert residual <= (1 + 1e-12) * scale * np.linalg.norm(weights ** r)
    # The zero rule decides every draw below delta = 1e-9.
    assert zero_sides >= 30


def test_near_eigenstates_keep_their_certificates_on_pure_states():
    _check_near_eigenstate_certificates(3, 0, 376)


def test_near_eigenstates_keep_their_certificates_on_rank_k_states():
    _check_near_eigenstate_certificates(4, 2, 377)
    _check_near_eigenstate_certificates(5, 3, 378)


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
    assert relations._zero_deviations(m, tol) == (True, False)
    _verify_r_family(m, 1.0, 0.0, DEFAULT_R_LIST, tol)
    w = np.sort(m.state.weights)[::-1]
    z = relations._zero_budget(m.a, tol)
    column = complex_normal(rng, 4, 1)[:, 0]
    inflated = np.zeros_like(m.centered_a)
    inflated[:, np.argmax(m.state.weights)] = (z * (1 / math.sqrt(w[0]) + math.sqrt(1 + (w[1] / w[0]) ** 6)) / 2
                                               * column / np.linalg.norm(column))
    bad = dataclasses.replace(m, centered_a=inflated)
    _verify_r_family(bad, 1.0, 0.0, (0.5,), tol)
    with pytest.raises(RIndependenceViolation):
        _verify_r_family(bad, 1.0, 0.0, DEFAULT_R_LIST, tol)


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
    m, coeff_a, coeff_b, rs, _ = args
    oracle = per_power_r_family(*args)
    assert rs[0] == 0.5 and residuals[0] == oracle[0]
    w_max = m.state.weights.max()
    for r, got, want in zip(rs, residuals, oracle):
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
            np.testing.assert_allclose(_verify_r_family(args[0], *coeffs, DEFAULT_R_LIST, loose),
                                       per_power_r_family(args[0], *coeffs, DEFAULT_R_LIST, loose),
                                       rtol=1e-13, atol=0)
            certificates += 1
    assert certificates >= 60
