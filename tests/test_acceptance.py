"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import math
import time

import numpy as np

from qubounds import (
    DensityMatrix,
    construct_case1,
    construct_case2,
    construct_w_mp6,
    expectation,
    haar_unitary,
    mp3,
    mp6,
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
    zero_product_characterization,
    zero_sum_characterization,
    ZeroWitness,
)
from qubounds.goldens import (
    block_pair_4x4,
    golden_block_mixed,
    golden_qubit_chain_grid,
    golden_qubit_north_pole,
    golden_qubit_south_pole,
)
from qubounds.sampling import bloch_state
from qubounds.states import PureState
from helpers import SIGMA_X, SIGMA_Y, gram_pair, hermitian_array, plant_saturating_mixed


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _best_time(fn, repeats: int = 10) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_qubit_pole_goldens():
    north = golden_qubit_north_pole()
    south = golden_qubit_south_pole()
    t_north = _best_time(lambda: robertson_saturation_pure(SIGMA_X, SIGMA_Y, bloch_state(0.0, 0.0)))
    t_south = _best_time(lambda: robertson_saturation_pure(SIGMA_X, SIGMA_Y, bloch_state(math.pi, 0.0)))
    ok = (
        north.values["theta_error"] <= 1e-9
        and south.values["theta_error"] <= 1e-9
        and abs(north.values["slack"]) <= 1e-12
        and abs(south.values["slack"]) <= 1e-12
        and t_north < 1e-3
        and t_south < 1e-3
    )
    _verdict(
        1, ok,
        f"theta errors {north.values['theta_error']:.2e}/{south.values['theta_error']:.2e}, "
        f"runtimes {t_north * 1e3:.3f}/{t_south * 1e3:.3f} ms",
    )


def test_criterion_2_block_mixed_golden():
    result = golden_block_mixed()
    v = result.values
    ok = (
        abs(v["trace_product"] - 1.0) <= 1e-12
        and abs(v["commutator_trace_abs"] / 2.0 - 1.0) <= 1e-12
        and v["squared_equality_gap"] <= 1e-12
        and v["theta_error"] <= 1e-9
        and max(v["r_residuals"]) <= 1e-9
    )
    _verdict(
        2, ok,
        f"trace product {v['trace_product']:.15f}, theta error {v['theta_error']:.2e}, "
        f"max power residual {max(v['r_residuals']):.2e}",
    )


def test_criterion_3_chain_equality_grid():
    result = golden_qubit_chain_grid()
    v = result.values
    ok = (
        v["max_step1_residual"] <= 1e-12
        and v["max_step1_slack"] <= 1e-12
        and v["max_solution_step2_residual"] <= 1e-10
        and v["min_far_step2_residual"] > 1e-6
        and v["max_mu_ratio_error"] <= 1e-9
    )
    _verdict(
        3, ok,
        f"step1 max {v['max_step1_residual']:.2e}, solution step2 max "
        f"{v['max_solution_step2_residual']:.2e}, far step2 min {v['min_far_step2_residual']:.2e}, "
        f"mu error {v['max_mu_ratio_error']:.2e}",
    )


def test_criterion_4_property_suite():
    start = time.perf_counter()
    trials_per_dim = 1000
    worst = math.inf
    checked = 0
    for n in (2, 3, 4, 8):
        for k in range(trials_per_dim):
            rng = trial_rng(400 + n, k)
            obs_a = random_hermitian(n, rng)
            obs_b = random_hermitian(n, rng)
            psi = random_pure_state(n, rng)
            rho = random_density(n, n, rng)
            frame = haar_unitary(n, rng)
            pair = PureState(frame[:, 0]), PureState(frame[:, 1])

            reports = [
                robertson(obs_a, obs_b, psi),
                robertson(obs_a, obs_b, rho),
                mp3(obs_a, obs_b, *pair).report,
                mp6(obs_a, obs_b, *pair).reformulated,
            ]
            for state in (psi, rho):
                s_rep = schrodinger(obs_a, obs_b, state)
                r_rep = robertson(obs_a, obs_b, state)
                reports.append(s_rep)
                assert s_rep.rhs >= r_rep.rhs**2 - 1e-10 * max(1.0, s_rep.rhs)
            for report in reports:
                floor = -(1e-12 + 1e-9 * max(1.0, report.lhs, report.rhs))
                assert report.slack >= floor
                worst = min(worst, report.slack)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _verdict(4, ok, f"{checked} reports, min slack {worst:.3e}, runtime {elapsed:.1f} s")


def test_criterion_5_constructor_suite():
    pairs_per_dim = 200
    findings = []
    worst_mp3 = 0.0
    worst_mp6 = 0.0
    for n in (2, 4, 8):
        for k in range(pairs_per_dim):
            rng = trial_rng(500 + n, k)
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            if n == 2:
                sum_pair = construct_case1(a, b)
            else:
                sum_pair = construct_case2(a, b)
                if abs(sum_pair.achieved_slack) > 1e-8:
                    findings.append(
                        {"n": n, "trial": k, "gap": sum_pair.achieved_slack}
                    )
            worst_mp3 = max(worst_mp3, abs(sum_pair.achieved_slack))
            prod_pair = construct_w_mp6(a, b)
            worst_mp6 = max(worst_mp6, abs(prod_pair.achieved_slack))
    for finding in findings:
        print(f"criterion 5 finding: unsaturated sum-bound construction {finding}")
    ok = not findings and worst_mp3 <= 1e-8 and worst_mp6 <= 1e-8
    _verdict(
        5, ok,
        f"600 pairs per target, worst relative gaps mp3 {worst_mp3:.2e}, mp6 {worst_mp6:.2e}, "
        f"{len(findings)} findings",
    )


def test_criterion_6_qubit_purity_sweep():
    hits = 0
    for k in range(500):
        rng = trial_rng(600, k)
        obs_a = random_hermitian(2, rng)
        obs_b = random_hermitian(2, rng)
        for m in (obs_a.matrix, obs_b.matrix):
            assert np.linalg.norm(m - (np.trace(m) / 2) * np.eye(2)) > 1e-6
        rho = random_density(2, 2, rng)
        if robertson_saturation_mixed(obs_a, obs_b, rho) is not None:
            hits += 1
    _verdict(6, hits == 0, f"500 rank-2 qubit states, {hits} spurious certificates")


def _block_scalar_instance(rng, n, k):
    alpha, beta = rng.uniform(-3.0, 3.0, size=2)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    a[:k, :k] = alpha * np.eye(k)
    b[:k, :k] = beta * np.eye(k)
    a[k:, k:] = hermitian_array(rng, n - k)
    b[k:, k:] = hermitian_array(rng, n - k)
    weights = rng.uniform(0.2, 1.0, size=k)
    weights = weights / weights.sum()
    rho = np.zeros((n, n), dtype=complex)
    rho[:k, :k] = np.diag(weights)
    u = haar_unitary(n, rng)
    return (
        u @ a @ u.conj().T,
        u @ b @ u.conj().T,
        DensityMatrix(u @ rho @ u.conj().T),
    )


def test_criterion_7_zero_deviation_equivalence():
    disagreements = 0
    checked = 0
    for k in range(500):
        rng = trial_rng(700, k)
        n = int(rng.integers(3, 6))
        if k % 2 == 0:
            rank = int(rng.integers(1, n - 1))
            a, b, rho = _block_scalar_instance(rng, n, rank)
            expect_product, expect_sum = True, True
        else:
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            rho = random_density(n, n, rng)
            expect_product, expect_sum = False, False
        product = zero_product_characterization(a, b, rho)
        sum_zero = zero_sum_characterization(a, b, rho)
        dev_a, dev_b = stddev(a, rho), stddev(b, rho)
        delta_product = dev_a * dev_b <= 1e-9
        delta_sum = dev_a**2 + dev_b**2 <= 1e-9
        if product.product_is_zero != expect_product or sum_zero != expect_sum:
            disagreements += 1
        if product.product_is_zero != delta_product or sum_zero != delta_sum:
            disagreements += 1
        if expect_product and product.witness is not ZeroWitness.BOTH:
            disagreements += 1
        checked += 1
    _verdict(7, disagreements == 0, f"{checked} instances, {disagreements} disagreements")


def test_criterion_8_mixed_pure_reduction():
    worst = 0.0
    for k in range(500):
        rng = trial_rng(800, k)
        n = (2, 3, 4, 8)[k % 4]
        obs_a = random_hermitian(n, rng)
        obs_b = random_hermitian(n, rng)
        psi = random_pure_state(n, rng)
        projector = DensityMatrix.from_pure(psi)
        quantities = []
        for obs in (obs_a, obs_b):
            quantities.append((expectation(obs, psi), expectation(obs, projector)))
            quantities.append((stddev(obs, psi), stddev(obs, projector)))
        rp, rm = robertson(obs_a, obs_b, psi), robertson(obs_a, obs_b, projector)
        sp, sm = schrodinger(obs_a, obs_b, psi), schrodinger(obs_a, obs_b, projector)
        quantities += [(rp.lhs, rm.lhs), (rp.rhs, rm.rhs), (sp.lhs, sm.lhs), (sp.rhs, sm.rhs)]
        gp, gm = gram_pair(obs_a, obs_b, psi), gram_pair(obs_a, obs_b, projector)
        quantities += list(zip(np.abs(gp.c1.ravel()), np.abs(gm.c1.ravel())))
        for pure_value, mixed_value in quantities:
            worst = max(worst, abs(pure_value - mixed_value))
    _verdict(8, worst <= 1e-12, f"500 states, worst pure/mixed gap {worst:.3e}")


def test_criterion_9_power_independence_on_saturating_instances():
    instances = 0
    worst = 0.0

    a, b, rho = block_pair_4x4()
    cert = robertson_saturation_mixed(a, b, rho)
    assert cert is not None
    instances += 1
    worst = max(worst, max(cert.r_residuals))

    for k in range(30):
        rng = trial_rng(900, k)
        n = (3, 4, 6)[k % 3]
        rank = (1, 2, 3)[k % 3]
        theta = rng.uniform(0.2, math.pi / 2 - 0.2)
        phi = rng.uniform(0.3, 2 * math.pi - 0.3)
        a, b, rho = plant_saturating_mixed(n, rank, theta, math.pi / 2, rng)
        cert = robertson_saturation_mixed(a, b, rho)
        assert cert is not None
        instances += 1
        worst = max(worst, max(cert.r_residuals))
        a, b, rho = plant_saturating_mixed(n, rank, theta, phi, rng)
        cert = schrodinger_saturation(a, b, rho)
        assert cert is not None
        instances += 1
        worst = max(worst, max(cert.r_residuals))

    # Constructed sum/product pairs rarely saturate the product bound in the
    # projector state, but whenever one does the power family must close too.
    for k in range(20):
        rng = trial_rng(901, k)
        for n in (2, 4):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            pair = construct_case1(a, b) if n == 2 else construct_case2(a, b)
            projector = DensityMatrix.from_pure(pair.psi)
            cert = robertson_saturation_mixed(a, b, projector)
            if cert is not None:
                instances += 1
                worst = max(worst, max(cert.r_residuals))

    ok = worst <= 1e-8 and instances >= 61
    _verdict(9, ok, f"{instances} saturating mixed instances, worst power residual {worst:.3e}")
