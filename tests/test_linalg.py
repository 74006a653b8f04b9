import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubounds import (
    DimensionMismatch,
    InvalidInput,
    NonHermitianInput,
    NotOrthonormal,
    NotPositiveSemidefinite,
    Observable,
    Tolerance,
    complex_dependence,
    hermitian_eig,
    phase_dependence,
    psd_power,
    unitary_completion,
)
from qubounds.linalg import (_eigh_descending, _least_direction, _norm, _psd_support, _require_isometry,
                             _require_orthonormal, as_complex_matrix, complex_dependence_detail,
                             phase_dependence_detail, require_hermitian)
from helpers import (SIGMA_X, SIGMA_Y, complex_normal, hermitian_array, svd_complex_dependence_detail,
                     svd_phase_dependence_detail)


def test_tolerance_is_one_finite_nonnegative_eps():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps"]
    assert Tolerance().eps == 1e-9 and Tolerance(0.0).eps == 0.0
    with pytest.raises(ValueError):
        Tolerance(-1.0)
    # NaN would disable every comparison and inf would pass every one.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Tolerance(bad)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_norm_is_np_linalg_norm_bit_for_bit():
    # _norm is np.linalg.norm's own arithmetic without its wrapper, so the bits agree on every
    # layout and scale: zeros, subnormal entries and squares, and squares that overflow to inf.
    rng = np.random.default_rng(2024)
    shapes = ((6,), (6, 1), (6, 3), (5, 5))
    checked = 0
    for scale in (0.0, 1e-310, 1e-160, 1.0, 3.7e5, 1e160, 1e300):
        for shape in shapes:
            z = scale * complex_normal(rng, math.prod(shape), 1).reshape(shape)
            for x in (z, z.real, z.real.copy()):
                views = [x]
                if x.ndim == 2:
                    views += [np.asfortranarray(x), x.T, x[:, -1], x[::2], x[:, ::-1]]
                for v in views:
                    assert _norm(v).hex() == float(np.linalg.norm(v)).hex()
                    checked += 1
        if scale == 1e300:
            assert _norm(z) == math.inf
    assert checked > 200


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(w, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)


def test_hermitian_eig_sigma_x():
    w, v = hermitian_eig(SIGMA_X)
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert abs(plus.conj() @ v[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(minus.conj() @ v[:, 1]) == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        h = hermitian_array(rng, 8)
        w, v = hermitian_eig(h)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-12 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(8)) <= 1e-12
        assert np.all(np.diff(w) <= 1e-14)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(NonHermitianInput):
        hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_a_one_by_one_hermitian_stack_is_its_own_eigendecomposition_bit_for_bit():
    # _eigh_descending and the eigvalsh of DensityMatrix._from_factors call LAPACK on 1 x 1 slices too, with no
    # branch of their own: both rest on eigh giving (Re a, [[1]]) and eigvalsh giving Re a, bit for bit.  The
    # diagonals carry an imaginary residue (as a BLAS Gram product leaves), signed zeros, subnormal values and
    # values near overflow (up to max / 2 where _eigh_descending's symmetrisation doubles the entry).  That
    # symmetrisation divides by 2 in complex arithmetic, which turns -0 into +0, as on every diagonal for n > 1.
    rng = np.random.default_rng(1)
    huge = np.finfo(float).max
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, np.finfo(float).tiny, 1.0, -0.75, 1e154, huge / 2,
                        -huge / 2])
    checked = negative_zeros = 0
    for t in range(36):
        size = 1 + t % 6
        re = np.where(rng.random(size) < 0.5, rng.choice(special, size), rng.standard_normal(size) * 2.0 ** t)
        im = rng.choice(np.concatenate((special, rng.standard_normal(3) * 1e-17)), size)
        a = np.empty((size, 1, 1), dtype=complex)
        a.real.flat, a.imag.flat = re, im  # a sum with 1j * im could drop the sign of a zero
        ones = np.ones((size, 1, 1), dtype=complex).tobytes()
        w, v = np.linalg.eigh(a)
        assert (w.tobytes(), v.tobytes()) == (a.real[..., 0].tobytes(), ones)
        assert np.linalg.eigvalsh(a).tobytes() == a.real[..., 0].tobytes()
        w, v = _eigh_descending(a)
        assert (w.tobytes(), v.tobytes()) == ((a.real[..., 0] + 0.0).tobytes(), ones)
        checked += size
        negative_zeros += int(np.signbit(a.real[np.where(a.real == 0.0)]).sum())
    assert checked > 100 and negative_zeros > 0
    edge = np.empty((3, 1, 1), dtype=complex)
    edge.real.flat, edge.imag.flat = (huge, -huge, -0.0), (-huge, 1e-17, -0.0)
    assert np.linalg.eigvalsh(edge).tobytes() == edge.real[..., 0].tobytes()


def test_psd_power_diagonal_square_root():
    np.testing.assert_allclose(
        psd_power(np.diag([4.0, 1.0, 0.0]), 0.5), np.diag([2.0, 1.0, 0.0]), atol=1e-14
    )


def test_psd_power_projector_fixed_point():
    v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
    proj = np.outer(v, v.conj())
    for r in (0.5, 1.0, 2.0, 3.0):
        np.testing.assert_allclose(psd_power(proj, r), proj, atol=1e-13)


def test_psd_power_square_matches_multiplication():
    rng = np.random.default_rng(3)
    g = complex_normal(rng, 4, 4)
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    np.testing.assert_allclose(psd_power(rho, 2.0), rho @ rho, atol=1e-12)


def test_psd_power_identity_exponent():
    rng = np.random.default_rng(4)
    g = complex_normal(rng, 5, 5)
    p = g @ g.conj().T
    np.testing.assert_allclose(psd_power(p, 1.0), p, atol=1e-12 * np.linalg.norm(p))


def test_psd_power_round_trip_on_support():
    rng = np.random.default_rng(5)
    for rank in (5, 3):
        g = complex_normal(rng, 5, rank)
        p = g @ g.conj().T
        for r in (0.5, 2.0, 3.0):
            back = psd_power(psd_power(p, r), 1.0 / r)
            assert np.linalg.norm(back - p) <= 1e-10 * max(1.0, np.linalg.norm(p))


def test_psd_power_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_a_support_drops_an_eigenvalue_at_the_cutoff_and_keeps_one_above_it():
    # Eigenvalues 1e10 and 1, exact floats: ||w|| is 1e10 and the cutoff INPUT_TOL ||w|| is 1 exactly, so the
    # eigenvalue 1 sits at the cutoff and is dropped; 1 + 2^-20 is above it and kept.
    for low, kept in ((1.0, [1e10]), (1.0 + 2.0**-20, [1e10, 1.0 + 2.0**-20])):
        assert _psd_support(np.diag([1e10, low]).astype(complex))[0].tolist() == kept
        assert np.count_nonzero(psd_power(np.diag([1e10, low]), 1.0)) == len(kept)


def test_psd_power_rejects_an_eigenvalue_only_below_its_floor():
    # diag(1, -d) has sum |lambda| = 1 + d, so its floor -INPUT_TOL (1 + d) is about -1e-10: d = 2^-34 (5.8e-11)
    # passes as rounding noise and is dropped, while d = 2^-33 (1.2e-10) and d = 2^-29 (1.9e-9) raise.
    assert psd_power(np.diag([1.0, -2.0**-34]), 1.0).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    for d in (2.0**-33, 2.0**-29):
        with pytest.raises(NotPositiveSemidefinite):
            psd_power(np.diag([1.0, -d]), 1.0)


def test_a_matrix_is_hermitian_up_to_and_at_its_budget():
    # ||m - m^dagger||_F is compared with INPUT_TOL ||m||_F, the bound included: the zero matrix has both zero and is
    # Hermitian.  [[1, t], [0, 1]] deviates by sqrt(2) t against the budget INPUT_TOL sqrt(2 + t^2), and
    # INPUT_TOL = 1e-10 lies between 2^-34 and 2^-33: t = 2^-34 passes and t = 2^-33 does not.
    for n in (1, 3):
        assert require_hermitian(np.zeros((n, n)))[1] == 0.0
    require_hermitian(np.array([[1.0, 2.0**-34], [0.0, 1.0]]))
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[1.0, 2.0**-33], [0.0, 1.0]]))


def test_the_orthonormal_budget_grows_with_the_square_root_of_the_column_count():
    # Under Tolerance(0) the budget is the rounding floor ROUNDING_TOL sqrt(k), 1.41e-13 for two columns: a
    # squared norm off 1 by 2^-46 (1.4e-14) or 2^-43 (1.1e-13) passes, and one off by 2^-42 (2.3e-13) does not.
    for d in (2.0**-46, 2.0**-43):
        assert _require_orthonormal([[1.0 + 0j, 0j], [0j, 1.0 + d + 0j]], Tolerance(0.0)) == d
    with pytest.raises(NotOrthonormal):
        _require_orthonormal([[1.0 + 0j, 0j], [0j, 1.0 + 2.0**-42 + 0j]], Tolerance(0.0))


def test_psd_power_rejects_a_power_that_is_not_positive():
    for r in (0.0, -0.5):
        with pytest.raises(ValueError, match="power must be positive"):
            psd_power(np.eye(2) / 2.0, r)


def test_unitary_completion_single_basis_vector():
    u = unitary_completion([np.array([1.0, 0.0, 0.0])])
    assert u.shape == (3, 3)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    np.testing.assert_array_equal(u[:, 0], np.array([1.0, 0.0, 0.0], dtype=complex))


def test_unitary_completion_complex_column():
    col = np.array([1.0, 1.0j]) / np.sqrt(2)
    u = unitary_completion([col])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    np.testing.assert_array_equal(u[:, 0], col)


def test_unitary_completion_random_pair():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(complex_normal(rng, 4, 2))
    u = unitary_completion([q[:, 0], q[:, 1]])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    np.testing.assert_array_equal(u[:, 0], q[:, 0])
    np.testing.assert_array_equal(u[:, 1], q[:, 1])


def test_unitary_completion_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        unitary_completion([np.array([1.0, 0.0]), np.array([1.0, 1e-3])])
    with pytest.raises(DimensionMismatch):
        unitary_completion([np.ones(2), np.ones(3)])
    with pytest.raises(DimensionMismatch):
        unitary_completion([np.array([1.0]), np.array([1.0])], Tolerance(10.0 + 1e-9))


def test_zero_budget_accepts_an_exactly_orthonormal_pair():
    # A Haar pair (verify's n=2, seed 7, trial 16 at artifact 0.3.0) with inner
    # products of exactly 1, 1 and 0, but a BLAS product basis^dagger basis of it
    # is not exactly Hermitian: the Gram test must not read that rounding as a deviation.
    pair = np.array([[0.37154742289141574 - 0.47294590659916613j, -0.5239067670410493 + 0.6031553543013906j],
                     [0.7361292912414066 + 0.3104647299618183j, 0.5419749018171939 + 0.2607460907212277j]])
    psi, phi = pair.T
    assert (np.vdot(psi, psi), np.vdot(phi, phi), np.vdot(psi, phi)) == (1.0, 1.0, 0.0)
    assert _require_isometry(pair, Tolerance(0.0)) is pair
    np.testing.assert_array_equal(unitary_completion([psi, phi], Tolerance(0.0))[:, :2], pair)


def test_unitary_completion_rejects_non_finite_columns():
    # A NaN Gram deviation compares False against every budget.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            unitary_completion([np.array([bad, 0.0, 0.0])])
        with pytest.raises(ValueError):
            unitary_completion([np.array([1.0, 0.0, 0.0]), np.array([0.0, bad, 0.0])])


def test_dependence_detectors_reject_non_finite_entries():
    for bad in (np.nan, np.inf):
        for x, y in (([bad, 1.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, bad])):
            with pytest.raises(ValueError):
                phase_dependence(np.array(x), np.array(y))
            with pytest.raises(ValueError):
                complex_dependence(np.array([x]), np.array([y]))


def test_non_finite_entries_are_invalid_input():
    # Bad input data is a typed QuboundsError that is still the ValueError it was.
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInput, match="^matrix contains non-finite entries$") as info:
            as_complex_matrix([[1.0, bad]])
        assert isinstance(info.value, ValueError)


def test_a_non_finite_norm_is_invalid_input():
    # Finite entries whose Frobenius norm overflows, at the entry check that reads the norm: no
    # overflow warning comes before the error.
    with pytest.raises(InvalidInput, match="^matrix has a non-finite Frobenius norm$") as info:
        require_hermitian(np.full((2, 2), 1e308 + 0j))
    assert isinstance(info.value, ValueError)


def test_dependence_detectors_type_non_finite_entries_as_invalid_input():
    # A vector pair reaches the detectors' own scan; a matrix operand is scanned where it enters.
    with pytest.raises(InvalidInput, match="^x or y contains non-finite entries$"):
        phase_dependence(np.array([np.nan, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput, match="^x contains non-finite entries$"):
        complex_dependence(np.array([[np.nan, 1.0]]), np.array([[1.0, 0.0]]))
    # Finite entries whose modulus overflows are named as that, and no overflow warning comes first.
    with pytest.raises(InvalidInput, match="^x or y has an entry whose modulus overflows$"):
        phase_dependence([1.5e308 + 1.5e308j, 0], [1, 0])
    with pytest.raises(InvalidInput, match="^x or y has an entry whose modulus overflows$"):
        complex_dependence([[1.0, 0.0]], [[0.0, -1.5e308 + 1.5e308j]])


def test_dependence_detectors_reject_operands_of_different_shapes():
    with pytest.raises(DimensionMismatch):
        phase_dependence(np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        complex_dependence(np.ones((2, 1)), np.ones((3, 1)))


def test_phase_dependence_zero_x_gives_zero_angle():
    theta = phase_dependence(np.zeros(2), np.array([0.0, 1.0]))
    assert theta == pytest.approx(0.0)
    # Both zero: the convention is also zero.
    assert phase_dependence(np.zeros(2), np.zeros(2)) == pytest.approx(0.0)


def test_phase_dependence_pauli_golden():
    x = SIGMA_X @ np.array([1.0, 0.0])
    y = SIGMA_Y @ np.array([1.0, 0.0])
    assert phase_dependence(x, y) == pytest.approx(math.pi / 4, abs=1e-12)


def test_phase_dependence_independent_vectors():
    assert phase_dependence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) is None


def test_phase_dependence_residual_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = complex_normal(rng, 3, 1).ravel()
        theta0 = rng.uniform(0.05, math.pi / 2 - 0.05)
        y = 1j / math.tan(theta0) * x
        theta = phase_dependence(x, y)
        assert theta is not None
        residual = np.linalg.norm(math.cos(theta) * x + 1j * math.sin(theta) * y)
        scale = max(1.0, np.linalg.norm(x), np.linalg.norm(y))
        assert residual <= 1e-9 * scale
        # Symmetric existence with swapped arguments.
        theta_swapped = phase_dependence(y, x)
        assert theta_swapped is not None
        residual_swapped = np.linalg.norm(
            math.cos(theta_swapped) * y + 1j * math.sin(theta_swapped) * x
        )
        assert residual_swapped <= 1e-9 * scale


def test_complex_dependence_proportional_matrices():
    rng = np.random.default_rng(9)
    x = complex_normal(rng, 3, 3)
    y = (2.0 + 1.0j) * x
    angles = complex_dependence(x, y)
    assert angles is not None
    theta, phi = angles
    combo = math.cos(theta) * x + np.exp(1j * phi) * math.sin(theta) * y
    assert np.linalg.norm(combo) <= 1e-9 * max(1.0, np.linalg.norm(y))


def test_complex_dependence_independent_matrices():
    assert complex_dependence(SIGMA_X, SIGMA_Y) is None


def test_a_dependence_detector_compares_its_squared_residual_with_eps_times_the_size():
    # x = e1 and y = 2^-k e2: the least combination is y alone, an exact witness, so the residual is 2^-k against
    # the size ||x||^2 + ||y||^2 = 1 + 2^-2k.  At eps = 1e-9, 2^-30 / (1 + 2^-30) lies below eps, and
    # 2^-28 / (1 + 2^-28) above it but below 10 eps: each detector finds x and y dependent at k = 15 only.
    for k, dependent in ((15, True), (14, False)):
        x, y = np.array([[1.0, 0.0]]), np.array([[0.0, 2.0**-k]])
        assert phase_dependence_detail(x, y) == (math.pi / 2, 2.0**-k)
        assert complex_dependence_detail(x, y) == ((math.pi / 2, 0.0), 2.0**-k)
        assert phase_dependence(x, y) == (math.pi / 2 if dependent else None)
        assert complex_dependence(x, y) == ((math.pi / 2, 0.0) if dependent else None)
    # The budget is included: for y = -x, cos(pi/4) x + sin(pi/4) y is exactly zero, which even eps = 0 admits.
    x, y = np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])
    assert complex_dependence_detail(x, y)[1] == 0.0
    assert complex_dependence(x, y, Tolerance(0.0)) == pytest.approx((math.pi / 4, 0.0))


def test_complex_dependence_zero_operands():
    # A vanishing second operand forces cos(theta) = 0.
    angles = complex_dependence(SIGMA_X, np.zeros((2, 2)))
    assert angles is not None
    assert angles[0] == pytest.approx(math.pi / 2)
    # A vanishing first operand forces sin(theta) = 0.
    angles = complex_dependence(np.zeros((2, 2)), SIGMA_X)
    assert angles == (0.0, 0.0)


def test_input_checks_hold_at_every_scale():
    # Each input check compares against the input's own size, so no scale
    # switches it off.
    for k in range(-100, 101):
        c = 10.0 ** k
        with pytest.raises(NonHermitianInput):
            Observable(c * np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotPositiveSemidefinite):
            psd_power(-c * np.eye(2), 0.5)


def test_dependence_detectors_decide_at_every_scale():
    # The squared residual is compared with tol.eps (||x||^2 + ||y||^2):
    # random pairs stay independent and planted pairs dependent at every common scale.
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, y = complex_normal(rng, 4, 1).ravel(), complex_normal(rng, 4, 1).ravel()
        xm, ym = complex_normal(rng, 3, 3), complex_normal(rng, 3, 3)
        cot = 1.0 / math.tan(rng.uniform(0.1, 1.4))
        ratio = complex(*rng.uniform(-2.0, 2.0, 2))
        for k in range(-12, 9):
            c = 10.0 ** k
            assert phase_dependence(c * x, c * y) is None
            assert complex_dependence(c * xm, c * ym) is None
            assert phase_dependence(c * x, c * 1j * cot * x) is not None
            assert complex_dependence(c * xm, c * ratio * xm) is not None


def test_dependence_detectors_are_exact_under_power_of_two_scales():
    # The operands are scaled by a power of two before their Gram form is read, so
    # no square overflows or underflows: 2^k (x, y) gives the same angles, the
    # residual times 2^k, and the same decision, far beyond where ||x||^2 leaves the floats.
    rng = np.random.default_rng(13)
    x, xm = complex_normal(rng, 4, 1).ravel(), complex_normal(rng, 3, 3)
    for y, ym in ((complex_normal(rng, 4, 1).ravel(), complex_normal(rng, 3, 3)), (0.4j * x, (1 - 2j) * xm)):
        theta, residual = phase_dependence_detail(x, y)
        angles, residual_m = complex_dependence_detail(xm, ym)
        for k in (-600, -300, 300, 600):
            c = 2.0**k
            assert phase_dependence_detail(c * x, c * y) == (theta, c * residual)
            assert complex_dependence_detail(c * xm, c * ym) == (angles, c * residual_m)
            assert phase_dependence(c * x, c * y) == phase_dependence(x, y)
            assert complex_dependence(c * xm, c * ym) == complex_dependence(xm, ym)


def test_least_direction_conventions():
    # c >= 0, s >= 0 where c = 0, no negative zero, and (1, 0) where every direction ties.
    assert _least_direction(0.0, 0.0, 0.0) == (1.0, 0.0)
    assert _least_direction(2.0, 0.0, 2.0) == (1.0, 0.0)
    assert _least_direction(2.0, 0.0, 0.0) == (0.0, 1.0)
    assert _least_direction(0.0, 0.0, 2.0) == (1.0, 0.0)
    c, s = _least_direction(1.0, 1.0, 1.0)
    assert c > 0 > s and c == pytest.approx(-s)
    for p, q, r in ((1.0, -1e-20, 1e-40), (1e-40, 1e-20, 1.0)):
        # Each coefficient keeps its relative accuracy, however small.
        c, s = _least_direction(p, q, r)
        assert min(c, abs(s)) == pytest.approx(1e-20, rel=1e-15)


def test_complex_dependence_of_single_entries():
    # A 1 x 1 pair is always dependent.  The thin SVD of its 1 x 2 stack has one
    # singular value, the largest, which the SVD detector took for the minimum.
    (theta, phi), residual = complex_dependence_detail(np.array([[1.0]]), np.array([[2.0j]]))
    assert residual <= 1e-16
    assert math.tan(theta) == pytest.approx(0.5) and phi == pytest.approx(math.pi / 2)
    assert complex_dependence(np.array([[1.0]]), np.array([[2.0j]])) == (theta, phi)


@st.composite
def dependence_operands(draw):
    """Equal-shaped (x, y) of 2 to 9 entries: random, or y a real multiple of i x or a complex multiple
    of x moved by 10^-16 to 10^-1; at a common scale 10^-12 to 10^8, with ||y|| / ||x|| in 10^-14 to 10^14."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (2, 2), (3, 2), (3, 3)]))
    x = complex_normal(rng, *shape)
    kind = draw(st.sampled_from(["random", "phase", "complex"]))
    if kind == "random":
        y = complex_normal(rng, *shape)
    else:
        factor = 1j * rng.uniform(-2.0, 2.0) if kind == "phase" else complex(*rng.standard_normal(2))
        moved = 10.0 ** draw(st.floats(-16.0, -1.0))
        y = factor * x + moved * np.linalg.norm(x) * complex_normal(rng, *shape)
    ratio, scale = 10.0 ** draw(st.floats(-14.0, 14.0)), 10.0 ** draw(st.floats(-12.0, 8.0))
    return scale * x, scale * ratio * np.linalg.norm(x) / np.linalg.norm(y) * y


def _angle_gap(a: float, b: float, period: float) -> float:
    d = (a - b) % period
    return min(d, period - d)


@given(dependence_operands())
def test_least_direction_matches_the_svd_oracle(operands):
    # The witness read from the 2 x 2 Gram form leaves at most the SVD's minimum plus
    # 1e-15 ||[x | y]||_F, and where that minimum is simple both find the same direction.
    x, y = operands
    size = math.hypot(np.linalg.norm(x), np.linalg.norm(y))
    xv, iy = x.ravel(), 1j * y.ravel()
    real_stack = np.column_stack([np.concatenate([xv.real, xv.imag]), np.concatenate([iy.real, iy.imag])])
    complex_stack = np.column_stack([x.ravel(), y.ravel()])

    theta, residual = phase_dependence_detail(x, y)
    oracle_theta, oracle_min = svd_phase_dependence_detail(x, y)
    assert residual <= oracle_min + 1e-15 * size
    sv = np.linalg.svd(real_stack, compute_uv=False)
    if sv[0] ** 2 - sv[-1] ** 2 >= 1e-3 * size**2:
        # (c, s) and (-c, -s) are one witness.
        assert _angle_gap(theta, oracle_theta, math.pi) <= 1e-9

    (theta, phi), residual = complex_dependence_detail(x, y)
    (oracle_theta, oracle_phi), oracle_min = svd_complex_dependence_detail(x, y)
    assert residual <= oracle_min + 1e-15 * size
    sv = np.linalg.svd(complex_stack, compute_uv=False)
    if sv[0] ** 2 - sv[-1] ** 2 >= 1e-3 * size**2:
        assert abs(theta - oracle_theta) <= 1e-9
        if math.sin(2.0 * theta) >= 1e-2:
            assert _angle_gap(phi, oracle_phi, 2.0 * math.pi) <= 1e-9
