import math

import numpy as np
import pytest

from qubounds import (
    CenteredObservable,
    DensityMatrix,
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveSemidefinite,
    Observable,
    PureState,
    bloch_state,
    center,
    expectation,
    gram_pair,
    mp3,
    pair_moments,
    random_density,
    random_hermitian,
    random_pure_state,
    stddev,
    trial_rng,
)
from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, complex_normal, hermitian_array

KET0 = PureState(np.array([1.0, 0.0]))
KET1 = PureState(np.array([0.0, 1.0]))
PLUS = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
MIXED_QUBIT = DensityMatrix(np.eye(2) / 2)


def test_observable_validation():
    obs = Observable(SIGMA_X, label="x")
    assert obs.dimension == 2
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 5.0  # frozen backing array
    with pytest.raises(NonHermitianInput):
        Observable(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    psi = PureState(np.array([1.0j, 0.0]))
    np.testing.assert_allclose(psi.projector(), [[1.0, 0.0], [0.0, 0.0]])


def test_pure_state_rejects_a_matrix_of_amplitudes():
    # A 2x2 array is not a 4-dimensional state, even with unit Frobenius norm.
    with pytest.raises(DimensionMismatch):
        PureState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        PureState(np.zeros((0, 3)))
    # Row and column vectors are vectors.
    for shape in ((3,), (3, 1), (1, 3), (1, 3, 1)):
        psi = PureState(np.array([1.0, 0.0, 0.0]).reshape(shape))
        assert psi.dimension == 3
        assert psi.amplitudes.shape == (3,)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(NotPositiveSemidefinite):
        DensityMatrix(np.diag([1.5, -0.5]))
    rho = DensityMatrix.from_pure(PLUS)
    assert rho.dimension == 2
    np.testing.assert_allclose(np.trace(rho.matrix), 1.0)


def test_expectation_golden_values():
    assert expectation(SIGMA_Z, KET0) == pytest.approx(1.0)
    assert expectation(SIGMA_Z, MIXED_QUBIT) == pytest.approx(0.0)


def test_expectation_bloch_family():
    for theta in np.linspace(0.0, math.pi, 7):
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            psi = bloch_state(theta, phi)
            assert expectation(SIGMA_X, psi) == pytest.approx(
                math.sin(theta) * math.cos(phi), abs=1e-12
            )


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(np.eye(3), KET0)


def test_expectation_rejects_imaginary_residue():
    # A non-Hermitian operand cannot reach the expectation: a CenteredObservable
    # is validated where it is built, like an Observable.
    for matrix in ([[0.0, 1.0j], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(NonHermitianInput):
            CenteredObservable(matrix=np.array(matrix), mean=0.0)


def test_stddev_golden_values():
    assert stddev(SIGMA_X, KET0) == pytest.approx(1.0)
    assert stddev(np.diag([3.0, 7.0]), KET0) == pytest.approx(0.0, abs=1e-12)


def test_stddev_mixed_matches_pure_on_projector():
    rng = trial_rng(100, 0)
    for n in (2, 3, 4):
        a = random_hermitian(n, rng)
        psi = random_pure_state(n, rng)
        pure = stddev(a, psi)
        mixed = stddev(a, DensityMatrix.from_pure(psi))
        assert abs(pure - mixed) <= 1e-12


def test_stddev_shift_invariance():
    rng = trial_rng(101, 0)
    for _ in range(10):
        a = hermitian_array(rng, 3)
        shift = rng.uniform(-5.0, 5.0)
        psi = random_pure_state(3, rng)
        rho = random_density(3, 3, rng)
        shifted = a + shift * np.eye(3)
        for state in (psi, rho):
            assert abs(stddev(a, state) - stddev(shifted, state)) <= 1e-10


def test_center_golden_values():
    centered = center(SIGMA_Z, KET0)
    assert centered.mean == pytest.approx(1.0)
    np.testing.assert_allclose(centered.matrix, SIGMA_Z - np.eye(2))

    a = np.diag([1.0, 2.0, 6.0])
    maximally_mixed = DensityMatrix(np.eye(3) / 3)
    centered = center(a, maximally_mixed)
    np.testing.assert_allclose(centered.matrix, a - 3.0 * np.eye(3))

    theta, phi = 1.1, 0.3
    centered = center(SIGMA_X, bloch_state(theta, phi))
    np.testing.assert_allclose(
        centered.matrix, SIGMA_X - math.sin(theta) * math.cos(phi) * np.eye(2), atol=1e-12
    )
    # Built by the same code as an Observable of its matrix, so every entry takes it alike.
    same = Observable(centered.matrix)
    assert (centered.norm, centered.digest) == (same.norm, same.digest)
    assert mp3(centered, SIGMA_Y, KET0, KET1).report == mp3(same, SIGMA_Y, KET0, KET1).report
    assert expectation(centered, bloch_state(theta, phi)) == pytest.approx(0.0, abs=1e-12)


def test_gram_pair_pauli_golden():
    pair = gram_pair(SIGMA_X, SIGMA_Y, KET0)
    expected = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    np.testing.assert_allclose(pair.c1, expected, atol=1e-14)
    np.testing.assert_allclose(pair.c2, expected, atol=1e-14)
    assert abs(np.linalg.det(pair.c1)) <= 1e-12
    assert abs(np.linalg.det(pair.c2)) <= 1e-12


def test_gram_pair_commuting_golden():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    pair = gram_pair(a, b, PLUS)
    np.testing.assert_allclose(pair.c1, [[0.25, 0.25], [0.25, 0.25]], atol=1e-14)
    np.testing.assert_allclose(pair.c2, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)
    det = np.linalg.det(pair.c1 + pair.c2).real
    da, db = stddev(a, PLUS), stddev(b, PLUS)
    assert det == pytest.approx(4 * da**2 * db**2, abs=1e-12)


def _direct_gram_oracle(a, b, psi):
    # Straight matrix products, no centered-vector shortcuts.
    alpha = (psi.conj() @ a @ psi).real
    beta = (psi.conj() @ b @ psi).real
    at = a - alpha * np.eye(len(a))
    bt = b - beta * np.eye(len(b))
    return np.array(
        [
            [psi.conj() @ at @ at @ psi, psi.conj() @ at @ bt @ psi],
            [psi.conj() @ bt @ at @ psi, psi.conj() @ bt @ bt @ psi],
        ]
    )


def test_gram_pair_matches_direct_oracle_and_is_psd():
    rng = trial_rng(102, 0)
    for n in (2, 3, 4):
        for _ in range(25):
            a = hermitian_array(rng, n)
            b = hermitian_array(rng, n)
            psi = random_pure_state(n, rng)
            pair = gram_pair(a, b, psi)
            oracle = _direct_gram_oracle(a, b, psi.amplitudes)
            np.testing.assert_allclose(pair.c1, oracle, atol=1e-10)
            assert np.trace(pair.c1) == pytest.approx(np.trace(pair.c2).real)
            for g in (pair.c1, pair.c2, pair.c1 + pair.c2):
                floor = -1e-10 * np.trace(g).real
                assert np.linalg.eigvalsh(g).min() >= floor


def test_gram_pair_determinant_identity():
    rng = trial_rng(103, 0)
    for _ in range(25):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi = random_pure_state(3, rng)
        rho = random_density(3, 2, rng)
        for state in (psi, rho):
            pair = gram_pair(a, b, state)
            m = pair_moments(a, b, state)
            det = np.linalg.det(pair.c1 + pair.c2).real
            expected = 4 * m.dev_a**2 * m.dev_b**2 - abs(m.commutator_expectation) ** 2
            assert det == pytest.approx(expected, abs=1e-10)


def test_gram_c1_eigenvalues_closed_form():
    # Quadratic-formula roots of the characteristic polynomial of c1:
    # trace p + q, determinant pq - |z|^2, discriminant (p - q)^2 + 4 |z|^2.
    rng = trial_rng(104, 0)
    for _ in range(25):
        a = hermitian_array(rng, 4)
        b = hermitian_array(rng, 4)
        psi = random_pure_state(4, rng)
        pair = gram_pair(a, b, psi)
        m = pair_moments(a, b, psi)
        p, q = m.dev_a**2, m.dev_b**2
        root = math.sqrt((p - q) ** 2 + 4 * abs(m.cross) ** 2)
        expected = np.sort([0.5 * (p + q - root), 0.5 * (p + q + root)])
        np.testing.assert_allclose(np.linalg.eigvalsh(pair.c1), expected, atol=1e-10)
    # At the saturated Pauli golden the smaller root is exactly zero.
    pair = gram_pair(SIGMA_X, SIGMA_Y, KET0)
    np.testing.assert_allclose(np.linalg.eigvalsh(pair.c1), [0.0, 2.0], atol=1e-12)


def test_pair_moments_commutator_matches_matrix_oracle():
    rng = trial_rng(105, 0)
    for _ in range(10):
        a = hermitian_array(rng, 3)
        b = hermitian_array(rng, 3)
        psi = random_pure_state(3, rng)
        rho = random_density(3, 3, rng)
        comm = a @ b - b @ a
        m_pure = pair_moments(a, b, psi)
        oracle_pure = complex(psi.amplitudes.conj() @ comm @ psi.amplitudes)
        assert m_pure.commutator_expectation == pytest.approx(oracle_pure, abs=1e-12)
        m_mixed = pair_moments(a, b, rho)
        oracle_mixed = complex(np.trace(comm @ rho.matrix))
        assert m_mixed.commutator_expectation == pytest.approx(oracle_mixed, abs=1e-12)


def test_mixed_on_pure_reduction_everywhere():
    rng = trial_rng(106, 0)
    for n in (2, 3, 4):
        a = random_hermitian(n, rng)
        b = random_hermitian(n, rng)
        psi = random_pure_state(n, rng)
        rho = DensityMatrix.from_pure(psi)
        assert abs(expectation(a, psi) - expectation(a, rho)) <= 1e-12
        assert abs(stddev(a, psi) - stddev(a, rho)) <= 1e-12
        pure_pair = gram_pair(a, b, psi)
        mixed_pair = gram_pair(a, b, rho)
        np.testing.assert_allclose(pure_pair.c1, mixed_pair.c1, atol=1e-12)
        np.testing.assert_allclose(pure_pair.c2, mixed_pair.c2, atol=1e-12)


def _moments(m):
    return np.array([m.alpha, m.beta, m.dev_a, m.dev_b, m.cross.real, m.cross.imag])


def test_density_from_factor_is_the_matrix_it_factors():
    # rho = G G^dagger / tr(G G^dagger), formed and symmetrised as a matrix would
    # be, so its matrix and digest are the matrix path's; its factor comes from
    # the k x k Gram matrix and gives the same moments.
    rng = trial_rng(107, 0)
    for n, k in ((1, 1), (2, 2), (3, 2), (8, 3), (64, 4)):
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        recipe = (rho + rho.conj().T) / 2.0
        state, checked = DensityMatrix.from_factor(g), DensityMatrix(recipe)
        np.testing.assert_array_equal(state.matrix, recipe)
        assert state.digest == checked.digest
        assert state.factor.shape == (n, k)
        assert abs(state.weights.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(state.factor @ state.factor.conj().T, recipe, atol=1e-15)
        np.testing.assert_allclose(state.spectrum.support()[0], state.weights, atol=1e-15)
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        np.testing.assert_allclose(_moments(pair_moments(a, b, state)),
                                   _moments(pair_moments(a, b, checked)), rtol=1e-14, atol=1e-14)
        with pytest.raises(ValueError):
            state.factor[0, 0] = 0.0
    # A 1 x 1 state is exactly its own factor, whatever the phase of G.
    one = DensityMatrix.from_factor(np.array([[-0.3 + 0.7j]]))
    assert (one.factor.tolist(), one.weights.tolist()) == ([[1.0]], [1.0])
    with pytest.raises(ValueError):
        DensityMatrix.from_factor(np.zeros((2, 1)))


def test_from_pure_runs_no_eigh(monkeypatch):
    # The projector's factor is psi itself: no eigendecomposition runs, and the
    # moments are those of the matrix-built projector.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
    rng = trial_rng(108, 0)
    for n in (2, 8, 64):
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        psi = random_pure_state(n, rng)
        calls.clear()
        rho = DensityMatrix.from_pure(psi)
        assert not calls
        checked = DensityMatrix(psi.projector())
        np.testing.assert_allclose(_moments(pair_moments(a, b, rho)),
                                   _moments(pair_moments(a, b, checked)), rtol=0, atol=1e-14)


def test_from_factor_is_the_same_state_at_every_power_of_two():
    # G is scaled exactly by a power of two before rho is formed, so 2^k G gives
    # the same state bit for bit, and no scale overflows or underflows.
    rng = trial_rng(341, 0)
    fields = ("matrix", "factor", "weights")
    for n, k in ((1, 1), (3, 1), (4, 2), (8, 3)):
        g = complex_normal(rng, n, k)
        state = DensityMatrix.from_factor(g)
        for e in range(-900, 901, 9):
            scaled = DensityMatrix.from_factor(2.0 ** e * g)
            assert scaled.digest == state.digest
            for name in fields:
                assert getattr(scaled, name).tobytes() == getattr(state, name).tobytes()
    for c in (1e200, 1e-200):
        state = DensityMatrix.from_factor(c * np.ones((2, 1)))
        np.testing.assert_array_equal(state.matrix, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(state.weights, [1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_hermitian_part_is_the_checked_observable_bit_for_bit():
    # (G + G^dagger)/2 is Hermitian bit for bit, so hermitian_part skips only the
    # Hermiticity test: its bytes, layout, norm and digest are those of the
    # constructor's, which runs it.
    for seed in (3, 7, 1009):
        rng = trial_rng(seed, 0)
        for n in range(1, 201):
            g = complex_normal(rng, n, n)
            a = Observable.hermitian_part(g, label="A")
            checked = Observable((g + g.conj().T) / 2, label="A")
            assert a.matrix.tobytes() == checked.matrix.tobytes()
            assert a.matrix.flags.c_contiguous and checked.matrix.flags.c_contiguous
            assert (a.norm, a.digest, a.label) == (checked.norm, checked.digest, checked.label)
            assert (a.matrix == a.matrix.conj().T).all()
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 0.0
    # Every other check of the constructor still runs.
    for bad in (np.array([[np.nan]]), np.array([[1.0, np.inf], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="non-finite entries"):
            Observable.hermitian_part(bad)
    for n in (1, 2, 5):
        with pytest.raises(ValueError, match="non-finite Frobenius norm"):
            Observable.hermitian_part(1e308 * np.ones((n, n)))
    for shape in ((2, 3), (3,), (0, 0)):
        with pytest.raises(DimensionMismatch):
            Observable.hermitian_part(np.ones(shape))
