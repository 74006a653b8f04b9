import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import weakref

import numpy as np
import pytest

from qubounds import (
    DensityMatrix,
    DimensionMismatch,
    InvalidInput,
    NonHermitianInput,
    NonRealExpectation,
    NotPositiveSemidefinite,
    Observable,
    PureState,
    SampleConfig,
    bloch_state,
    construct_case2,
    expectation,
    mp3_saturation,
    pair_moments,
    random_density,
    random_hermitian,
    random_pure_state,
    stddev,
    trial_rng,
)
from qubounds import linalg, relations, states
from qubounds.sampling import _trial_chunks
from helpers import SIGMA_X, SIGMA_Y, SIGMA_Z, complex_normal, gram_pair, hermitian_array, projector

KET0 = PureState(np.array([1.0, 0.0]))
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
    np.testing.assert_allclose(projector(psi), [[1.0, 0.0], [0.0, 0.0]])


def test_a_state_norm_off_one_is_invalid_input():
    # Bad input data is a typed QuboundsError that is still the ValueError it was.
    with pytest.raises(InvalidInput, match="^state vector norm 2.0 is not 1") as info:
        PureState(np.array([2.0, 0.0]))
    assert isinstance(info.value, ValueError)
    # A one-entry vector's norm is its modulus, exactly, and INPUT_TOL = 1e-10 lies between 2^-34 and 2^-33:
    # 1 +- 2^-34 is a unit vector and 1 +- 2^-33 is not, on both sides of 1.
    for d in (2.0**-34, -(2.0**-34)):
        assert PureState(np.array([1.0 + d])).amplitudes[0] == 1.0 + d
    for d in (2.0**-33, -(2.0**-33)):
        with pytest.raises(InvalidInput, match="^state vector norm .* is not 1 within 1e-10$"):
            PureState(np.array([1.0 + d]))


def test_a_trace_off_one_is_invalid_input():
    with pytest.raises(InvalidInput, match="^density matrix trace 2.0 is not 1") as info:
        DensityMatrix(np.eye(2))
    assert isinstance(info.value, ValueError)
    # tr diag(1/2 + d, 1/2) = 1 + d exactly: within INPUT_TOL at d = +-2^-34, outside it at d = +-2^-33.
    for d in (2.0**-34, -(2.0**-34)):
        assert DensityMatrix(np.diag([0.5 + d, 0.5])).matrix.trace() == 1.0 + d
    for d in (2.0**-33, -(2.0**-33)):
        with pytest.raises(InvalidInput, match="^density matrix trace .* is not 1 within 1e-10$"):
            DensityMatrix(np.diag([0.5 + d, 0.5]))


def test_a_zero_factor_is_invalid_input():
    with pytest.raises(InvalidInput, match="^factor is zero$") as info:
        DensityMatrix.from_factor(np.zeros((2, 1)))
    assert isinstance(info.value, ValueError)


def test_pure_state_rejects_non_finite_amplitudes():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            PureState(np.array([bad, 0.0]))


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
    # A non-Hermitian operand cannot reach the expectation: a bare matrix is
    # validated where it enters, like an Observable.
    for matrix in ([[0.0, 1.0j], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]):
        with pytest.raises(NonHermitianInput):
            expectation(np.array(matrix), KET0)
        with pytest.raises(NonHermitianInput):
            pair_moments(np.array(matrix), SIGMA_X, KET0)


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


def test_inputs_compare_by_type_and_entries():
    # Equal copies compare True, another label, mean or entry compares False, and
    # no comparison raises; a factor-built state compares its formed matrix.
    rng = trial_rng(311, 0)
    for n in range(1, 5):
        h = hermitian_array(rng, n)
        moved = h.copy()
        moved[n - 1, n - 1] += 0.5
        obs = Observable(h, label="A")
        assert obs == Observable(h.copy(), label="A") == Observable.hermitian_part(h, label="A")
        assert obs != Observable(h, label="B") and obs != Observable(moved, label="A")
        psi = random_pure_state(n, rng)
        assert psi == PureState(psi.amplitudes.copy())
        assert psi != PureState(-psi.amplitudes) and psi != obs
        g = complex_normal(rng, n, 2)
        factored = DensityMatrix.from_factor(g)
        rho = DensityMatrix(factored.matrix.copy())
        assert factored == rho == DensityMatrix.from_factor(g)
        if n > 1:  # the one 1 x 1 state has no other entry
            assert rho != DensityMatrix(np.eye(n) / n) and rho != DensityMatrix.from_pure(psi)
        for x in (obs, psi, rho):
            with pytest.raises(TypeError):
                hash(x)


def test_an_input_declares_only_what_it_is_built_from():
    # What a maker derives (an observable's norm, a density matrix's factor and weights) is written by the makers
    # and declared as no field.  The fields are the constructor's arguments: repr shows those alone, == compares
    # those alone, and dataclasses.replace builds through the entry check, which derives the rest again.
    rng = trial_rng(311, 1)
    assert [f.name for f in dataclasses.fields(Observable)] == ["matrix", "label"]
    assert [f.name for f in dataclasses.fields(PureState)] == ["amplitudes"]
    assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["matrix"]
    obs, psi = Observable(hermitian_array(rng, 3), label="A"), random_pure_state(3, rng)
    assert repr(obs) == f"Observable(matrix={obs.matrix!r}, label='A')"
    assert repr(psi) == f"PureState(amplitudes={psi.amplitudes!r})"
    relabelled = dataclasses.replace(obs, label="B")
    assert relabelled != obs and relabelled == Observable(obs.matrix, label="B") and relabelled.norm == obs.norm
    assert dataclasses.replace(obs) == obs and dataclasses.replace(psi) == psi
    for rho in (random_density(3, 2, rng), DensityMatrix.from_factor(complex_normal(rng, 3, 2))):
        assert repr(rho) == f"DensityMatrix(matrix={rho.matrix!r})"
        rebuilt = dataclasses.replace(rho)
        assert rebuilt == rho and rebuilt is not rho
        np.testing.assert_allclose(rebuilt.weights, rho.weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rebuilt.factor @ rebuilt.factor.conj().T, rho.matrix, rtol=0, atol=1e-15)


def test_result_types_compare_by_type_and_entries():
    # PairMoments and MPFrame compare as the inputs do: two builds of one
    # value compare True, a moved entry or another type compares False, and none hashes.
    rng = trial_rng(313, 0)
    a, b = hermitian_array(rng, 3), hermitian_array(rng, 3)
    moved = b.copy()
    moved[0, 0] += 0.5
    rho = DensityMatrix.from_factor(complex_normal(rng, 3, 2))
    psi, phi = (PureState(c) for c in np.linalg.qr(complex_normal(rng, 3, 2))[0].T)
    cases = [
        tuple(pair_moments(a, y, rho) for y in (b, b.copy(), moved)),
        tuple(relations.mp_frame(a, y, psi, phi) for y in (b, b.copy(), moved)),
    ]
    for x, same, other in cases:
        assert x == same and not x != same
        assert x != other and x != psi
        with pytest.raises(TypeError):
            hash(x)


def test_pair_moments_rejects_an_argument_that_is_not_a_state():
    with pytest.raises(TypeError, match="unsupported state type"):
        pair_moments(SIGMA_X, SIGMA_Y, np.array([1.0, 0.0]))


def test_from_pure_rejects_an_argument_that_is_not_a_pure_state():
    # The TypeError of pair_moments.  A list or an array escaped as an AttributeError on .factor before, and a
    # DensityMatrix was rebuilt from its own factor with no error.
    for bad in ([1.0, 0.0], np.array([1.0, 0.0]), DensityMatrix(np.diag([1.0, 0.0]))):
        with pytest.raises(TypeError, match="unsupported state type") as info:
            DensityMatrix.from_pure(bad)
        assert type(info.value) is TypeError


def test_a_mean_with_an_imaginary_residue_past_its_budget_raises():
    # Not reachable through the public API: a validated A keeps |Im <A>| near half the
    # budget INPUT_TOL * ||A||_F, so the means given to the check are crafted here.  The budget
    # is included: a residue equal to it, of either sign, passes, and the next double above it raises.
    a, b, psi = Observable(SIGMA_X), Observable(2.0 * SIGMA_Y), bloch_state(0.7, 0.3)
    means, gram, centred = states._moments(a.matrix, b.matrix, psi.factor)
    for side, obs in enumerate((a, b)):
        budget = linalg.INPUT_TOL * obs.norm
        for residue in (0.5 * budget, budget, -budget, np.nextafter(budget, 1.0), 2.0 * budget):
            crafted = means.copy()
            crafted[side] = complex(means[side].real, residue)
            if abs(residue) > budget:
                with pytest.raises(NonRealExpectation):
                    states._pair_moments(a, b, psi, (crafted, gram, centred), linalg.DEFAULT_TOL)
            else:
                m = states._pair_moments(a, b, psi, (crafted, gram, centred), linalg.DEFAULT_TOL)
                assert (m.alpha, m.beta) == (means[0].real, means[1].real)


def _moments(m):
    return np.array([m.alpha, m.beta, m.dev_a, m.dev_b, m.cross.real, m.cross.imag])


def test_density_from_factor_is_the_matrix_it_factors():
    # rho = G G^dagger / tr(G G^dagger) is formed only when ``matrix`` is first read,
    # and then formed and symmetrised as a matrix would be, bit for bit; its factor
    # comes from the k x k Gram matrix and gives the matrix path's moments.  The
    # digest hashes the prescaled G, so it is not the matrix path's.
    rng = trial_rng(107, 0)
    for n, k in ((1, 1), (2, 2), (3, 2), (8, 3), (64, 4)):
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        recipe = (rho + rho.conj().T) / 2.0
        state, checked = DensityMatrix.from_factor(g), DensityMatrix(recipe)
        assert "matrix" not in vars(state)
        assert state.dimension == n
        assert state.matrix.tobytes() == recipe.tobytes()
        assert state.matrix is state.matrix and not state.matrix.flags.writeable
        prescaled = g * 2.0 ** -math.frexp(float(np.abs(g).max()))[1]
        expected = hashlib.sha256(f"density-factor{g.shape}".encode() + prescaled.tobytes())
        assert state.digest == expected.hexdigest() != checked.digest
        for e in (-3, 0, 5):
            assert DensityMatrix.from_factor(2.0 ** e * g).digest == state.digest
        assert state.factor.shape == (n, k)
        assert abs(state.weights.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(state.factor @ state.factor.conj().T, recipe, atol=1e-15)
        np.testing.assert_allclose(checked.weights, state.weights, atol=1e-15)
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
    # Equality and repr read the formed matrix, as for a matrix-built state.
    assert one == DensityMatrix(np.ones((1, 1))) and repr(one) == repr(DensityMatrix(np.ones((1, 1))))
    with pytest.raises(AttributeError):
        one.trace


def test_an_observable_computes_its_norm_once(monkeypatch):
    # The Hermiticity test reads ||A||_F, and the observable keeps that value.
    calls = []
    real = linalg._finite_norm

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg, "_finite_norm", counting)
    monkeypatch.setattr(states, "_finite_norm", counting)
    h = hermitian_array(trial_rng(110, 0), 4)
    for build in (lambda: Observable(h), lambda: Observable.hermitian_part(h)):
        calls.clear()
        obs = build()
        assert len(calls) == 1
        assert obs.norm == np.linalg.norm(obs.matrix)


def test_from_pure_runs_no_eigh(monkeypatch):
    # The projector's factor is psi itself: no eigendecomposition runs, and the moments are
    # those of the matrix-built projector to rounding.  Each moment reads an inner product
    # <x, y>: alpha = <psi, A psi>, dev(A)^2 = <A_c psi, A_c psi>, the cross term <A_c psi, B_c psi>.
    # Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 3.1) bounds its rounding
    # error by gamma_n |x|^T |y| <= n u ||x|| ||y||, which grows like sqrt(n) u in practice; the
    # projector's eigenvector adds an error of a few u of its own.  So each moment may differ by
    # (16 + sqrt(n)) u ||x|| ||y||, in the norms ||A psi|| >= ||A_c psi|| and ||B psi|| of its operands.
    # A fixed 1e-14 sat at the gaps at n = 64 (1.02e-14 on one of 100 seeds); at n <= 8 this is tighter.
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
        checked = DensityMatrix(projector(psi))
        ya, yb = (np.linalg.norm(x.matrix @ psi.amplitudes) for x in (a, b))
        bound = (16 + math.sqrt(n)) * 2.0**-53 * np.array([ya, yb, ya, yb, ya * yb, ya * yb])
        assert n > 8 or bound.max() <= 1e-14
        gap = np.abs(_moments(pair_moments(a, b, rho)) - _moments(pair_moments(a, b, checked)))
        assert np.all(gap <= bound), (n, gap, bound)


def test_stacked_factors_are_the_one_factor_states():
    # The stacked body gives each factor's one-factor state bit for bit, also where one
    # factor of the stack falls short of its rank and takes its own support.
    rng = trial_rng(343, 0)
    for n, k in ((1, 1), (3, 2), (4, 4), (8, 3)):
        stack = np.stack([complex_normal(rng, n, k) * 10.0 ** e for e in (-30, 0, 4)])
        for factors in (stack, np.concatenate([stack, stack[:1, :, :1].repeat(k, axis=2)])):
            for state, g in zip(DensityMatrix._from_factors(factors), factors):
                one = DensityMatrix.from_factor(g)
                assert state.digest == one.digest and state.weights.size == one.weights.size
                for name in ("_root", "factor", "weights", "matrix"):
                    assert getattr(state, name).tobytes() == getattr(one, name).tobytes()


def test_from_factor_is_the_same_state_at_every_power_of_two():
    # G is scaled exactly by a power of two before rho is formed, so 2^k G gives
    # the same state bit for bit, and no scale overflows or underflows.
    rng = trial_rng(341, 0)
    fields = ("matrix", "_root", "factor", "weights")
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
    # Parts that are zero, of either sign, or subnormal: halving and NumPy's complex quotient
    # may part only on a zero's sign, and the bytes are still those of (G + G^dagger) / 2.
    rng = trial_rng(11, 0)
    for n in (1, 2, 3, 6):
        for _ in range(100):
            g = complex_normal(rng, n, n)
            for part in (g.real, g.imag):
                mask = rng.random((n, n)) < 0.4
                part[mask] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0], mask.sum())
            for x in (g, g.T):
                assert Observable.hermitian_part(x).matrix.tobytes() == ((x + x.conj().T) / 2).tobytes()
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


def test_entry_checks_scan_only_where_a_norm_is_not_finite_and_keep_their_errors():
    # A finite ||.||_F (for from_factor, a finite largest modulus) proves finite entries, so the
    # entries are scanned only where it is not finite; each error is the one an up-front scan gave.
    builders = ((Observable, "observable"), (Observable.hermitian_part, "observable"),
                (DensityMatrix, "density matrix"), (DensityMatrix.from_factor, "factor"))
    non_finite = (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, np.inf], [-np.inf, 1.0]]),
                  np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]]), np.array([[np.inf]]),
                  np.array([[np.nan, 0.0, 1.0]]))  # not square: the entries still raise first
    for build, name in builders:
        for m in non_finite:
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                build(m)
    for v in (np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.array([[np.nan], [1.0]])):
        with pytest.raises(ValueError, match="^state vector contains non-finite entries$"):
            PureState(v)
    # Finite entries whose norm overflows keep their own errors.
    for build, name in builders[:3]:
        with pytest.raises(ValueError, match=f"^{name} has a non-finite Frobenius norm$"):
            build(1e308 * np.ones((2, 2)))
    with pytest.raises(ValueError, match="^state vector norm inf is not 1"):
        PureState(1e308 * np.ones(2))
    # from_factor scales G by a power of two before any square, so 1e308 ones is a rank-1 state.
    np.testing.assert_array_equal(DensityMatrix.from_factor(1e308 * np.ones((2, 2))).weights, [1.0])


def test_a_factor_whose_modulus_overflows_is_a_state_with_its_support():
    # |G_ij| can overflow with both parts finite; G is then scaled by its largest part, so the
    # state keeps its support, tr(rho I) = 1, and nothing warns.
    for g, factor in ((np.full((2, 1), complex(1.7e308, 1.7e308)), np.full((2, 1), 2 ** -0.5)),
                      (np.array([[complex(1.7e308, -1.7e308)], [1e-300]]), np.array([[1.0], [0.0]])),
                      (np.array([[complex(-1.7e308, 1.7e308), 0.0], [0.0, 1.7e308]]), np.diag([(2 / 3) ** 0.5, 3 ** -0.5]))):
        state = DensityMatrix.from_factor(g)
        assert state.weights.size == g.shape[1] and abs(state.weights.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(np.abs(state.factor), factor, atol=1e-15)
        assert expectation(np.eye(2), state) == pytest.approx(1.0, abs=1e-15)
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-15


def test_expectation_and_moment_means_keep_the_trace_of_an_offset_observable():
    # tr(rho A) for A = H + c I, with c up to 1e8, on pure and rank-k states, against the sum
    # over the entries of rho A: a mean that dropped tr(A)/n would miss it by about c.
    rng = trial_rng(2027, 0)
    for n, k in ((2, 1), (3, 2), (4, 4), (6, 3)):
        h_a, h_b = hermitian_array(rng, n), hermitian_array(rng, n)
        psi, rho = random_pure_state(n, rng), random_density(n, k, rng)
        for c in (0.0, -2.5, 1e3, 1e8):
            a, b = h_a + c * np.eye(n), h_b - c * np.eye(n)
            for state, matrix in ((psi, projector(psi)), (rho, rho.matrix)):
                want_a, want_b = (float(np.einsum("ij,ji->", matrix, m).real) for m in (a, b))
                budget = 1e-13 * (1.0 + abs(c))
                moments = pair_moments(a, b, state)
                assert abs(expectation(a, state) - want_a) <= budget
                assert abs(moments.alpha - want_a) <= budget and abs(moments.beta - want_b) <= budget


def test_input_digests_are_pinned():
    # Each hashes input bytes made by elementwise or power-of-two arithmetic, with no
    # BLAS, so the values hold on every platform, and no change to when a digest is
    # taken can move one.  A factor-built state hashes its prescaled G (here G / 2).
    assert Observable(SIGMA_X).digest == "503473a670c74cde47d6c9ed0199dc99e5c30c70df41529666e71cb5db7e3fcb"
    assert KET0.digest == "fcc51566e7a461ab982e1d0044963896902ab9a3e510c5d78b5d350edc090fe1"
    assert MIXED_QUBIT.digest == "b4abf2c5c8e79d1570beff5ae9d490e1175af14e0291ccaf9ada30c0d3452b0a"
    factored = DensityMatrix.from_factor(np.array([[1.0, 0.0], [0.0, 1j], [0.5, 0.0]]))
    assert factored.digest == "02ebad2cc4354098c2b934eea22b7ace950af2ae0dfe00c9c822121dfc3cf3bd"


def test_an_input_hashes_when_its_digest_is_first_read(monkeypatch):
    # Building an input hashes nothing; the first read hashes it once, and later reads reuse that.
    calls = []
    array_digest = states._array_digest
    monkeypatch.setattr(states, "_array_digest", lambda kind, a: calls.append(kind) or array_digest(kind, a))
    inputs = (Observable(SIGMA_X), Observable.hermitian_part(SIGMA_Y), PureState(np.array([1.0, 0.0])),
              DensityMatrix(np.eye(2) / 2), DensityMatrix.from_factor(np.ones((2, 1))))
    assert calls == []
    for x in inputs:
        assert x.digest == x.digest
    assert calls == ["observable", "observable", "pure", "density", "density-factor"]


def test_stacked_moments_are_the_one_triple_moments_byte_for_byte():
    # A sweep reduces a chunk's triples in stacked calls of the moments body, and the public
    # entries make its one-triple call: every slice of a stacked call must be the one-triple call
    # on copies of that slice, byte for byte.
    # B carries an identity offset of 1e12, and one factor of each trial an exact zero row.
    rng = trial_rng(22, 0)
    for n in (*range(1, 10), 16, 17, 33, 64):
        for t, g in ((1, 1), (2, 3), (4, 1), (7, 4)):
            a = np.array([hermitian_array(rng, n) for _ in range(t)])[:, None]
            b = np.array([hermitian_array(rng, n) + 1e12 * np.eye(n) for _ in range(t)])[:, None]
            for k in range(1, min(n, 8) + 1):
                x = complex_normal(rng, t * g * n, k).reshape(t, g, n, k)
                x[:, -1, n // 2] = 0.0
                stacked = states._moments(a, b, x)
                for i, j in np.ndindex(t, g):
                    one = states._moments(a[i, 0].copy(), b[i, 0].copy(), x[i, j].copy())
                    assert [s[i, j].tobytes() for s in stacked] == [s.tobytes() for s in one], (n, k, t, g)
                    assert one[2].shape == (2, n, k) and one[1].shape == (2, 2)


def _moment_bytes(m):
    """Every value of a PairMoments, in bytes, and its inputs by identity."""
    scalars = np.array([m.alpha, m.beta, m.dev_a, m.dev_b, m.cross]).tobytes()
    return scalars, m.centered_a.tobytes(), m.centered_b.tobytes(), id(m.a), id(m.b), id(m.state)


def test_a_states_slot_returns_its_last_reduction_for_the_same_observables_only(monkeypatch):
    # One entry per state, keyed by the identity of the validated A and B: a hit reads back the kept
    # reduction, byte for byte the one-triple call, with no moments call; equal new observables, or
    # another pair on the same state, reduce again and take the slot.  The kept centred pair is read-only.
    calls, real = [], states._moments
    monkeypatch.setattr(states, "_moments", lambda *args: calls.append(1) or real(*args))
    rng = trial_rng(29, 3)
    a, b, c = (Observable(hermitian_array(rng, 4)) for _ in range(3))
    for state in (random_pure_state(4, rng), random_density(4, 2, rng), DensityMatrix(np.eye(4) / 4)):
        calls.clear()
        m = pair_moments(a, b, state)
        hit = pair_moments(a, b, state)
        one = states._pair_moments(a, b, state, real(a.matrix, b.matrix, state._root), linalg.DEFAULT_TOL)
        assert _moment_bytes(hit) == _moment_bytes(m) == _moment_bytes(one) and len(calls) == 1
        assert not (hit.centered_a.flags.writeable or hit.centered_b.flags.writeable)
        again = pair_moments(Observable(a.matrix), b, state)
        assert _moment_bytes(again)[:3] == _moment_bytes(m)[:3] and len(calls) == 2
        pair_moments(a, c, state)
        pair_moments(a, b, state)
        assert len(calls) == 4
        # Bare matrices are validated on each call, into new observables.
        pair_moments(a.matrix, b.matrix, state)
        pair_moments(a.matrix, b.matrix, state)
        assert len(calls) == 6
    # The slot holds no reference to its state: a state with a kept reduction is freed by its reference
    # count alone, with the cycle collector off.
    gc.disable()
    try:
        state = random_density(4, 2, rng)
        m = pair_moments(a, b, state)
        freed = weakref.ref(state)
        del state, m
        assert freed() is None
    finally:
        gc.enable()


def test_a_reduction_carries_its_entrys_tolerance_and_zero_sides_as_attributes_not_fields(monkeypatch):
    # The maker writes the entry's tolerance and both zero sides on the reduction, as attributes: repr, == and
    # dataclasses.replace see the fields alone.  The slot keeps the moments only, so a hit at another tolerance
    # decides its zero sides there.  In |0>, A = [[0, t], [t, 1]] with t = 2^-31 has dev(A) = t, zero to rounding at
    # the default eps and not at eps = 0; dev(B) = 1 for sigma_y is zero at neither.
    tiny = 2.0 ** -31
    a, b, ket0 = Observable(np.array([[0.0, tiny], [tiny, 1.0]])), Observable(SIGMA_Y), bloch_state(0.0, 0.0)
    m = pair_moments(a, b, ket0)
    assert (m.dev_a, m.tol, m.zero) == (tiny, linalg.DEFAULT_TOL, (True, False))
    calls, real = [], states._moments
    monkeypatch.setattr(states, "_moments", lambda *args: calls.append(1) or real(*args))
    exact = states._reduction(a, b, ket0, linalg.Tolerance(0.0))
    assert calls == [] and (exact.tol, exact.zero) == (linalg.Tolerance(0.0), (False, False)) and exact == m
    names = [f.name for f in dataclasses.fields(states.PairMoments)]
    assert "tol" not in names and "zero" not in names and "tol=" not in repr(m) and "zero=" not in repr(m)
    copied = dataclasses.replace(m)
    assert copied == m and not {"tol", "zero"} & set(vars(copied))


def test_a_states_slot_keeps_no_observable_alive():
    # The slot keys its entry by weak references to A and B: once the caller drops them, they are freed by their
    # reference counts alone, with the cycle collector off, while the state and its kept moments live on.
    rng = trial_rng(29, 4)
    for state in (random_pure_state(4, rng), random_density(4, 2, rng), DensityMatrix(np.eye(4) / 4)):
        gc.disable()
        try:
            a, b = (Observable(hermitian_array(rng, 4)) for _ in range(2))
            m = pair_moments(a, b, state)
            freed = weakref.ref(a), weakref.ref(b)
            del a, b, m
            assert [ref() for ref in freed] == [None, None] and "_reduced" in vars(state)
        finally:
            gc.enable()
    # A construction's e1 keeps its pair's c and d by weak references to phi, A and B: once the caller drops the pair
    # and the observables, each is freed, while e1 keeps both slots; and e1 is freed by its reference count alone.
    gc.disable()
    try:
        a, b = (Observable(hermitian_array(rng, 4)) for _ in range(2))
        pair = construct_case2(a, b)
        check = mp3_saturation(a, b, pair.psi, pair.phi, pair.mu)
        psi, freed = pair.psi, (weakref.ref(a), weakref.ref(b), weakref.ref(pair.phi))
        del a, b, pair, check
        assert [ref() for ref in freed] == [None] * 3 and {"_reduced", "_paired"} <= set(vars(psi))
        freed = weakref.ref(psi)
        del psi
        assert freed() is None
    finally:
        gc.enable()


def test_an_evaluated_state_pickles_without_its_slot():
    # The slot is a cache of weak references, not part of a state's value: a state that has been evaluated pickles,
    # loads equal to the original with no slot, and evaluates to the same report; the original keeps its slot.
    a, b = Observable(SIGMA_X), Observable(SIGMA_Y)
    for state in (PureState(np.array([0.6, 0.8j])), DensityMatrix(np.diag([0.75, 0.25])),
                  DensityMatrix.from_factor(np.array([[1.0, 0.5], [0.0, 1.0j]]))):
        report = relations.robertson(a, b, state)
        slot = vars(state)["_reduced"]
        loaded = pickle.loads(pickle.dumps(state))
        assert "_reduced" not in vars(loaded) and loaded == state
        assert relations.robertson(a, b, loaded) == report and vars(state)["_reduced"] is slot


@pytest.mark.parametrize("load", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_loaded_or_copied_input_is_frozen_again(load):
    # A pickle or a deep copy gives fresh, writable arrays: each is frozen again on load, and a pure state's factor,
    # its moments' root, is again a view of its amplitudes.  The loaded input equals the original, keeps its digest,
    # and evaluates to the same report.
    a, b = Observable(SIGMA_X), Observable(SIGMA_Y)
    for x in (Observable(SIGMA_Z), PureState(np.array([0.6, 0.8j])), DensityMatrix(np.diag([0.75, 0.25])),
              DensityMatrix.from_factor(np.array([[1.0, 0.5], [0.0, 1.0j]]))):
        report = (lambda y: relations.robertson(y, b, PLUS)) if isinstance(x, Observable) else (
            lambda y: relations.robertson(a, b, y))
        before = report(x)
        loaded = load(x)
        arrays = [v for v in vars(loaded).values() if isinstance(v, np.ndarray)]
        assert arrays and not any(v.flags.writeable for v in arrays)
        assert loaded == x and loaded.digest == x.digest and report(loaded) == before
        if isinstance(x, PureState):
            assert np.shares_memory(loaded.factor, loaded.amplitudes)
            assert np.shares_memory(loaded._root, loaded.amplitudes)
            assert loaded.weights is x.weights


def _held_arrays(x) -> list:
    """Every array that the input ``x`` holds: those in its ``vars``, and a pure state's factor, derived when read,
    each with every array down its ``.base`` chain, whose memory a view of it shares."""
    arrays = [v for v in vars(x).values() if isinstance(v, np.ndarray)]
    chains = []
    for v in arrays + [x.factor] if isinstance(x, PureState) else arrays:
        while isinstance(v, np.ndarray):
            chains.append(v)
            v = v.base
    return chains


def test_every_array_an_input_holds_is_read_only_on_every_build_path():
    # Each build path, the stacked makers of a sweep and a construction included, leaves no writable array in an
    # input: a factor-built state's support, Gram eigenvectors and matrix, formed when first read, neither, and a
    # loaded or copied input neither.  No array that a held one views is writable either: a matrix-built state's
    # weights are a prefix of the eigenvalues that its eigendecomposition copied.  A pure state stores its
    # amplitudes alone, besides the digest and the kept moments (a constructed psi carries those of its
    # construction, and its pair's c and d).
    a, b = Observable(SIGMA_X), Observable(SIGMA_Y)
    g = complex_normal(trial_rng(40, 0), 3, 2)
    pair = construct_case2(hermitian_array(trial_rng(40, 1), 3), hermitian_array(trial_rng(40, 2), 3))
    (_, sweep_a, sweep_b, sweep_psi, sweep_rho, haar), _ = next(_trial_chunks(SampleConfig(3, 2, 7, 2)))[-1]
    inputs = [Observable(SIGMA_Z), Observable.hermitian_part(SIGMA_X + 1j * SIGMA_Z), sweep_a, sweep_b,
              PureState(np.array([0.6, 0.8j])), random_pure_state(3, 40), pair.psi, pair.phi, sweep_psi, *haar,
              DensityMatrix(np.diag([0.75, 0.25])), DensityMatrix(np.diag([0.75, 0.25, 0.0]).astype(complex)),
              DensityMatrix.from_pure(PLUS), sweep_rho]
    factor_built = [DensityMatrix.from_factor(g), DensityMatrix.from_factor(np.column_stack([g, g[:, :1] * 0.5j]))]
    for x in inputs + factor_built:
        assert _held_arrays(x) and not any(v.flags.writeable for v in _held_arrays(x))
    for x in factor_built:
        for name in ("factor", "weights", "_basis", "matrix"):
            getattr(x, name)
        assert not any(v.flags.writeable for v in _held_arrays(x))
    assert factor_built[0]._basis is not None and factor_built[1]._basis is None
    for x in inputs + factor_built:
        for load in (lambda y: pickle.loads(pickle.dumps(y)), copy.deepcopy):
            assert not any(v.flags.writeable for v in _held_arrays(load(x)))
        if isinstance(x, PureState):
            assert set(vars(x)) - {"digest", "_reduced", "_paired"} == {"amplitudes"}


def test_a_stacked_pure_states_amplitudes_alias_no_writable_array():
    # PureState._stack freezes the stack it is handed, with no copy, so each maker hands it the array that owns its
    # rows: a chunk's psi and Haar pairs hold the rows of the stack that the chunk also hands on, which is frozen,
    # and a construction's phi and a sampled state view a frozen owner too.
    _, _, rows, trials = next(_trial_chunks(SampleConfig(3, 2, 7, 2)))
    assert not rows.flags.writeable
    for _, _, _, psi, _, pair in trials:
        assert all(np.shares_memory(state.amplitudes, rows) for state in (psi, *pair))
    pair = construct_case2(hermitian_array(trial_rng(44, 0), 3), hermitian_array(trial_rng(44, 1), 3))
    for state in (pair.phi, random_pure_state(3, 44)):
        assert not state.amplitudes.flags.writeable and not state.amplitudes.base.flags.writeable


def test_a_factor_built_states_moments_read_g_only_where_the_cutoff_keeps_every_gram_eigenvalue():
    # G = diag(1e5, 1) has Gram eigenvalues 1e10 and 1, exact floats whose ratio is INPUT_TOL: the smaller one sits
    # at the cutoff and is dropped, so the moments read the one-column support factor.  With 1 + 2^-20 in place of
    # 1 it is above the cutoff, and the moments read G/||G||_F, both columns.
    for low, columns in ((1.0, 1), (1.0 + 2.0**-20, 2)):
        state = DensityMatrix.from_factor(np.diag([1e5, low]))
        assert ("_root" in vars(state)) == (columns == 2) and state._root.shape == (2, columns)


def _boolean_support(a):
    """The support as it was selected by a boolean index of the descending eigh arrays: the reference."""
    w, v = linalg._eigh_descending(a)
    keep = w > linalg.INPUT_TOL * linalg._norm(w)
    return w[keep], v[:, keep]


def test_a_support_is_a_prefix_of_the_descending_spectrum_bit_for_bit():
    # DensityMatrix(m), psd_power and a factor-built state whose cutoff drops a direction take their support as
    # prefixes of the descending eigh arrays, sliced with no copy; every byte is the boolean selection's.
    rng = trial_rng(36, 0)
    for n in range(1, 9):
        for k in range(1, n + 1):
            g = complex_normal(rng, n, k)
            m = g @ g.conj().T
            m = (m + m.conj().T) / 2 / np.trace(m).real
            w, v = _boolean_support(m)
            support = linalg._psd_support(m)
            assert support[0].base is not None and support[1].base is not None  # slices, not copies
            assert [x.tobytes() for x in support] == [w.tobytes(), v.tobytes()]
            state = DensityMatrix(m)
            assert (state.weights.tobytes(), state.factor.tobytes()) == (w.tobytes(), (v * np.sqrt(w)).tobytes())
            power = (v * w**3.0) @ v.conj().T
            assert linalg.psd_power(m, 3.0).tobytes() == ((power + power.conj().T) / 2.0).tobytes()
            # A repeated column: the Gram matrix of G has a zero eigenvalue, which the cutoff drops.
            state = DensityMatrix.from_factor(np.hstack([g, g[:, -1:]]))
            assert "_root" not in vars(state)
            x = state._prescaled
            lam, u = _boolean_support(x.conj().T @ x)
            y = x @ u
            y = y * y[np.abs(y).argmax(axis=0), np.arange(y.shape[1])].conj()
            y = y / np.sqrt(np.add.reduce((y.conj() * y).real, axis=0))
            weights = lam / lam.sum()
            assert (state.weights.tobytes(), state.factor.tobytes()) == (
                weights.tobytes(), (y * np.sqrt(weights)).tobytes())
