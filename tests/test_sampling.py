import hashlib

import numpy as np
import pytest

from qubounds import (
    Observable,
    SampleConfig,
    bloch_state,
    haar_unitary,
    random_density,
    random_hermitian,
    random_pure_state,
    trial_rng,
)
from qubounds import sampling, states
from qubounds.sampling import _complex_normal, _haar_columns, _trial_chunks
from helpers import complex_normal


def test_sample_config_validation():
    SampleConfig(dimension=4, rank=2, seed=0, count=1)
    with pytest.raises(ValueError):
        SampleConfig(dimension=4, rank=5, seed=0, count=1)
    with pytest.raises(ValueError):
        SampleConfig(dimension=4, rank=0, seed=0, count=1)
    with pytest.raises(ValueError):
        SampleConfig(dimension=4, rank=2, seed=0, count=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SampleConfig(dimension=2, rank=2, seed=-1, count=3)


def test_random_hermitian_exact_and_deterministic():
    a = random_hermitian(4, 123)
    b = random_hermitian(4, 123)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    np.testing.assert_array_equal(a.matrix, a.matrix.conj().T)
    scalar = random_hermitian(1, 5)
    assert scalar.matrix.shape == (1, 1)
    assert scalar.matrix[0, 0].imag == 0.0


def test_random_hermitian_has_the_law_of_the_hermitian_part_of_a_complex_normal():
    # (G + G^dagger)/2 for a complex normal G: H_ii ~ N(0, 1/2), and Re H_ij and
    # Im H_ij (i < j) independent N(0, 1/4).  50 draws at n = 64 give 3,200 diagonal
    # and 100,800 off-diagonal samples; each bound is about four standard errors.
    rng = np.random.default_rng(2024)
    draws = [random_hermitian(64, rng).matrix for _ in range(50)]
    upper = np.triu_indices(64, 1)
    diagonal = np.concatenate([np.diagonal(h) for h in draws])
    off = np.concatenate([h[upper] for h in draws])
    assert (diagonal.imag == 0.0).all()
    assert abs(diagonal.real.var() - 0.5) <= 0.05 and abs(diagonal.real.mean()) <= 0.05
    for part in (off.real, off.imag):
        assert abs(part.var() - 0.25) <= 0.006 and abs(part.mean()) <= 0.007
    assert abs(np.corrcoef(off.real, off.imag)[0, 1]) <= 0.013


def test_complex_normal_is_the_quotient_bit_for_bit():
    # Writing x / sqrt(2) and y / sqrt(2) into the two halves gives the bytes of
    # (x + 1j y) / sqrt(2), and the generator is left where that formula leaves it.
    for seed in range(40):
        for rows, cols in ((1, 1), (4, 4), (16, 1), (16, 2), (64, 64), (3, 7)):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = _complex_normal(new, rows, cols)
            assert draw.tobytes() == complex_normal(old, rows, cols).tobytes()
            assert draw.flags.c_contiguous and draw.shape == (rows, cols)
            assert new.standard_normal() == old.standard_normal()


def test_haar_unitary_properties():
    for n in (1, 2, 5):
        u = haar_unitary(n, 7)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), np.ones(n), atol=1e-12)
    np.testing.assert_array_equal(haar_unitary(3, 9), haar_unitary(3, 9))
    assert abs(abs(haar_unitary(1, 11)[0, 0]) - 1.0) <= 1e-14


def test_haar_unitary_phase_correction_spreads_eigenphases():
    # Without the phase correction the eigenphase histogram is visibly skewed;
    # with it the mean eigenphase over many draws is near zero.
    phases = []
    for seed in range(200):
        u = haar_unitary(2, seed)
        phases.extend(np.angle(np.linalg.eigvals(u)))
    assert abs(np.mean(phases)) <= 0.2


# haar_unitary(3, default_rng(5)) at artifact 0.3.0, and the next standard normal draw.
HAAR_3_SEED_5 = np.array([
    [-0.2886893867312177 + 0.5885098142414728j, -0.3048979226347237 + 0.13021876476226021j,
     0.47440697037222834 - 0.48511132028564896j],
    [0.15135717856777484 - 0.3449683922734136j, 0.33607916537428817 + 0.6861574695940921j,
     0.52321434113379 - 0.02394342460442611j],
    [-0.19894895126953355 - 0.623555742614301j, -0.536207446322476 + 0.13711537516524197j,
     -0.21047712637907753 - 0.4700828419697002j],
])
NEXT_AFTER_HAAR_3_SEED_5 = -0.6292880940615545


def test_haar_unitary_is_pinned_and_haar_columns_draw_only_n_by_k():
    # haar_unitary keeps its values and its place in the stream bit for bit;
    # _haar_columns draws an n x k block alone and returns orthonormal columns
    # spanning it.
    rng = np.random.default_rng(5)
    np.testing.assert_array_equal(haar_unitary(3, rng), HAAR_3_SEED_5)
    assert rng.standard_normal() == NEXT_AFTER_HAAR_3_SEED_5
    for n in (1, 2, 3, 8, 64):
        for k in (1, 2):
            if k > n:
                continue
            for seed in range(5):
                rng, rng_draw = np.random.default_rng(seed), np.random.default_rng(seed)
                q = _haar_columns(n, k, rng)
                z = rng_draw.standard_normal((n, k)) + 1j * rng_draw.standard_normal((n, k))
                assert rng.standard_normal() == rng_draw.standard_normal()
                assert q.shape == (n, k)
                np.testing.assert_allclose(q.conj().T @ q, np.eye(k), atol=1e-14)
                np.testing.assert_allclose(q @ (q.conj().T @ z), z, atol=1e-12 * np.linalg.norm(z))
    rng = np.random.default_rng(3)
    column = (rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1)))[:, 0] / np.sqrt(2.0)
    np.testing.assert_array_equal(random_pure_state(5, 3).amplitudes,
                                  column / np.linalg.norm(column))


def test_samplers_reject_dimensions_below_one_and_ranks_out_of_range():
    for draw in (lambda: random_hermitian(0, 1), lambda: _haar_columns(0, 1, 1),
                 lambda: random_pure_state(0, 1), lambda: random_density(2, 0, 1),
                 lambda: random_density(2, 3, 1)):
        with pytest.raises(ValueError):
            draw()


def test_random_pure_state_unit_norm():
    for n in (1, 2, 6):
        psi = random_pure_state(n, 3)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12
    np.testing.assert_array_equal(
        random_pure_state(4, 8).amplitudes, random_pure_state(4, 8).amplitudes
    )


def test_random_density_trace_psd_rank():
    for n, rank in ((2, 1), (2, 2), (4, 2), (4, 4)):
        rho = random_density(n, rank, 17)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs.min() >= -1e-12
        assert int(np.sum(eigs > 1e-10)) == rank


def test_random_density_rank_one_is_projector():
    rho = random_density(3, 1, 21)
    eigs, vecs = np.linalg.eigh(rho.matrix)
    top = vecs[:, -1]
    np.testing.assert_allclose(rho.matrix, np.outer(top, top.conj()), atol=1e-12)


def test_bloch_state_golden_values():
    np.testing.assert_allclose(bloch_state(0.0, 0.9).amplitudes, [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        bloch_state(np.pi, 0.0).amplitudes, [0.0, 1.0], atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_state(np.pi / 2, 0.0).amplitudes,
        np.array([1.0, 1.0]) / np.sqrt(2),
        atol=1e-15,
    )


def test_random_density_rank_failure_raises(monkeypatch):
    import qubounds.sampling as sampling
    from qubounds import RankUnachieved

    # A constant draw has rank one, so a rank-2 request cannot be met.
    monkeypatch.setattr(
        sampling, "_complex_normal", lambda rng, rows, cols: np.ones((rows, cols), dtype=complex)
    )
    with pytest.raises(RankUnachieved):
        sampling.random_density(3, 2, 0)


def test_trial_rng_streams_are_independent_and_stable():
    first = trial_rng(5, 0).standard_normal(4)
    again = trial_rng(5, 0).standard_normal(4)
    other = trial_rng(5, 1).standard_normal(4)
    np.testing.assert_array_equal(first, again)
    assert not np.array_equal(first, other)


def test_the_samplers_real_hermitian_part_is_the_complex_one_bit_for_bit():
    # The sampler forms the Hermitian part of e^{i pi/4} X in real arithmetic, as (y + y^T)/2 + i (y - y^T)/2 for
    # y = X fl(1/sqrt(2)); its bytes, norm and digest are those of Observable.hermitian_part of the complex product,
    # for random_hermitian and for a sweep's As and Bs (drawn first in each trial's stream).
    root_i = (1 + 1j) / np.sqrt(2.0)
    for seed in (7, 1009):
        for n in (1, 2, 3, 4, 16, 64):
            draws = trial_rng(seed, 0).standard_normal((2, n, n))
            want = [Observable.hermitian_part(root_i * draws[j], label) for j, label in enumerate("AB")]
            rng = trial_rng(seed, 0)
            sampled = [random_hermitian(n, rng, label=label) for label in "AB"]
            (_, a, b, *_), = next(_trial_chunks(SampleConfig(n, 1, seed, 1)))[-1]
            for x, y, z in zip(want, sampled, (a, b)):
                assert x.matrix.tobytes() == y.matrix.tobytes() == z.matrix.tobytes()
                assert (x.norm, x.digest, x.label) == (y.norm, y.digest, y.label) == (z.norm, z.digest, z.label)


class _FirstFactorOfOnes:
    """A trial's generator whose first factor G (the last ``size`` normals of its first draw) is all ones, so of
    rank 1, and which draws normally otherwise: the rho's one redraw."""

    def __init__(self, rng, size):
        self._rng, self._size, self._first = rng, size, True

    def standard_normal(self, size=None, out=None):
        drawn = self._rng.standard_normal(size, out=out)
        if self._first:
            drawn[-self._size:] = 1.0
            self._first = False
        return drawn


@pytest.mark.parametrize("redraw", [False, True], ids=["drawn", "redrawn"])
@pytest.mark.parametrize("n", [1, 2, 4, 64])
def test_a_chunks_stacked_digests_are_each_inputs_own(n, redraw, monkeypatch):
    # _trial_chunks hashes each input stack in one call (A, B, the psi and pair rows, each rho's prescaled G); every
    # digest it stores is _array_digest of that input alone, the SHA-256 of its kind, shape and bytes.  A rho whose
    # factor falls short of its rank is hashed from its redraw, the state the chunk yields.
    rank = min(n, 2)
    if redraw:
        monkeypatch.setattr(sampling, "trial_rng", lambda seed, k: _FirstFactorOfOnes(trial_rng(seed, k), 2 * n * rank))
    count = 2 if n == 64 else 5
    inputs = [x for *_, chunk in _trial_chunks(SampleConfig(n, rank, 7, count))
              for _, a, b, psi, rho, pair in chunk for x in (a, b, psi, rho, *(pair or ()))]
    per_trial = 4 if n == 1 else 6
    assert len(inputs) == count * per_trial
    for x in inputs:
        kind, name = x._HASHED
        array = getattr(x, name)
        assert vars(x)["digest"] == states._array_digest(kind, array) == hashlib.sha256(
            f"{kind}{array.shape}".encode() + np.ascontiguousarray(array).tobytes()).hexdigest()
    rhos = inputs[3::per_trial]
    if redraw and rank > 1:  # the redrawn factor is not the all-ones one
        assert all(not np.allclose(rho._prescaled, rho._prescaled[0, 0]) for rho in rhos)
