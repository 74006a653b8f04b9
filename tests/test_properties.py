"""Metamorphic properties of the product bounds and their certificates, on generated inputs.

Hypothesis draws Hermitian pairs with pure and rank-k states, and planted saturating
instances, under the profile pinned in ``conftest.py``.  Two relations must hold:

- unitary covariance: A -> U A U^dagger, psi -> U psi and rho -> U rho U^dagger keep the
  Robertson and Schrodinger flags, ``choose_mu``'s mu and tie, and the presence of each
  certificate, and move lhs and rhs by at most 1e-12 of the inputs' size in the bound's
  units (||A||_F ||B||_F for Robertson, its square for Schrodinger);
- swap symmetry: A <-> B leaves both reports' sides, slack and flag unchanged (the
  products exactly, the commutator terms within the same 1e-12).
"""

import math

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from qubounds import (DensityMatrix, Observable, PureState, choose_mu, haar_unitary, robertson,
                      robertson_saturation_mixed, robertson_saturation_pure, schrodinger,
                      schrodinger_saturation)
from helpers import plant_saturating_mixed, plant_saturating_pure

REL = 1e-12

# Exact zeros, and magnitudes from 1e-3 to 1: degenerate and structured draws as well as generic ones.
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def instances(draw):
    """(A, B, state, rotate): ``rotate(u)`` is the state moved by the unitary u."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("generated", "planted-pure", "planted-mixed")))
    if kind == "planted-pure":
        a, b, psi = plant_saturating_pure(n, draw(st.sampled_from((0.7j, 2.0j, 0.5 + 0.8j))), rng)
        return a.matrix, b.matrix, psi, lambda u: PureState(u @ psi.amplitudes)
    if kind == "planted-mixed":
        k = draw(st.integers(1, n - 1))
        a, b, rho = plant_saturating_mixed(n, k, draw(st.floats(0.2, 1.3)),
                                           draw(st.sampled_from((math.pi / 2, 1.0))), rng)
        return a.matrix, b.matrix, rho, lambda u: DensityMatrix(u @ rho.matrix @ u.conj().T)
    parts = draw(hnp.arrays(np.float64, (4, n, n), elements=ENTRIES))
    scale = draw(st.sampled_from((1e-8, 1.0, 1e8)))
    a, b = (scale * (g + g.conj().T) / 2 for g in (parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]))
    rank = draw(st.integers(0, n))
    x = draw(hnp.arrays(np.float64, (2, n, max(rank, 1)), elements=ENTRIES))
    g = x[0] + 1j * x[1]
    if not g.any():
        g[0, 0] = 1.0
    if rank == 0:
        psi = PureState(g[:, 0] / np.linalg.norm(g[:, 0]))
        return a, b, psi, lambda u: PureState(u @ psi.amplitudes)
    return a, b, DensityMatrix.from_factor(g), lambda u: DensityMatrix.from_factor(u @ g)


def _sizes(a, b):
    size = np.linalg.norm(a) * np.linalg.norm(b)
    return {"robertson": size, "schrodinger": size**2}


def _outcomes(a, b, state):
    """The decisions and their values: reports by bound, certificate presence, and mu for a pure state."""
    reports = {"robertson": robertson(a, b, state), "schrodinger": schrodinger(a, b, state)}
    present = [check(a, b, state) is not None for check in (robertson_saturation_mixed, schrodinger_saturation)]
    mu = None
    if isinstance(state, PureState):
        present.append(robertson_saturation_pure(a, b, state) is not None)
        choice = choose_mu(a, b, state)
        mu = choice.mu, choice.tie_broken
    return reports, present, mu


@given(instances(), st.integers(0, 2**32 - 1))
def test_unitary_covariance_and_swap_symmetry(instance, seed):
    a, b, state, rotate = instance
    sizes = _sizes(a, b)
    u = haar_unitary(a.shape[0], np.random.default_rng(seed))
    reports, present, mu = _outcomes(a, b, state)
    moved = (Observable.hermitian_part(u @ m @ u.conj().T) for m in (a, b))
    moved_reports, moved_present, moved_mu = _outcomes(*moved, rotate(u))
    assert moved_present == present
    assert moved_mu == mu
    for name, bound in (("robertson", robertson), ("schrodinger", schrodinger)):
        size, before, after, swapped = sizes[name], reports[name], moved_reports[name], bound(b, a, state)
        assert after.saturated == before.saturated, name
        assert abs(after.lhs - before.lhs) <= REL * size, name
        assert abs(after.rhs - before.rhs) <= REL * size, name
        assert swapped.lhs == before.lhs and swapped.saturated == before.saturated, name
        assert abs(swapped.rhs - before.rhs) <= REL * size, name
        assert abs(swapped.slack - before.slack) <= REL * size, name
