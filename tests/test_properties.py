"""Property tests of the dephasing and grid invariants over random inputs.

Grids are uniform or Clenshaw-Curtis with n <= 64; kernels are random
complex and non-Hermitian (``self_adjoint=False``), so no symmetry of the
inputs hides an error in the contraction.
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vanhove import (
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    decay_profile,
    evolve,
    hamiltonian_observable,
    identity_observable,
    make_grid,
    pair,
    recurrence_time,
    weak_limit,
)
from vanhove.evolution import _TIME_BLOCK
from vanhove.kernels import grid_size_for_spacing
from vanhove.oracles import dense_pair_oracle

TOL = 1e-12


@st.composite
def problems(draw, max_n=64):
    """A random (state, observable) pair on a random grid."""
    n = draw(st.integers(2, max_n))
    scheme = draw(st.sampled_from(["uniform", "chebyshev"]))
    omega_max = draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = make_grid(omega_max, n, scheme)

    def sample(*shape):
        return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)

    state = StateFunctional(
        SingularKernel(grid, sample(n)), RegularKernel(grid, sample(n, n))
    )
    obs = Observable(
        SingularKernel(grid, sample(n)), RegularKernel(grid, sample(n, n)),
        self_adjoint=False,
    )
    return state, obs


@pytest.mark.parametrize(
    "count", [1, _TIME_BLOCK - 1, _TIME_BLOCK, _TIME_BLOCK + 1, 2 * _TIME_BLOCK + 1]
)
@given(problem=problems(), reach=st.floats(0.0, 1.0))
def test_decay_profile_matches_evolve_then_pair(count, problem, reach):
    state, obs = problem
    times = np.linspace(0.0, reach * recurrence_time(state.grid), count, endpoint=False)
    prof = decay_profile(state, obs, times)
    diag = pair(weak_limit(state), obs)
    ref = np.array([pair(evolve(state, t), obs) for t in times])
    assert np.max(np.abs(prof.expectations - ref.real)) <= TOL
    assert np.max(np.abs(prof.offdiag_abs - np.abs(ref - diag))) <= TOL


@given(problem=problems())
def test_diag_value_is_the_weak_limit_pairing_bit_for_bit(problem):
    state, obs = problem
    prof = decay_profile(state, obs, [0.0])
    assert prof.diag_value.hex() == pair(weak_limit(state), obs).real.hex()


@given(problem=problems(), t=st.floats(-1e3, 1e3))
def test_norm_and_energy_conserved_under_evolve(problem, t):
    state, _ = problem
    evolved = evolve(state, t)
    for obs in (identity_observable(state.grid), hamiltonian_observable(state.grid)):
        assert pair(evolved, obs) == pair(state, obs)


@given(problem=problems())
def test_weak_limit_is_idempotent(problem):
    state, obs = problem
    once = weak_limit(state)
    assert pair(weak_limit(once), obs) == pair(once, obs)


@given(problem=problems(max_n=16))
def test_pair_matches_dense_oracle(problem):
    state, obs = problem
    assert abs(pair(state, obs) - dense_pair_oracle(state, obs)) <= TOL


@given(
    scheme=st.sampled_from(["uniform", "chebyshev"]),
    omega_max=st.floats(0.5, 50.0),
    ratio=st.floats(1e-5, 1.0),
)
def test_grid_size_for_spacing_is_the_smallest_fine_enough(scheme, omega_max, ratio):
    spacing = ratio * omega_max
    n = grid_size_for_spacing(omega_max, spacing, scheme)
    slack = 1e-9 * spacing  # closed form against the built grid's rounding
    assert make_grid(omega_max, n, scheme).min_spacing <= spacing + slack
    if n > 2:
        assert make_grid(omega_max, n - 1, scheme).min_spacing > spacing - slack
