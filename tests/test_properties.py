"""Property tests of the dephasing, grid, Fock-basis, energy-shell and
pointer-basis invariants over random inputs.

Grids are uniform or Clenshaw-Curtis with n <= 64; kernels are random
complex and non-Hermitian (``self_adjoint=False``), so no symmetry of the
inputs hides an error in the contraction.
"""
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vanhove import (
    CosmoState,
    ModeSet,
    Observable,
    RegularKernel,
    ShellState,
    SingularKernel,
    StateFunctional,
    cosmo_weak_limit,
    decay_profile,
    enumerate_fock,
    evolve,
    fit_gaussian_envelope,
    hamiltonian_observable,
    identity_observable,
    make_grid,
    observable_from_descriptors,
    pair,
    pointer_state,
    recurrence_time,
    sqrt_prime_modes,
    state_from_descriptors,
    weak_limit,
)
from vanhove.evolution import _TIME_BLOCK
from vanhove.kernels import grid_size_for_spacing
from vanhove.oracles import dense_pair_oracle
from vanhove.pointer import TIE_TOL

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


@given(
    sigmas=st.tuples(st.floats(0.3, 0.8), st.floats(0.3, 0.8)),
    centres=st.tuples(st.floats(4.5, 5.5), st.floats(4.5, 5.5)),
)
def test_gaussian_decay_matches_closed_form_rate(sigmas, centres):
    # Riemann-Lebesgue, quantitatively: separable gaussian kernels of widths
    # s1 (state) and s2 (observable) dephase as exp(-s^2 t^2), where
    # s^2 = s1^2 s2^2 / (s1^2 + s2^2) is the variance of their product
    (s1, s2), (m1, m2) = sigmas, centres
    rate = s1**2 * s2**2 / (s1**2 + s2**2)
    t_max = 5.0 / np.sqrt(rate)  # offdiag falls to exp(-25) of its start
    # a quarter of the recurrence time: the grid's alias of the decay,
    # exp(-rate (t_rec - t)^2), stays far below every fitted sample
    n = grid_size_for_spacing(10.0, 2.0 * np.pi / (4.0 * t_max))
    grid = make_grid(10.0, n)
    times = np.linspace(0.0, t_max, 101)
    assert times[-1] <= 0.8 * recurrence_time(grid)

    def gauss(mu, sigma):
        return {"type": "gaussian", "mu": mu, "sigma": sigma}

    state = state_from_descriptors(grid, gauss(m1, s1), gauss(m1, s1))
    obs = observable_from_descriptors(grid, gauss(m2, s2), gauss(m2, s2))
    prof = decay_profile(state, obs, times)
    fitted, _ = fit_gaussian_envelope(prof)
    assert abs(fitted - rate) <= 0.01 * rate
    ratio = prof.offdiag_abs / prof.offdiag_abs[0]
    assert np.all(np.abs(ratio - np.exp(-rate * times**2)) <= 0.01 * np.exp(-rate * times**2))


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


@st.composite
def fock_boxes(draw):
    """A mode set, an occupancy cap and an energy cut, the cut drawn as
    None, 0, a random value or exactly one of the box's energies."""
    modes = draw(st.integers(1, 5))
    n_max = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # integer moduli and m = 0: many vectors share one energy
        mode_set = ModeSet(np.arange(1.0, modes + 1.0), m=0.0, a_out=draw(st.floats(1.0, 30.0)))
    else:
        k = sqrt_prime_modes(modes, draw(st.floats(0.1, 3.0)))
        mode_set = ModeSet(k, m=draw(st.floats(0.01, 2.0)), a_out=draw(st.floats(1.0, 30.0)))
    freqs = mode_set.frequencies()
    top = float(n_max * freqs.sum())
    cut = draw(st.one_of(
        st.none(),
        st.just(0.0),
        st.floats(0.0, 1.1 * top),
        st.sampled_from(list(product(range(n_max + 1), repeat=modes))).map(
            lambda occ: float(np.dot(occ, freqs))
        ),
    ))
    return mode_set, n_max, cut


def rounding_gap_box():
    """A box whose cut equals the np.dot energy of (0, 0, 1, 3), which a
    running left-to-right sum overshoots by one ulp (with OpenBLAS ddot)."""
    mode_set = ModeSet(
        sqrt_prime_modes(4, 0.10794165049342948), m=1.716234510409263,
        a_out=1.9739816838584663,
    )
    return mode_set, 3, float(np.dot((0, 0, 1, 3), mode_set.frequencies()))


@settings(max_examples=200)
@given(box=fock_boxes())
@example(box=rounding_gap_box())
def test_pruned_fock_enumeration_equals_brute_force(box):
    mode_set, n_max, cut = box
    freqs = mode_set.frequencies()
    limit = np.inf if cut is None else cut
    every = [(float(np.dot(occ, freqs)), occ)
             for occ in product(range(n_max + 1), repeat=freqs.size)]
    kept = sorted(item for item in every if item[0] <= limit)
    basis = enumerate_fock(mode_set, n_max, cut)
    assert basis.occupations == tuple(occ for _, occ in kept)
    assert np.array_equal(basis.energies, np.array([e for e, _ in kept]))
    assert basis.truncated_count == len(every) - len(kept)


@given(
    box=fock_boxes(),
    eps_shell=st.one_of(st.just(1e-9), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_shell_slices_block_the_weak_limit(box, eps_shell, seed):
    mode_set, n_max, cut = box
    basis = enumerate_fock(mode_set, n_max, cut)
    e, d = basis.energies, basis.size
    shells = basis.shells(eps_shell)
    bounds = [(s.start, s.stop) for _, s in shells]
    assert all(s.step is None for _, s in shells)
    # the slices tile range(d) in order, none empty
    assert bounds[0][0] == 0 and bounds[-1][1] == d
    assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
    assert all(start < stop for start, stop in bounds)
    for energy, s in shells:
        assert energy == e[s.start]
        assert np.all(np.diff(e[s.start:s.stop]) <= eps_shell)
        if s.start:
            assert e[s.start] - e[s.start - 1] > eps_shell

    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (d, d)) + 1j * rng.uniform(-1.0, 1.0, (d, d))
    rho = raw + raw.conj().T
    rho[np.diag_indices(d)] = rng.uniform(0.5, 1.0, d)
    rho /= np.trace(rho).real
    state = CosmoState(basis, rho, eps_shell)
    shell_of = np.repeat(np.arange(len(bounds)), [stop - start for start, stop in bounds])
    same_shell = shell_of[:, None] == shell_of[None, :]
    assert np.array_equal(cosmo_weak_limit(state).matrix, np.where(same_shell, state.matrix, 0.0))
    removed = np.abs(state.matrix)[~same_shell]
    assert state.cross_block_magnitude() == removed.max(initial=0.0)


@st.composite
def psd_shells(draw):
    """Random PSD Hermitian shell blocks of size 1-8 with distinct energies;
    eigenvalues are drawn from a few values, so some repeat."""
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shells = []
    for omega in range(count):
        n = draw(st.integers(1, 8))
        levels = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
        spectrum = rng.choice(levels, size=n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(raw)
        block = (u * spectrum) @ u.conj().T
        shells.append(ShellState(float(omega), tuple(range(n)), 0.5 * (block + block.conj().T)))
    return shells


@given(shells=psd_shells())
def test_pointer_basis_reconstructs_and_is_unitary(shells):
    for shell, basis in zip(shells, pointer_state(shells)):
        scale = max(float(np.max(np.abs(shell.block))), np.finfo(float).tiny)
        assert np.max(np.abs(basis.reconstruct() - shell.block)) <= TOL * scale
        assert basis.unitarity_defect() <= TOL
        # numerically equal eigenvalues are ordered by label, not by value
        tie = TIE_TOL * max(1.0, float(np.max(np.abs(basis.eigenvalues))))
        assert np.all(np.diff(basis.eigenvalues) <= tie)
        for column in basis.unitary.T:
            # the phased component is the largest one; near-equal magnitudes
            # may swap order by an ulp when the column is rotated
            peak = float(np.max(np.abs(column)))
            assert np.any((column.imag == 0.0) & (column.real >= (1.0 - TOL) * peak))
