"""Property tests of the dephasing, grid, Fock-basis, energy-shell,
cosmological weak-limit, pointer-basis, classical-spectral and mollifier
invariants over random inputs.

Grids are uniform or Clenshaw-Curtis with n <= 64; kernels are random
complex and non-Hermitian (``self_adjoint=False``), so no symmetry of the
inputs hides an error in the contraction.
"""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vanhove import (
    CosmoState,
    ModeSet,
    MollifierPolicy,
    Observable,
    PhaseField,
    PhaseGrid,
    RegularKernel,
    ShellState,
    SingularKernel,
    StateFunctional,
    classical_expectation,
    classical_state_density,
    cosmo_expectation,
    cosmo_weak_limit,
    decay_profile,
    enumerate_fock,
    evolve,
    fit_gaussian_envelope,
    make_grid,
    observable_from_descriptors,
    pair,
    pointer_state,
    random_cosmo_state,
    recurrence_time,
    sqrt_prime_modes,
    state_from_descriptors,
    weak_limit,
    wigner_singular,
    zero_regular,
)
from vanhove.kernels import grid_size_for_spacing
from vanhove.oracles import dense_pair_oracle
from vanhove.pointer import TIE_TOL, _fix_phases
from vanhove import wigner
from vanhove.wigner import (
    DEGENERATE_MASS_TOL,
    REACH,
    ConstraintSet,
    _field_resolution,
    _HBins,
    _mollifier,
    _supported,
    harmonic_field,
)

TOL = 1e-12
EPS = np.finfo(float).eps


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


# 16^2 - 1, 16^2 and 16^2 + 1 samples fill the split m = c B + b (B = 16)
# short of, exactly and one past whole coarse rows
@pytest.mark.parametrize("count", [1, 255, 256, 257, 513])
@given(problem=problems(), reach=st.floats(0.0, 1.0))
def test_decay_profile_matches_evolve_then_pair(count, problem, reach):
    state, obs = problem
    stop = reach * recurrence_time(state.grid) * (count - 1) / count
    prof = decay_profile(state, obs, 0.0, stop, count)
    diag = pair(weak_limit(state), obs)
    ref = np.array([pair(evolve(state, t), obs) for t in prof.times])
    assert np.max(np.abs(prof.expectations - ref.real)) <= TOL
    assert np.max(np.abs(prof.offdiag_abs - np.abs(ref - diag))) <= TOL


@given(ends=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(sorted),
       count=st.integers(1, 300))
def test_decay_profile_times_are_the_linspace_of_its_progression(ends, count):
    # the samples reported are np.linspace(start, stop, count), bit for bit,
    # and they lie within the stray that kernels._contract's noise floor
    # allows of the progression start + m step it evaluates
    start, stop = ends
    grid = make_grid(1.0, 2)
    uniform = {"type": "uniform"}
    prof = decay_profile(state_from_descriptors(grid, uniform, uniform),
                         observable_from_descriptors(grid, uniform, uniform),
                         start, stop, count)
    assert prof.times.tobytes() == np.linspace(start, stop, count).tobytes()
    step = Fraction((stop - start) / (count - 1)) if count > 1 else Fraction(0)
    reach = Fraction(max(abs(start), abs(stop)) if count > 1 else abs(start))
    # 4 u max|t| to first order, and a subnormal step's absolute roundings
    bound = 4 * Fraction(EPS / 2) * reach * (1 + 2 * Fraction(EPS)) + count * Fraction(2.0**-1074)
    for m, t in enumerate(prof.times.tolist()):
        assert abs(Fraction(t) - (Fraction(start) + m * step)) <= bound, m


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
    assert t_max <= 0.8 * recurrence_time(grid)

    def gauss(mu, sigma):
        return {"type": "gaussian", "mu": mu, "sigma": sigma}

    state = state_from_descriptors(grid, gauss(m1, s1), gauss(m1, s1))
    obs = observable_from_descriptors(grid, gauss(m2, s2), gauss(m2, s2))
    prof = decay_profile(state, obs, 0.0, t_max, 101)
    fitted, _ = fit_gaussian_envelope(prof)
    assert abs(fitted - rate) <= 0.01 * rate
    ratio = prof.offdiag_abs / prof.offdiag_abs[0]
    decay = np.exp(-rate * prof.times**2)
    assert np.all(np.abs(ratio - decay) <= 0.01 * decay)


@given(problem=problems())
def test_diag_value_is_the_weak_limit_pairing_bit_for_bit(problem):
    state, obs = problem
    prof = decay_profile(state, obs, 0.0, 0.0, 1)
    assert prof.diag_value.hex() == pair(weak_limit(state), obs).real.hex()


@given(problem=problems(), t=st.floats(-1e3, 1e3))
def test_norm_and_energy_conserved_under_evolve(problem, t):
    state, _ = problem
    evolved = evolve(state, t)
    grid = state.grid
    identity = observable_from_descriptors(grid, {"type": "uniform"})
    energy = Observable(SingularKernel(grid, grid.points), zero_regular(grid), self_adjoint=True)
    for obs in (identity, energy):
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


def spread_shell_box():
    """27 vectors whose 0.3-wide shells hold up to 7 distinct energies."""
    return ModeSet(sqrt_prime_modes(3, 1.0), m=0.5, a_out=5.0), 2, None


@settings(max_examples=60)
@given(
    box=fock_boxes(),
    eps_shell=st.one_of(st.just(1e-9), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.5, 1e3),
)
@example(box=spread_shell_box(), eps_shell=0.3, seed=7, t=100.0)
def test_commuting_observable_sees_the_weak_limit(box, eps_shell, seed, t):
    # an observable block-diagonal on the energy shells commutes with H, so
    # its expectation never moves from its weak-limit value; phases use each
    # shell's one energy, so this holds for shells of distinct energies too
    mode_set, n_max, cut = box
    basis = enumerate_fock(mode_set, n_max, cut)
    rng = np.random.default_rng(seed)
    state = random_cosmo_state(basis, rng, eps_shell=eps_shell)
    obs = np.zeros((basis.size, basis.size), dtype=complex)
    norm = 0.0
    for _, s in basis.shells(eps_shell):
        k = s.stop - s.start
        raw = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        obs[s, s] = raw + raw.conj().T
        norm = max(norm, float(np.linalg.norm(obs[s, s], 2)))
    limit = cosmo_expectation(cosmo_weak_limit(state), obs, 0.0)
    assert abs(cosmo_expectation(state, obs, t) - limit) <= 1e-12 * norm


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


def fix_phases_by_column(vecs):
    """Each column rotated on its own so that its first largest-magnitude
    component is real and positive; a zero column stays as it is."""
    out = vecs.copy()
    for col in range(out.shape[1]):
        v = out[:, col]
        k = int(np.argmax(np.abs(v)))
        pivot = v[k]
        if pivot != 0:
            out[:, col] = v * (abs(pivot) / pivot)
            out[k, col] = abs(pivot)
    return out


@st.composite
def phase_matrices(draw):
    """A complex n x m matrix, 1 <= n, m <= 12, of random magnitude, in C or
    Fortran order, in which some columns have two components of one largest
    magnitude (z and i z) and some are zero, with signed zeros."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    vecs = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    for col in range(m):
        kind = draw(st.sampled_from(["random", "tie", "zero"]))
        if kind == "tie" and n > 1:
            i, j = rng.choice(n, 2, replace=False)
            vecs[i, col] = 2.0 * np.max(np.abs(vecs[:, col]))
            vecs[j, col] = 1j * vecs[i, col]
        elif kind == "zero":
            vecs[:, col] = rng.choice([0.0, -0.0], n) + 1j * rng.choice([0.0, -0.0], n)
    return np.asfortranarray(vecs) if draw(st.booleans()) else vecs


@settings(max_examples=300)
@given(vecs=phase_matrices())
def test_fix_phases_is_the_column_loop_bit_for_bit(vecs):
    assert _fix_phases(vecs).tobytes() == fix_phases_by_column(vecs).tobytes()


def random_cosmo_matrix_out_of_place(basis, rng, coherence):
    """The random state's matrix from out-of-place expressions: the mix
    m = c rho + (1 - c) diag(diag rho) of the normalized Gram product, then
    0.5 (m + m^H)."""
    d = basis.size
    amp = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = amp @ amp.conj().T
    rho /= np.trace(rho).real
    mixed = coherence * rho + (1.0 - coherence) * np.diag(np.diag(rho))
    return 0.5 * (mixed + mixed.conj().T)


@settings(max_examples=100)
@given(
    d=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    # at c = 0, c x is -0.0 for a negative part x of an off-diagonal entry
    coherence=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)),
)
@example(d=60, seed=0, coherence=0.0)
def test_random_cosmo_state_is_the_out_of_place_mix_bit_for_bit(d, seed, coherence):
    # one mode of frequency 1 cut at d - 1: the vectors of 0 to d - 1 quanta
    basis = enumerate_fock(ModeSet([1.0], m=0.0, a_out=1.0), max(d - 1, 1), d - 1)
    assert basis.size == d
    state = random_cosmo_state(basis, np.random.default_rng(seed), coherence)
    expected = random_cosmo_matrix_out_of_place(basis, np.random.default_rng(seed), coherence)
    assert state.matrix.tobytes() == expected.tobytes()


# one energy grid and harmonic phase window for every classical-spectral draw
SPECTRAL_GRID = make_grid(3.0, 128)
HARMONIC = harmonic_field(PhaseGrid((-2.8, 2.8), (-2.8, 2.8), 151, 151))
MOLLIFIER = MollifierPolicy(0.12)


@settings(max_examples=40)
@given(
    state_mu=st.floats(0.8, 1.8),
    state_sigma=st.floats(0.2, 0.5),
    obs_mu=st.floats(0.5, 2.0),
    obs_sigma=st.floats(0.3, 0.8),
)
def test_classical_expectation_matches_spectral_pairing(
    state_mu, state_sigma, obs_mu, obs_sigma
):
    state = state_from_descriptors(
        SPECTRAL_GRID, {"type": "gaussian", "mu": state_mu, "sigma": state_sigma}
    )
    obs = observable_from_descriptors(
        SPECTRAL_GRID, {"type": "gaussian", "mu": obs_mu, "sigma": obs_sigma}
    )
    density = classical_state_density(state.singular, HARMONIC, MOLLIFIER)
    classical = classical_expectation(density, wigner_singular(obs.singular, HARMONIC))
    quantum = pair(weak_limit(state), obs).real
    slopes = np.diff(obs.singular.values.real) / np.diff(SPECTRAL_GRID.points)
    # the bound of acceptance criterion 7: mollifying shifts O(H) by ~ eps Lip(O)
    assert abs(classical - quantum) <= 1e-6 + 3.0 * MOLLIFIER.epsilon * np.max(np.abs(slopes))
    assert abs(density.h_mass() - 1.0) <= 1e-6


@st.composite
def staircase_fields(draw):
    """1-3 quantized quadratic fields on a grid with nq != np, so each field
    takes few distinct values, each on many cells; a width epsilon that
    resolves every field; one level per field near a common cell."""
    nq = draw(st.integers(3, 24))
    np_ = nq + draw(st.integers(1, 12))
    if draw(st.booleans()):
        nq, np_ = np_, nq
    grid = PhaseGrid((-1.0, 1.5), (-2.0, 0.5), nq, np_)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    qm, pm = grid.meshes()
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        c = rng.uniform(-1.0, 1.0, 4)
        smooth = c[0] * qm + c[1] * pm + c[2] * qm**2 + c[3] * pm**2
        step = rng.uniform(0.05, 0.5) * (np.ptp(smooth) + 1e-3)
        fields.append(PhaseField(grid, np.floor(smooth / step) * step))
    res = max(_field_resolution(f) for f in fields)
    eps = max(draw(st.floats(0.02, 2.0)), 1.5 * res)
    i, j = rng.integers(nq), rng.integers(np_)
    levels = [float(f.values[i, j] + rng.normal(0.0, 0.5 * eps)) for f in fields]
    return fields, eps, levels


# Masses are sums of up to 864 positive cell terms, taken per H bin in the
# reference and per distinct value in ConstraintSet.summed; their rounding
# differs by up to about 60 ulp (the worst of 1,500 draws), and a value
# inherits its mass's error.  A wrong share or a wrong factor is off by O(1).
SUM_ULPS = 128
# summed keeps a factor only within REACH eps of its level, where it is at
# least CUT = 2^-54.  A cell's product thus loses less than CUT, and so does
# each bin mean: a raw mass m~ is short of the untruncated m by at most CUT S,
# S the bin width times the bin count, and a cell's value is off by at most
# CUT sum_k (w_k / m~_k) (1 + S / m_k).
CUT = EPS / 4


def component_reference(fields, eps, levels):
    """One unit-weight component formed cell by cell from ``_mollifier`` and
    ``_HBins``, with no cut: its raw product and raw mass."""
    raw = np.ones(fields[0].values.shape)
    for field, level in zip(fields, levels):
        raw = raw * _mollifier(field.values, level, eps)
    return raw, _HBins(fields[0], eps).mass(raw)


def summed_cells(constraints, levels, weights):
    """``summed``'s sum gathered at the cells, as ``density`` gathers it, and
    the masses."""
    totals, masses = constraints.summed(levels, weights)
    return constraints.density(totals).field.values, masses


def assert_close_to_max(values, reference):
    assert np.max(np.abs(values - reference)) <= SUM_ULPS * EPS * np.max(np.abs(reference))


def assert_summed_matches_reference(fields, eps, levels, weights, values, masses):
    """``summed``'s values and masses against the job-order sum of untruncated
    components, within rounding and the cut; the components summed are those
    whose returned mass reaches DEGENERATE_MASS_TOL."""
    bins = _HBins(fields[0], eps)
    span = bins.width * bins.nbins
    reference, cut = np.zeros(fields[0].values.shape), 0.0
    for lv, weight, got in zip(levels, weights, masses):
        raw, mass = component_reference(fields, eps, lv)
        assert abs(got - mass) <= SUM_ULPS * EPS * mass + CUT * span
        if got >= DEGENERATE_MASS_TOL:
            reference += raw * (weight / mass)
            cut += CUT * (weight / got) * (1.0 + span / mass)
    assert np.max(np.abs(values - reference)) <= SUM_ULPS * EPS * np.max(reference) + cut


def in_reach(fields, eps, levels):
    """Cells where every field is within reach of its level, as summed decides
    it: l - REACH eps <= L <= l + REACH eps in floating point."""
    reach = REACH * eps
    return np.logical_and.reduce([
        (f.values >= level - reach) & (f.values <= level + reach)
        for f, level in zip(fields, levels)
    ])


@given(problem=staircase_fields(), weight=st.floats(0.1, 10.0))
def test_distinct_value_mollifier_is_the_per_cell_product(problem, weight):
    fields, eps, levels = problem
    constraints = ConstraintSet(fields, MollifierPolicy(eps))
    values, masses = summed_cells(constraints, [levels], [weight])
    assert_summed_matches_reference(fields, eps, [levels], [weight], values, masses)
    if masses[0] < DEGENERATE_MASS_TOL:
        assert not values.any()
        with pytest.raises(ValueError, match="raw mass"):
            _supported(constraints, [levels], [1.0])
    else:
        density = _supported(constraints, [levels], [1.0])
        assert_summed_matches_reference(fields, eps, [levels], [1.0], density.field.values, masses)


@st.composite
def staircase_mixtures(draw):
    """Fields and a width from ``staircase_fields`` with 1-12 components:
    each has levels near a random cell and a weight that may be 0; some
    move one level 4-60 widths away, so their intersection is empty."""
    fields, eps, _ = draw(staircase_fields())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nq, np_ = fields[0].values.shape
    levels, weights = [], []
    for _ in range(draw(st.integers(1, 12))):
        i, j = rng.integers(nq), rng.integers(np_)
        lv = [float(f.values[i, j] + rng.normal(0.0, 0.5 * eps)) for f in fields]
        if draw(st.booleans()) and draw(st.booleans()):
            lv[rng.integers(len(lv))] += float(rng.choice([-1.0, 1.0]) * rng.uniform(4.0, 60.0)) * eps
        levels.append(lv)
        weights.append(draw(st.just(0.0) | st.floats(0.1, 10.0)))
    return fields, eps, levels, weights


@settings(max_examples=150)
@given(problem=staircase_mixtures())
def test_summed_density_is_the_job_order_sum_of_components(problem):
    fields, eps, levels, weights = problem
    values, masses = summed_cells(ConstraintSet(fields, MollifierPolicy(eps)), levels, weights)
    assert_summed_matches_reference(fields, eps, levels, weights, values, masses)


@st.composite
def banded_mixtures(draw):
    """A mixture from ``staircase_mixtures`` in which some components have a
    level whose reach ends exactly on a distinct value of its field (l - R
    or l + R equals it in floating point), plus one component, at a random
    place, whose level in one field is beyond reach of all its values."""
    fields, eps, levels, weights = draw(staircase_mixtures())
    reach = REACH * eps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for lv in levels:
        if draw(st.booleans()):
            i, side = rng.integers(len(fields)), float(rng.choice([-1.0, 1.0]))
            distinct = np.unique(fields[i].values)
            edge = distinct[np.argmin(np.abs(distinct - (lv[i] + side * reach)))]
            level = edge - side * reach
            for near in (level, np.nextafter(level, -np.inf), np.nextafter(level, np.inf)):
                if near + side * reach == edge:
                    lv[i] = float(near)
                    break
    far = list(levels[0])
    i = rng.integers(len(fields))
    values = fields[i].values
    far[i] = float(rng.choice([values.min() - 1.01 * reach, values.max() + 1.01 * reach]))
    empty = int(rng.integers(len(levels) + 1))
    levels.insert(empty, far)
    weights.insert(empty, draw(st.floats(0.1, 10.0)))
    return fields, eps, levels, weights, empty


@settings(max_examples=150)
@given(problem=banded_mixtures(), data=st.data())
def test_summed_density_drops_only_factors_out_of_reach(problem, data):
    fields, eps, levels, weights, empty = problem
    constraints = ConstraintSet(fields, MollifierPolicy(eps))
    values, masses = summed_cells(constraints, levels, weights)
    assert_summed_matches_reference(fields, eps, levels, weights, values, masses)

    # a cell is nonzero exactly where a supported component reaches it; the
    # reach includes its ends, so a band one value short misses a cell here
    reached = np.zeros(values.shape, dtype=bool)
    for lv, weight, mass in zip(levels, weights, masses):
        if weight > 0.0 and mass >= DEGENERATE_MASS_TOL:
            reached |= in_reach(fields, eps, lv)
    assert np.array_equal(values > 0.0, reached)
    assert not values[~reached].any()

    # a component with no value in reach has no mass at all, and is refused
    assert masses[empty] == 0.0
    with pytest.raises(ValueError, match=r"raw mass 0\.000e\+00;"):
        _supported(constraints, [levels[empty]], [1.0])

    # any component order gives the same sum, and masses in the caller's order
    order = np.array(data.draw(st.permutations(range(len(levels)))))
    shuffled, shuffled_masses = summed_cells(
        constraints, np.asarray(levels)[order], np.asarray(weights)[order]
    )
    assert np.all(np.abs(shuffled_masses - masses[order]) <= SUM_ULPS * EPS * masses[order])
    assert_close_to_max(shuffled, values)


@st.composite
def shell_mixtures(draw):
    """A harmonic field on a square grid of 16-64 points a side, a width that
    resolves it, and 20-300 shells over its H range with random weights, so
    that the band rule puts many components in a block."""
    n = draw(st.integers(16, 64))
    hfield = harmonic_field(PhaseGrid((-3.0, 3.0), (-3.0, 3.0), n, n))
    eps = draw(st.floats(1.5, 6.0)) * _field_resolution(hfield)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(20, 300))
    levels = rng.uniform(0.0, 9.0, (count, 1))
    return [hfield], eps, levels.tolist(), rng.uniform(0.1, 10.0, count).tolist()


def blocks_of_five(rows, columns, budget):
    """Five components a block, whatever their bands."""
    return (slice(start, start + 5) for start in range(0, rows[0].size, 5))


@settings(max_examples=60)
@given(problem=st.one_of(staircase_mixtures(), shell_mixtures()))
def test_summed_by_the_band_rule_matches_blocks_of_five(problem):
    # the blocks change only the order of summation
    fields, eps, levels, weights = problem
    constraints = ConstraintSet(fields, MollifierPolicy(eps))
    values, masses = summed_cells(constraints, levels, weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wigner, "_blocks", blocks_of_five)
        fives, five_masses = summed_cells(constraints, levels, weights)
    assert np.all(np.abs(masses - five_masses) <= SUM_ULPS * EPS * five_masses)
    assert_close_to_max(values, fives)
    assert_summed_matches_reference(fields, eps, levels, weights, values, masses)


@settings(max_examples=60)
@given(problem=st.one_of(staircase_mixtures(), shell_mixtures()))
def test_band_rule_blocks_hold_one_phase_field_of_factors(problem):
    # each block's factors, K x (band rows + band columns) entries, fit in
    # one phase field unless the block is a single component, and one more
    # component would not have fitted
    fields, eps, levels, weights = problem
    constraints = ConstraintSet(fields, MollifierPolicy(eps))
    cells = fields[0].values.size
    blocks, calls = [], []
    real_blocks, real_mollifier = wigner._blocks, wigner._mollifier

    def recording_blocks(rows, columns, budget):
        assert budget == cells
        for block in real_blocks(rows, columns, budget):
            blocks.append((rows, columns, block))
            calls.append([])
            yield block

    def counting(distinct, lv, epsilon):
        calls[-1].append(np.size(distinct) * np.size(lv))
        return real_mollifier(distinct, lv, epsilon)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wigner, "_blocks", recording_blocks)
        patch.setattr(wigner, "_mollifier", counting)
        constraints.summed(levels, weights)

    def entries(rows, columns, start, stop):
        (lo, hi), (column_lo, column_hi) = rows, columns
        width = hi[stop - 1] - lo[start] + column_hi[start:stop].max() - column_lo[start:stop].min()
        return (stop - start) * int(width)

    assert [b.start for _, _, b in blocks] == [0] + [b.stop for _, _, b in blocks[:-1]]
    assert blocks[-1][2].stop == len(levels)
    for (rows, columns, block), sizes in zip(blocks, calls):
        count = entries(rows, columns, block.start, block.stop)
        # the row factors, and the column factors when there is a column group
        evaluated = sizes[0] + (sizes[-1] if len(fields) > 1 else block.stop - block.start)
        assert evaluated == count
        assert count <= cells or block.stop - block.start == 1
        if block.stop < len(levels):
            assert entries(rows, columns, block.start, block.stop + 1) > cells


@settings(max_examples=60)
@given(problem=st.one_of(staircase_mixtures(), shell_mixtures()), data=st.data())
def test_summed_sums_each_distinct_level_row_once(problem, data):
    # every row 1-4 times, each copy with a weight of its own, shuffled
    fields, eps, levels, _ = problem
    assume(len(np.unique(levels, axis=0)) == len(levels))
    constraints = ConstraintSet(fields, MollifierPolicy(eps))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    copies = rng.permutation(np.repeat(np.arange(len(levels)), rng.integers(1, 5, len(levels))))
    weights = rng.choice([0.0, 1.0], copies.size, p=[0.2, 0.8]) * rng.uniform(0.1, 10.0, copies.size)
    totals, masses = constraints.summed(np.asarray(levels)[copies], weights)

    # the masses, in the caller's order, are those of the distinct rows
    _, distinct_masses = constraints.summed(levels, np.ones(len(levels)))
    assert np.array_equal(masses, distinct_masses[copies])

    # the totals are the copy-by-copy sum of unit-weight components, within
    # the rounding of adding the weights first: every term is nonnegative,
    # so the difference is within SUM_ULPS ulps of the largest total
    units = [constraints.summed([lv], [1.0])[0] for lv in levels]
    reference = np.zeros_like(totals)
    for row, weight in zip(copies, weights):
        reference += weight * units[row]
    assert_close_to_max(totals, reference)


@st.composite
def cosmo_averaging_problems(draw):
    """A random state and Hermitian observable on a basis of at most 3
    sqrt-prime modes and 27 vectors whose shell spectrum spans at most 40
    of its smallest gaps, with the window length T and trapezoid step h."""
    modes = draw(st.integers(1, 3))
    mode_set = ModeSet(
        sqrt_prime_modes(modes, draw(st.floats(0.2, 3.0))),
        m=draw(st.floats(0.0, 1.0)), a_out=draw(st.floats(1.0, 5.0)),
    )
    basis = enumerate_fock(mode_set, draw(st.integers(1, 2)), None)
    eps_shell = draw(st.one_of(st.just(1e-9), st.floats(0.0, 0.3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_cosmo_state(basis, rng, draw(st.floats(0.1, 1.0)), eps_shell)
    raw = rng.standard_normal((basis.size,) * 2) + 1j * rng.standard_normal((basis.size,) * 2)
    levels = np.unique(state.shell_energies())
    assume(levels.size > 1)
    gap, span = float(np.diff(levels).min()), float(np.ptp(levels))
    assume(span <= 40.0 * gap)
    # the window is 10 periods of the smallest gap; the step keeps the
    # trapezoid error of each term below the averaging bound of that term
    t_max = 10.0 / gap
    steps = int(np.ceil(np.sqrt(t_max**3 * span**3 / 24.0)))
    return state, raw + raw.conj().T, t_max, steps


@settings(max_examples=30)
@given(problem=cosmo_averaging_problems())
def test_cosmo_time_average_approaches_the_weak_limit(problem):
    # <O>(t) = sum_ij c_ij exp(-i D_ij t) with c_ij = rho_ij O_ji and D_ij the
    # shell-energy difference.  Over [0, T] a cross-shell term averages to at
    # most 2 |c_ij| / (|D_ij| T), at most 2 |rho_cross| |O| / (min gap T) in
    # all; the trapezoid rule with step h adds at most h^2 D_ij^2 |c_ij| / 12.
    state, obs, t_max, steps = problem
    times = np.linspace(0.0, t_max, steps + 1)
    values = np.array([cosmo_expectation(state, obs, t) for t in times])
    mean = float(np.sum(values[1:] + values[:-1]) / (2 * steps))
    limit = cosmo_expectation(cosmo_weak_limit(state), obs, 0.0)

    e = state.shell_energies()
    delta = np.abs(np.subtract.outer(e, e))
    weight = np.abs(state.matrix * obs.T)
    cross = delta > 0
    h = t_max / steps
    averaging = np.sum(2.0 * weight[cross] / (delta[cross] * t_max))
    quadrature = np.sum(h**2 * delta[cross] ** 2 * weight[cross] / 12.0)
    rounding = 1e-12 * float(weight.sum())
    assert abs(mean - limit) <= averaging + quadrature + rounding
