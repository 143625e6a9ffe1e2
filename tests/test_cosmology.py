import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vanhove
from vanhove import (
    CosmoState,
    IncompatibleBasisError,
    InvalidPotentialError,
    MollifierPolicy,
    ModeSet,
    NotEquilibratedError,
    PhaseGrid,
    constant_potential,
    cosmo_expectation,
    cosmo_weak_limit,
    diagonalize_remaining,
    enumerate_fock,
    mass_within,
    multi_invariant_density,
    quadratic_cap_potential,
    random_cosmo_state,
    solve_scale_factor,
    sqrt_prime_modes,
    table_potential,
    trajectory_ensemble,
    uniform_cosmo_state,
)
from vanhove.oracles import conjugation_expectation_oracle, scale_factor_oracle
from vanhove.wigner import momentum_field
from ridge import free_flight_ridge


def degenerate_mode_set():
    # moduli one ulp apart: frequencies collide to the shell tolerance
    return ModeSet([0.5, 0.5 + 1e-13], m=0.0, a_out=20.0)


def degenerate_basis():
    return enumerate_fock(degenerate_mode_set(), n_max=1)


def mixed_degenerate_state(p_plus=0.63, p_minus=0.27, rest=0.05):
    basis = degenerate_basis()
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = rest
    mat[3, 3] = rest
    mid = 0.5 * (p_plus + p_minus)
    off = 0.5 * (p_plus - p_minus)
    mat[1, 1] = mat[2, 2] = mid
    mat[1, 2] = mat[2, 1] = off
    return CosmoState(basis, mat)


class TestPotential:
    def test_constant(self):
        pot = constant_potential(2.0, a1=1.0)
        assert pot.value(0.3) == 2.0
        assert pot.value(1.0) == 2.0
        assert pot.value(1.5) == 0.0

    def test_quadratic_cap(self):
        pot = quadratic_cap_potential(3.0, a1=2.0)
        assert pot.value(0.0) == 3.0
        assert pot.value(2.0) == 0.0
        assert pot.value(1.0) == pytest.approx(2.25)
        assert pot.value(2.5) == 0.0

    def test_table(self):
        pot = table_potential([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
        assert pot.value(0.5) == pytest.approx(0.75)
        assert pot.value(3.0) == 0.0

    def test_negative_table_rejected(self):
        with pytest.raises(InvalidPotentialError):
            table_potential([0.0, 1.0], [1.0, -0.5])

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidPotentialError):
            constant_potential(-1.0, a1=1.0)

    @pytest.mark.parametrize(
        "a, v, index",
        [
            ([0.0, 0.5, 1.0], [1.0, 0.0, 1.0], 1),  # zero at an inner sample
            ([0.2, 0.5, 1.0], [0.0, 1.0, 1.0], 0),  # V[0] extends down to a = 0
            ([0.0, 0.4, 0.8], [1.0, 1.0, 0.0], 2),  # last sample below a1 = 1
        ],
    )
    def test_zero_inside_support_rejected(self, a, v, index):
        # the path could rest at the zero or leave it: no unique a(eta)
        with pytest.raises(InvalidPotentialError, match=rf"sample {index} \(a = {a[index]}\)"):
            table_potential(a, v, a1=1.0)


class TestScaleFactor:
    def test_constant_potential_closed_form(self):
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=0.2, branch=1, eta_max=1.0)
        root = np.sqrt(4.0)
        expected = np.minimum(0.2 + root * sol.eta_samples, 1.0)
        assert np.max(np.abs(sol.a_samples - expected)) < 1e-15
        assert sol.freeze_eta == pytest.approx(0.8 / root, abs=1e-15)

    def test_freeze_exact(self):
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=0.2, branch=1, eta_max=1.0)
        frozen = sol.eta_samples > sol.freeze_eta
        assert np.all(sol.a_samples[frozen] == 1.0)
        s_final = sol.s_samples[frozen]
        assert np.all(s_final == s_final[0])

    def test_contracting_branch(self):
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=1.0, branch=-1, eta_max=0.6)
        live = sol.eta_samples < sol.freeze_eta
        expected = 1.0 - 2.0 * sol.eta_samples[live]
        assert np.max(np.abs(sol.a_samples[live] - expected)) < 1e-15
        assert np.all(np.diff(sol.a_samples[live]) < 0)

    def test_start_at_boundary_frozen(self):
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=1.0, branch=1, eta_max=0.5)
        assert np.all(sol.a_samples == 1.0)
        assert sol.freeze_eta == 0.0

    @pytest.mark.parametrize(
        "pot, a0, branch",
        [
            (constant_potential(0.0, a1=1.0), 0.4, 1),  # lambda = 0
            (quadratic_cap_potential(1.5, a1=2.0), 2.0, -1),  # V(a1) = 0
            (table_potential([0.0, 1.0], [0.0, 1.0]), 0.0, 1),  # V(0) = 0
        ],
    )
    def test_start_at_rest_stays(self, pot, a0, branch):
        # da/deta = 0 at a0: resting is a solution, and the one returned
        sol = solve_scale_factor(pot, a0=a0, branch=branch, eta_max=2.0)
        assert np.all(sol.a_samples == a0)
        assert np.all(sol.s_samples == 0.0)
        assert sol.freeze_eta is None

    def test_zero_at_support_edge_reached_in_finite_time(self):
        # V vanishes at a1 and at 0: u = sqrt(2 V) falls linearly to 0 on the
        # last segment, so the edge is reached after 2 (a_e - a_s) / u_s
        pot = table_potential([0.0, 1.0, 2.0], [1.0, 0.5, 0.0])
        sol = solve_scale_factor(pot, a0=0.5, branch=1, eta_max=5.0)
        assert sol.freeze_eta == pytest.approx(1.0 / (np.sqrt(1.5) + 1.0) + 2.0, abs=1e-15)
        assert np.all(sol.a_samples[sol.eta_samples >= sol.freeze_eta] == 2.0)
        pot = table_potential([0.0, 1.0], [0.0, 1.0])
        sol = solve_scale_factor(pot, a0=0.8, branch=-1, eta_max=2.0)
        assert sol.freeze_eta == pytest.approx(np.sqrt(1.6), abs=1e-15)
        assert np.all(sol.a_samples[sol.eta_samples >= sol.freeze_eta] == 0.0)

    def test_quadratic_cap_closed_form(self):
        # separable: a(eta) = a1 sin(sqrt(2 lam)/a1 eta + asin(a0/a1))
        lam, a1, a0 = 1.5, 2.0, 0.4
        pot = quadratic_cap_potential(lam, a1)
        sol = solve_scale_factor(pot, a0=a0, branch=1, eta_max=1.2)
        rate = np.sqrt(2.0 * lam) / a1
        expected = a1 * np.sin(rate * sol.eta_samples + np.arcsin(a0 / a1))
        assert sol.freeze_eta is None
        assert np.max(np.abs(sol.a_samples - expected)) < 1e-15

    def test_quadratic_cap_freezes_at_quarter_turn(self):
        lam, a1, a0 = 0.8, 1.5, 0.1
        rate = np.sqrt(2.0 * lam) / a1
        sol = solve_scale_factor(quadratic_cap_potential(lam, a1), a0, 1, 3.0)
        assert sol.freeze_eta == pytest.approx(
            (np.pi / 2.0 - np.arcsin(a0 / a1)) / rate, abs=1e-15
        )

    @staticmethod
    def hj_residual(sol, pot):
        ds = np.diff(sol.s_samples)
        da = np.diff(sol.a_samples)
        moving = np.abs(da) > 1e-6
        midpoints = 0.5 * (sol.a_samples[1:] + sol.a_samples[:-1])
        return np.max(
            np.abs((ds[moving] / da[moving]) ** 2 - 2.0 * pot.value(midpoints[moving]))
        )

    def test_hamilton_jacobi_residual_linear_family(self):
        # a and S are both linear in eta, so the divided difference is
        # exact and the residual is rounding of the differences alone
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=0.1, branch=1, eta_max=0.4)
        assert self.hj_residual(sol, pot) < 1e-11

    def test_hamilton_jacobi_residual_curved_family(self):
        # with curvature the divided difference carries an O(sample^2)
        # midpoint error
        pot = quadratic_cap_potential(1.5, 2.0)
        coarse = solve_scale_factor(pot, 0.4, 1, 1.0, n_samples=257)
        fine = solve_scale_factor(pot, 0.4, 1, 1.0, n_samples=1025)
        r_coarse = self.hj_residual(coarse, pot)
        r_fine = self.hj_residual(fine, pot)
        assert r_coarse < 1e-5
        assert r_coarse / r_fine > 15.0  # second order in the sample spacing

    def test_monotone_while_potential_positive(self):
        pot = constant_potential(1.0, a1=2.0)
        sol = solve_scale_factor(pot, a0=0.0, branch=1, eta_max=1.0)
        live = sol.eta_samples < (sol.freeze_eta or np.inf)
        assert np.all(np.diff(sol.a_samples[live]) > 0)

    def test_argument_validation(self):
        pot = constant_potential(1.0, a1=1.0)
        with pytest.raises(ValueError):
            solve_scale_factor(pot, a0=2.0, branch=1, eta_max=1.0)
        with pytest.raises(ValueError):
            solve_scale_factor(pot, a0=0.5, branch=2, eta_max=1.0)
        with pytest.raises(ValueError, match="eta_max"):
            solve_scale_factor(pot, a0=0.5, branch=1, eta_max=0.0)

    def test_csv_export(self, tmp_path):
        pot = constant_potential(2.0, a1=1.0)
        sol = solve_scale_factor(pot, a0=0.2, branch=1, eta_max=1.0, n_samples=9)
        path = tmp_path / "sf.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eta,a,S"
        assert len(lines) == 10


@st.composite
def hj_problems(draw):
    """A potential of any family, a start a0 in [0, a1], a branch and a
    time span that ends before the boundary is reached or after."""
    family = draw(st.sampled_from(["constant", "quadratic-cap", "table"]))
    a1 = draw(st.floats(0.5, 3.0))
    if family == "table":
        size = draw(st.integers(3, 8))
        gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=size - 1,
                                      max_size=size - 1)))
        a = a1 * np.r_[0.0, np.cumsum(gaps)] / gaps.sum()
        v = draw(st.lists(st.floats(0.1, 3.0), min_size=size, max_size=size))
        pot = table_potential(a, v, a1)
    else:
        lam = draw(st.floats(0.1, 3.0))
        make = constant_potential if family == "constant" else quadratic_cap_potential
        pot = make(lam, a1)
    a0 = a1 * draw(st.floats(0.0, 1.0))
    return pot, a0, draw(st.sampled_from([1, -1])), draw(st.floats(0.1, 4.0))


# DOP853 at tol=1e-12 puts freeze_eta up to 4e-9 off on tables, whose kinks
# its error estimate does not see; at 1e-13 it stays below 4e-10
ORACLE_TOL = 1e-13
# the expanding cap meets a1 tangentially (da/deta -> 0), where the
# oracle's event is located only to about sqrt(tol): 1e-6 to 1e-5 seen
CAP_FREEZE_TOL = 1e-4


@settings(max_examples=60)
@given(hj_problems())
def test_scale_factor_matches_dop853_oracle(problem):
    pot, a0, branch, eta_max = problem
    sol = solve_scale_factor(pot, a0, branch, eta_max, n_samples=65)
    ref = scale_factor_oracle(pot, a0, branch, eta_max, tol=ORACLE_TOL, n_samples=65)
    assert np.max(np.abs(sol.a_samples - ref.a_samples)) < 1e-9
    assert np.max(np.abs(sol.s_samples - ref.s_samples)) < 1e-8

    tangential = pot.family == "quadratic-cap" and branch == 1
    bound = CAP_FREEZE_TOL if tangential else 1e-9
    if sol.freeze_eta is None or ref.freeze_eta is None:
        # one crossing may fall past eta_max and the other not
        found = sol.freeze_eta if ref.freeze_eta is None else ref.freeze_eta
        assert found is None or eta_max - found < bound
    else:
        assert abs(sol.freeze_eta - ref.freeze_eta) < bound

    # exact identities of the closed form
    assert np.all(np.diff(sol.s_samples) >= 0.0)
    if sol.freeze_eta is not None:
        frozen = sol.eta_samples >= sol.freeze_eta
        boundary = pot.a1 if branch == 1 else 0.0
        assert np.all(sol.a_samples[frozen] == boundary)
        assert np.all(sol.s_samples[frozen] == sol.s_samples[frozen][0])


def test_only_oracles_imports_scipy():
    # the run path is numpy only; scipy serves the reference computations
    importers = set()
    for path in sorted(Path(vanhove.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"oracles.py"}


class TestModes:
    def test_frequency_values(self):
        # sqrt(m^2 a^2 + k^2); ModeSet needs a_out > 0, so the massless
        # case stands in for a = 0
        frequencies = ModeSet([3.0], m=1.0, a_out=2.0).frequencies()
        assert frequencies == pytest.approx([np.sqrt(13.0)], abs=1e-12)
        assert ModeSet([2.0], m=0.0, a_out=1.0).frequencies() == pytest.approx([2.0])

    def test_mode_set_validation(self):
        with pytest.raises(ValueError):
            ModeSet([2.0, 1.0], m=0.0, a_out=1.0)  # not sorted
        with pytest.raises(ValueError):
            ModeSet([1.0, 1.0], m=0.0, a_out=1.0)  # not distinct
        with pytest.raises(ValueError):
            ModeSet([0.0], m=0.0, a_out=1.0)

    def test_sqrt_primes(self):
        k = sqrt_prime_modes(4)
        assert np.allclose(k, np.sqrt([2.0, 3.0, 5.0, 7.0]))
        assert np.all(np.diff(k) > 0)


class TestEnumerateFock:
    def test_binary_occupations(self):
        basis = enumerate_fock(ModeSet([1.0, 2.0], m=0.0, a_out=5.0), n_max=1)
        assert basis.occupations == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_energy_sums(self):
        basis = enumerate_fock(ModeSet([2.0, 3.0], m=0.0, a_out=5.0), n_max=1)
        assert np.allclose(basis.energies, [0.0, 2.0, 3.0, 5.0])

    def test_degenerate_labels_distinguish(self):
        basis = degenerate_basis()
        shells = basis.shells()
        assert len(shells) == 3
        energy, s = shells[1]
        assert energy == pytest.approx(0.5)
        assert s == slice(1, 3)
        assert set(basis.occupations[s]) == {(1, 0), (0, 1)}

    def test_energy_cut(self):
        basis = enumerate_fock(ModeSet([2.0, 3.0], m=0.0, a_out=5.0), 1, omega_cut=4.0)
        assert np.allclose(basis.energies, [0.0, 2.0, 3.0])
        assert basis.truncated_count == 1

    def test_vacuum_survives_any_cut(self):
        basis = enumerate_fock(ModeSet([2.0], m=0.0, a_out=5.0), 3, omega_cut=0.0)
        assert basis.occupations == ((0,),)

    def test_sorted_by_energy_then_lex(self):
        # mass-dominated modes make the two frequencies bit-identical, so
        # the lexicographic tie-break is exercised on exact energy ties
        basis = enumerate_fock(ModeSet([1.0, 2.0], m=1.0, a_out=1e12), n_max=2)
        freqs = basis.mode_set.frequencies()
        assert freqs[0] == freqs[1]
        assert np.all(np.diff(basis.energies) >= 0)
        for energy in np.unique(basis.energies):
            occs = [o for o, e in zip(basis.occupations, basis.energies) if e == energy]
            assert occs == sorted(occs)

    def test_recomputable_energies(self):
        basis = enumerate_fock(ModeSet(sqrt_prime_modes(3), m=1.0, a_out=7.0), n_max=2)
        reference = np.asarray(basis.occupations) @ basis.mode_set.frequencies()
        assert np.max(np.abs(basis.energies - reference)) < 1e-12

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            enumerate_fock(ModeSet([1.0], m=0.0, a_out=1.0), n_max=0)


class TestCosmoState:
    def test_validation(self):
        basis = enumerate_fock(ModeSet([1.0], m=0.0, a_out=5.0), n_max=2)
        good = np.diag([0.5, 0.3, 0.2]).astype(complex)
        CosmoState(basis, good)
        with pytest.raises(ValueError):
            CosmoState(basis, 2.0 * good)  # trace 2
        bad = good.copy()
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            CosmoState(basis, bad)  # not hermitian
        with pytest.raises(IncompatibleBasisError):
            CosmoState(basis, np.eye(4) / 4.0)

    def test_random_state_positive(self):
        rng = np.random.default_rng(5)
        basis = degenerate_basis()
        state = random_cosmo_state(basis, rng, coherence=0.7)
        assert state.min_eigenvalue() > -1e-12
        assert np.trace(state.matrix).real == pytest.approx(1.0)

    def test_shell_energies_constant_within_shell(self):
        state = mixed_degenerate_state()
        e = state.shell_energies()
        assert e[1] == e[2]


class TestCosmoExpectation:
    def test_identity_for_all_times(self):
        rng = np.random.default_rng(7)
        basis = degenerate_basis()
        state = random_cosmo_state(basis, rng)
        ident = np.eye(basis.size, dtype=complex)
        for t in (0.0, 3.3, 40.0):
            assert cosmo_expectation(state, ident, t) == pytest.approx(1.0, abs=1e-12)

    def test_block_diagonal_time_independent(self):
        rng = np.random.default_rng(11)
        state = cosmo_weak_limit(random_cosmo_state(degenerate_basis(), rng))
        obs = np.diag([0.3, 1.0, -0.5, 2.0]).astype(complex)
        base = cosmo_expectation(state, obs, 0.0)
        for t in (1.0, 100.0, 1e4):
            assert abs(cosmo_expectation(state, obs, t) - base) < 1e-12

    def test_matches_conjugation_oracle(self):
        rng = np.random.default_rng(13)
        basis = enumerate_fock(ModeSet([1.0], m=0.0, a_out=5.0), n_max=11)
        assert basis.size == 12
        for _ in range(10):
            state = random_cosmo_state(basis, rng)
            raw = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            obs = 0.5 * (raw + raw.conj().T)
            t = float(rng.uniform(0.0, 10.0))
            got = cosmo_expectation(state, obs, t)
            ref = conjugation_expectation_oracle(state.matrix, state.shell_energies(), obs, t)
            assert abs(got - ref) < 1e-10

    def test_dimension_mismatch(self):
        state = uniform_cosmo_state(degenerate_basis())
        with pytest.raises(IncompatibleBasisError):
            cosmo_expectation(state, np.eye(3), 0.0)


class TestCosmoWeakLimit:
    def test_fixed_point_and_idempotent(self):
        rng = np.random.default_rng(17)
        state = random_cosmo_state(degenerate_basis(), rng)
        once = cosmo_weak_limit(state)
        twice = cosmo_weak_limit(once)
        assert np.array_equal(once.matrix, twice.matrix)
        assert np.trace(once.matrix) == np.trace(state.matrix)
        assert once.cross_block_magnitude() == 0.0

    def test_shell_blocks_copied(self):
        state = mixed_degenerate_state()
        out = cosmo_weak_limit(state)
        assert np.array_equal(out.matrix, state.matrix)  # already block diagonal

    def test_time_average_converges_to_weak_limit(self):
        # incommensurate shell energies from sqrt-prime-like moduli
        rng = np.random.default_rng(19)
        basis = enumerate_fock(
            ModeSet([1.0, np.sqrt(2.0), np.pi], m=0.0, a_out=5.0), n_max=1
        )
        state = random_cosmo_state(basis, rng, coherence=1.0)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        obs = 0.5 * (raw + raw.conj().T)
        limit_value = cosmo_expectation(cosmo_weak_limit(state), obs, 0.0)

        def time_average(horizon, samples=20001):
            ts = np.linspace(0.0, horizon, samples)
            vals = np.array([cosmo_expectation(state, obs, t) for t in ts])
            return np.trapezoid(vals, ts) / horizon

        err_1e3 = abs(time_average(1000.0) - limit_value)
        assert err_1e3 < 1e-2
        err_1e2 = abs(time_average(100.0, 4001) - limit_value)
        # O(1/T): an order of magnitude more time buys about 10x accuracy
        assert err_1e3 < err_1e2


class TestDiagonalizeRemaining:
    def test_requires_equilibrium(self):
        rng = np.random.default_rng(23)
        state = random_cosmo_state(degenerate_basis(), rng, coherence=1.0)
        assert state.cross_block_magnitude() > 1e-10
        with pytest.raises(NotEquilibratedError):
            diagonalize_remaining(state)

    def test_singleton_shells(self):
        basis = enumerate_fock(ModeSet([1.0], m=0.0, a_out=5.0), n_max=2)
        state = CosmoState(basis, np.diag([0.5, 0.3, 0.2]).astype(complex))
        bases = diagonalize_remaining(state)
        assert [b.size for b in bases] == [1, 1, 1]
        assert np.allclose([b.eigenvalues[0] for b in bases], [0.5, 0.3, 0.2])
        assert all(np.array_equal(b.unitary, np.eye(1)) for b in bases)

    def test_degenerate_shell_diagonalized(self):
        state = mixed_degenerate_state()
        bases = diagonalize_remaining(state)
        shell = bases[1]
        assert np.allclose(shell.eigenvalues, [0.63, 0.27])
        block = state.matrix[1:3, 1:3]
        rotated = shell.unitary.conj().T @ block @ shell.unitary
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) < 1e-10


class TestTrajectoryEnsemble:
    def phase_setup(self, n=201, extent=2.5):
        pgrid = PhaseGrid((-extent, extent), (-extent, extent), n, n)
        return pgrid, momentum_field(pgrid), MollifierPolicy(0.08)

    def test_single_component_peak(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(2.0, (0,), [[1.0]]))]
        ensemble, density = trajectory_ensemble(
            pointer, [pfield], policy, [0.0], l_values=[[(2.0,)]]
        )
        assert len(ensemble.entries) == 1
        assert ensemble.entries[0].probability == 1.0
        near = mass_within(density, pfield, 2.0, 3 * policy.epsilon)
        assert near / density.h_mass() >= 0.99

    def test_component_mass_ratio(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        shell = ShellState(0.5, (0, 1), [[0.5, 0.2], [0.2, 0.5]])
        pointer = [diagonalize_shell(shell)]
        values = [[(1.0,), (-1.0,)]]
        ensemble, density = trajectory_ensemble(
            pointer, [pfield], policy, [-0.3], l_values=values
        )
        mass_plus = mass_within(density, pfield, 1.0, 3 * policy.epsilon)
        mass_minus = mass_within(density, pfield, -1.0, 3 * policy.epsilon)
        assert mass_plus / mass_minus == pytest.approx(0.7 / 0.3, rel=0.05)

    def test_ridge_slopes(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(0.5, (0, 1), [[0.5, 0.2], [0.2, 0.5]]))]
        values = {(0, 0): (1.0,), (0, 1): (-1.0,)}
        etas = np.linspace(0.0, 1.0, 21)
        for (key, l), prob in zip(values.items(), (0.7, 0.3)):
            _, comp = trajectory_ensemble(
                [
                    diagonalize_shell(
                        ShellState(0.5, (0,), [[1.0]])
                    )
                ],
                [pfield],
                policy,
                [-0.3],
                l_values=[[l]],
            )
            ridge = free_flight_ridge(comp, etas)
            slope, intercept = np.polyfit(etas, ridge, 1)
            assert abs(slope - l[0]) < policy.epsilon
            assert abs(intercept + 0.3) < policy.epsilon

    def test_degenerate_component_flagged(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(0.5, (0, 1), [[0.5, 0.2], [0.2, 0.5]]))]
        values = [[(1.0,), (50.0,)]]  # second level unreachable
        ensemble, density = trajectory_ensemble(
            pointer, [pfield], policy, [0.0], l_values=values
        )
        flags = [e.degenerate for e in ensemble.entries]
        assert flags == [False, True]
        probs = [e.probability for e in ensemble.entries]
        assert sum(probs) == pytest.approx(1.0)
        assert density.h_mass() == pytest.approx(0.7, abs=1e-6)

    def test_uniform_shell_weights_give_per_component_slopes(self):
        from vanhove.wigner import coordinate_field

        # equal-weight singleton shells, distinct momenta per component
        basis = enumerate_fock(ModeSet([1.0], m=0.0, a_out=5.0), n_max=2)
        state = CosmoState(basis, np.eye(3, dtype=complex) / 3.0)
        pointer = diagonalize_remaining(state)
        pgrid, pfield, policy = self.phase_setup()
        values = [[(-0.8,)], [(0.4,)], [(1.3,)]]
        etas = np.linspace(0.0, 0.8, 17)
        ensemble, _ = trajectory_ensemble(pointer, [pfield], policy, [0.0], values)
        assert [e.probability for e in ensemble.entries] == pytest.approx([1 / 3] * 3)
        qfield = coordinate_field(pgrid)
        for [l] in values:
            component = multi_invariant_density(
                [l[0], 0.0], [pfield, qfield], policy
            )
            ridge = free_flight_ridge(component, etas)
            slope, _ = np.polyfit(etas, ridge, 1)
            assert abs(slope - l[0]) < policy.epsilon

    def test_a0_points_spread_probability(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(1.0, (0,), [[1.0]]))]
        ensemble, _ = trajectory_ensemble(
            pointer, [pfield], policy, [-0.5, 0.5], l_values=[[(1.0,)]]
        )
        assert [e.probability for e in ensemble.entries] == [0.5, 0.5]
        assert {e.a0 for e in ensemble.entries} == {-0.5, 0.5}

    def test_default_labels_require_single_field(self):
        from vanhove import diagonalize_shell, ShellState
        from vanhove.wigner import harmonic_field

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(1.0, (0,), [[1.0]]))]
        with pytest.raises(ValueError):
            trajectory_ensemble(
                pointer, [pfield, harmonic_field(pgrid)], policy, [0.0]
            )

    def test_non_unit_weight_rejected(self):
        from vanhove import diagonalize_shell, ShellState

        pgrid, pfield, policy = self.phase_setup()
        pointer = [diagonalize_shell(ShellState(1.0, (0,), [[0.5]]))]
        with pytest.raises(ValueError):
            trajectory_ensemble(pointer, [pfield], policy, [0.0])

    @pytest.mark.parametrize("kinetic", [False, True], ids=["momentum", "momentum-kinetic"])
    def test_density_is_the_job_order_sum_of_public_components(self, kinetic):
        from vanhove import ShellState, pointer_state
        from vanhove.wigner import (
            DEGENERATE_MASS_TOL, _HBins, _mollifier, coordinate_field, kinetic_field,
        )

        # shell 0 carries probability 0; the level of (2, 0) is unreachable
        pointer = pointer_state([
            ShellState(0.0, (0,), [[0.0]]),
            ShellState(0.5, (0, 1), [[0.4, 0.1], [0.1, 0.4]]),
            ShellState(1.0, (0,), [[0.2]]),
        ])
        pgrid, pfield, policy = self.phase_setup(n=101)
        fields = [pfield]
        if kinetic:
            # p^2 / 2 needs a wider mollifier than p on this grid
            fields, policy = [pfield, kinetic_field(pgrid)], MollifierPolicy(0.2)
        values = [
            [tuple([p, 0.5 * p * p][: len(fields)]) for p in shell]
            for shell in [[0.3], [1.0, -1.0], [50.0]]
        ]
        a0_points = [-0.3, 0.2]
        ensemble, density = trajectory_ensemble(pointer, fields, policy, a0_points, values)
        jobs = [
            (values[si][ei], a0, max(float(eig), 0.0) / len(a0_points))
            for si, pb in enumerate(pointer)
            for ei, eig in enumerate(pb.eigenvalues)
            for a0 in a0_points
        ]
        entries = ensemble.entries
        assert [(e.l_values, e.a0, e.probability) for e in entries] == jobs
        assert sum(prob == 0.0 for _, _, prob in jobs) == len(a0_points)
        assert sum(e.degenerate for e in entries) == len(a0_points)

        # each component formed cell by cell and added in job order
        pinned = [*fields, coordinate_field(pgrid)]
        bins = _HBins(pfield, policy.epsilon)
        ref = np.zeros((pgrid.nq, pgrid.np))
        for (l_values, a0, prob), entry in zip(jobs, entries):
            raw = np.ones_like(ref)
            for field, level in zip(pinned, [*l_values, a0]):
                raw = raw * _mollifier(field.values, level, policy.epsilon)
            mass = bins.mass(raw)
            assert entry.degenerate == (prob > 0.0 and mass < DEGENERATE_MASS_TOL)
            if not entry.degenerate:
                ref += raw * (prob / mass)
        err = np.max(np.abs(density.field.values - ref))
        assert err <= 16 * np.finfo(float).eps * np.max(ref)

    def test_unresolved_epsilon_refused_before_any_component(self, monkeypatch):
        from vanhove.wigner import ConstraintSet

        state = mixed_degenerate_state()
        pointer = diagonalize_remaining(state)
        pgrid, pfield, _ = self.phase_setup(n=101)
        values = [[(0.3,)], [(1.0,), (-1.0,)], [(0.6,)]]
        built = []
        monkeypatch.setattr(ConstraintSet, "summed", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="widen epsilon"):
            trajectory_ensemble(
                pointer, [pfield], MollifierPolicy(0.5 * pgrid.dp), [0.0], values
            )
        assert built == []

    def test_missing_components_named(self):
        pointer = diagonalize_remaining(mixed_degenerate_state())
        _, pfield, policy = self.phase_setup(n=101)
        values = [[(0.3,)], [(-1.0,)]]
        named = "of the 3 energy shells, shell 1 has 2 pointer labels and l values for 1"
        with pytest.raises(ValueError, match=named):
            trajectory_ensemble(pointer, [pfield], policy, [0.0], values)

    def test_end_to_end_from_cosmo_state(self):
        state = mixed_degenerate_state()
        pointer = diagonalize_remaining(state)
        pgrid, pfield, policy = self.phase_setup()
        values = [[(0.3,)], [(1.0,), (-1.0,)], [(0.6,)]]
        ensemble, density = trajectory_ensemble(pointer, [pfield], policy, [0.0], values)
        probs = sorted(e.probability for e in ensemble.entries)
        assert probs == pytest.approx([0.05, 0.05, 0.27, 0.63])
        assert density.h_mass() == pytest.approx(1.0, abs=1e-6)
