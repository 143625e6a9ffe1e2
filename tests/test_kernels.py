import numpy as np
import pytest

from vanhove import (
    EnergyGrid,
    GridMismatchError,
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    hamiltonian_observable,
    identity_observable,
    make_grid,
    pair,
    validate_state,
    zero_regular,
)
from vanhove.kernels import _clenshaw_curtis
from vanhove.oracles import dense_pair_oracle


def uniform_state(grid):
    rho = np.full(grid.size, 1.0 / (grid.omega_max - grid.points[0]), dtype=complex)
    return StateFunctional(SingularKernel(grid, rho), zero_regular(grid))


def point_state(grid, k):
    rho = np.zeros(grid.size, dtype=complex)
    rho[k] = 1.0 / grid.weights[k]
    return StateFunctional(SingularKernel(grid, rho), zero_regular(grid))


def random_state(rng, grid, coherence=0.3):
    rho = rng.uniform(0.1, 1.0, grid.size)
    rho /= np.sum(grid.weights * rho)
    raw = rng.standard_normal((grid.size,) * 2) + 1j * rng.standard_normal((grid.size,) * 2)
    reg = coherence * 0.5 * (raw + raw.conj().T)
    return StateFunctional(
        SingularKernel(grid, rho.astype(complex)), RegularKernel(grid, reg)
    )


def random_observable(rng, grid):
    sing = rng.uniform(-1.0, 1.0, grid.size).astype(complex)
    raw = rng.standard_normal((grid.size,) * 2) + 1j * rng.standard_normal((grid.size,) * 2)
    return Observable(
        SingularKernel(grid, sing),
        RegularKernel(grid, 0.5 * (raw + raw.conj().T)),
        self_adjoint=True,
    )


class TestMakeGrid:
    def test_two_point_trapezoid(self):
        grid = make_grid(1.0, 2, "uniform")
        assert np.array_equal(grid.points, [0.0, 1.0])
        assert np.array_equal(grid.weights, [0.5, 0.5])

    def test_eleven_point_trapezoid(self):
        grid = make_grid(10.0, 11, "uniform")
        assert np.allclose(grid.points, np.arange(11.0))
        assert np.allclose(grid.weights, [0.5] + [1.0] * 9 + [0.5])

    def test_chebyshev_weight_sum(self):
        # oracle: integrating the constant 1 must give the interval length
        grid = make_grid(10.0, 64, "chebyshev")
        assert abs(grid.weights.sum() - 10.0) < 1e-12

    def test_chebyshev_two_points(self):
        grid = make_grid(1.0, 2, "chebyshev")
        assert np.allclose(grid.points, [0.0, 1.0])
        assert np.allclose(grid.weights, [0.5, 0.5])

    def test_chebyshev_integrates_smooth_function(self):
        grid = make_grid(10.0, 64, "chebyshev")
        exact = 3.0 * (1.0 - np.exp(-10.0 / 3.0))
        got = float(np.sum(grid.weights * np.exp(-grid.points / 3.0)))
        assert abs(got - exact) < 1e-12

    @staticmethod
    def _cosine_matrix_weights(n):
        """Clenshaw-Curtis weights from the explicit cosine sum, one
        n/2 x n matrix."""
        big_n = n - 1
        theta = np.pi * np.arange(n) / big_n
        j = np.arange(1, big_n // 2 + 1)
        if j.size:
            b = np.where(2 * j == big_n, 1.0, 2.0)
            s = (b / (4 * j**2 - 1)) @ np.cos(2.0 * np.outer(j, theta))
        else:
            s = np.zeros(n)
        w = (2.0 / big_n) * (1.0 - s)
        w[0] /= 2.0
        w[-1] /= 2.0
        return w

    def test_clenshaw_curtis_fft_matches_cosine_sum(self):
        # both parities of n - 1, so the moment at k = n - 1 is set and unset
        for n in range(2, 301):
            _, w = _clenshaw_curtis(n)
            assert np.max(np.abs(w - self._cosine_matrix_weights(n))) <= 1e-15, n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 64, 65, 300, 301])
    def test_clenshaw_curtis_integrates_monomials(self, n):
        # an n-point rule is exact up to degree n - 1: int x^d = 2 / (d + 1), d even
        x, w = _clenshaw_curtis(n)
        assert abs(w.sum() - 2.0) <= 1e-14
        for d in range(n):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(w @ x**d - exact) <= 1e-14, (n, d)

    def test_grid_invariants(self):
        for scheme in ("uniform", "chebyshev"):
            grid = make_grid(7.5, 33, scheme)
            assert np.all(np.diff(grid.points) > 0)
            assert grid.points[0] >= 0.0
            assert grid.points[-1] == grid.omega_max == 7.5
            assert np.all(grid.weights > 0)

    @pytest.mark.parametrize("bad", [(0.0, 8), (-1.0, 8), (5.0, 1), (5.0, 0)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            make_grid(bad[0], bad[1])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 4, "simpson")

    def test_immutable(self):
        grid = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            grid.points[0] = 3.0


class TestPair:
    def test_uniform_state_identity(self):
        grid = make_grid(10.0, 51)
        assert pair(uniform_state(grid), identity_observable(grid)) == pytest.approx(1.0)

    def test_point_state_mean_energy(self):
        grid = make_grid(10.0, 21)
        k = 7
        value = pair(point_state(grid, k), hamiltonian_observable(grid))
        assert value == pytest.approx(grid.points[k], abs=1e-14)

    def test_gaussian_kernels_match_dense_oracle(self):
        from vanhove import observable_from_descriptors, state_from_descriptors

        grid = make_grid(10.0, 64)
        state = state_from_descriptors(
            grid,
            {"type": "gaussian", "mu": 4.0, "sigma": 1.0},
            {"type": "gaussian", "mu": 4.0, "sigma": 1.0},
        )
        obs = observable_from_descriptors(
            grid,
            {"type": "gaussian", "mu": 6.0, "sigma": 1.5},
            {"type": "gaussian", "mu": 6.0, "sigma": 1.5},
        )
        got = pair(state, obs)
        ref = dense_pair_oracle(state, obs)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            pair(uniform_state(make_grid(10.0, 8)), identity_observable(make_grid(10.0, 9)))

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        grid = make_grid(5.0, 16)
        s1, s2 = random_state(rng, grid), random_state(rng, grid)
        obs = random_observable(rng, grid)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        combo = StateFunctional(
            SingularKernel(grid, a * s1.singular.values + b * s2.singular.values),
            RegularKernel(grid, a * s1.regular.values + b * s2.regular.values),
        )
        lhs = pair(combo, obs)
        rhs = a * pair(s1, obs) + b * pair(s2, obs)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))

    def test_hermitian_pair_is_real(self):
        rng = np.random.default_rng(5)
        grid = make_grid(5.0, 24)
        for _ in range(20):
            value = pair(random_state(rng, grid), random_observable(rng, grid))
            assert abs(value.imag) < 1e-10

    def test_singular_regular_orthogonality(self):
        grid = make_grid(5.0, 12)
        state = uniform_state(grid)  # purely singular
        reg = np.ones((grid.size, grid.size), dtype=complex)
        obs = Observable(
            SingularKernel(grid, np.zeros(grid.size, dtype=complex)),
            RegularKernel(grid, reg),
            self_adjoint=True,
        )
        assert pair(state, obs) == 0.0

    def test_dense_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 65))
            grid = make_grid(10.0, n)
            state = random_state(rng, grid)
            obs = random_observable(rng, grid)
            got = pair(state, obs)
            ref = dense_pair_oracle(state, obs)
            assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))

    def test_identity_contraction_matches_oracle_exactly(self):
        # dyadic weights and density make both sums exact, so the two
        # routes agree bit for bit
        grid = make_grid(4.0, 5)
        state = uniform_state(grid)
        obs = identity_observable(grid)
        assert pair(state, obs) == dense_pair_oracle(state, obs) == 1.0


class TestBuiltinObservables:
    def test_identity_two_point(self):
        grid = make_grid(1.0, 2)
        obs = identity_observable(grid)
        assert np.array_equal(obs.singular.values, [1.0 + 0j, 1.0 + 0j])
        assert not obs.regular.values.any()
        assert obs.self_adjoint

    def test_identity_pairs_to_one_for_any_valid_state(self):
        rng = np.random.default_rng(2)
        grid = make_grid(4.0, 32)
        for _ in range(5):
            state = random_state(rng, grid)
            assert pair(state, identity_observable(grid)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_flags_unnormalized_state(self):
        grid = make_grid(10.0, 16)
        state = uniform_state(grid)
        doubled = StateFunctional(
            SingularKernel(grid, 2.0 * state.singular.values), state.regular
        )
        assert pair(doubled, identity_observable(grid)) == pytest.approx(2.0)
        assert not validate_state(doubled).ok

    def test_hamiltonian_two_point(self):
        grid = make_grid(1.0, 2)
        assert np.array_equal(
            hamiltonian_observable(grid).singular.values, [0.0 + 0j, 1.0 + 0j]
        )

    def test_uniform_mean_energy(self):
        # oracle: closed form, mean of w over [0, 10] with flat density is 5
        grid = make_grid(10.0, 101)
        value = pair(uniform_state(grid), hamiltonian_observable(grid))
        assert value.real == pytest.approx(5.0, abs=1e-10)

    def test_point_state_eigenvalue(self):
        grid = make_grid(10.0, 41)
        assert pair(point_state(grid, 13), hamiltonian_observable(grid)) == pytest.approx(
            grid.points[13]
        )


class TestValidateState:
    def test_valid_gaussian_state(self):
        from vanhove import state_from_descriptors

        grid = make_grid(10.0, 128)
        state = state_from_descriptors(
            grid,
            {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
            {"type": "gaussian", "mu": 5.0, "sigma": 0.5, "amplitude": 0.2},
        )
        report = validate_state(state)
        assert report.ok
        assert report.cutoff_safe

    def test_scaled_state_normalization_residual(self):
        grid = make_grid(10.0, 32)
        state = uniform_state(grid)
        doubled = StateFunctional(
            SingularKernel(grid, 2.0 * state.singular.values), state.regular
        )
        report = validate_state(doubled)
        names = [v.invariant for v in report.violations]
        assert names == ["normalization"]
        assert report.violations[0].residual == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_regular_residual(self):
        grid = make_grid(10.0, 8)
        reg = np.zeros((8, 8), dtype=complex)
        reg[1, 2] = 0.25
        state = StateFunctional(
            uniform_state(grid).singular, RegularKernel(grid, reg)
        )
        report = validate_state(state)
        offenders = {v.invariant: v.residual for v in report.violations}
        assert offenders["hermiticity"] == pytest.approx(0.25)

    def test_negative_and_complex_diagonal(self):
        grid = make_grid(10.0, 8)
        rho = np.full(8, 0.1, dtype=complex)
        rho[3] = -0.2 + 0.05j
        report = validate_state(
            StateFunctional(SingularKernel(grid, rho), zero_regular(grid))
        )
        names = {v.invariant for v in report.violations}
        assert {"singular-real", "singular-nonnegative", "normalization"} <= names

    def test_cutoff_amplitude_reported(self):
        grid = make_grid(10.0, 16)
        state = uniform_state(grid)
        report = validate_state(state)
        assert report.cutoff_amplitude == pytest.approx(0.1)
        assert not report.cutoff_safe


class TestConstruction:
    def test_shape_mismatch(self):
        grid = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            SingularKernel(grid, np.zeros(5, dtype=complex))
        with pytest.raises(ValueError):
            RegularKernel(grid, np.zeros((4, 3), dtype=complex))

    def test_non_finite_rejected(self):
        grid = make_grid(1.0, 4)
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            RegularKernel(grid, bad)

    def test_self_adjoint_flag_enforced(self):
        grid = make_grid(1.0, 4)
        reg = np.zeros((4, 4), dtype=complex)
        reg[0, 1] = 1.0
        with pytest.raises(ValueError):
            Observable(
                SingularKernel(grid, np.ones(4, dtype=complex)),
                RegularKernel(grid, reg),
                self_adjoint=True,
            )
        # representable without the flag
        Observable(
            SingularKernel(grid, np.ones(4, dtype=complex)),
            RegularKernel(grid, reg),
            self_adjoint=False,
        )

    def test_relative_hermiticity_defect_refused(self):
        # entries up to 1e6 with a relative defect of 1e-9: far above their
        # rounding, so refused, though the tolerance grows with the entries
        grid = make_grid(10.0, 64)
        f = 1e3 * np.exp(-((grid.points - 5.0) ** 2))[:, None]
        skew = f * (1.0 + 1e-9 * np.linspace(-1.0, 1.0, grid.size))[:, None]
        reg = RegularKernel(grid, f, skew)
        tol = reg.hermiticity_tolerance()
        assert tol == pytest.approx(1e-12 * f.max() * skew.max())  # about 1e-6
        with pytest.raises(ValueError, match=f"tolerance {tol:.3e}"):
            Observable(SingularKernel(grid, np.ones(grid.size, dtype=complex)), reg,
                       self_adjoint=True)
        report = validate_state(StateFunctional(uniform_state(grid).singular, reg))
        (violation,) = report.violations
        assert violation.invariant == "hermiticity"
        assert violation.residual > violation.tolerance == tol

    def test_grid_equality_by_value(self):
        g1 = make_grid(1.0, 4)
        g2 = make_grid(1.0, 4)
        assert g1 == g2
        assert g1 != make_grid(1.0, 5)
