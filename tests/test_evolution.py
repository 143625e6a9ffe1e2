import numpy as np
import pytest

from vanhove import (
    EnergyGrid,
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    decay_profile,
    decoherence_time,
    evolve,
    fit_gaussian_envelope,
    make_grid,
    observable_from_descriptors,
    pair,
    recurrence_time,
    state_from_descriptors,
    weak_limit,
    zero_regular,
)

MU, SIGMA = 5.0, 0.5
# closed-form decay rate of log|offdiag| vs t^2 for separable gaussian
# kernels: the (w - w') marginal of rho * O has gaussian weight
# exp(-c nu^2) with c = 1/(4 s_rho^2) + 1/(4 s_obs^2); its Fourier
# transform decays as exp(-t^2 / (4c))
def gaussian_rate(sigma_rho, sigma_obs):
    c = 0.25 / sigma_rho**2 + 0.25 / sigma_obs**2
    return 1.0 / (4.0 * c)


def gaussian_pair(n=512, sigma_obs=SIGMA):
    grid = make_grid(10.0, n)
    state = state_from_descriptors(
        grid,
        {"type": "gaussian", "mu": MU, "sigma": SIGMA},
        {"type": "gaussian", "mu": MU, "sigma": SIGMA},
    )
    obs = observable_from_descriptors(
        grid,
        {"type": "gaussian", "mu": MU, "sigma": sigma_obs},
        {"type": "gaussian", "mu": MU, "sigma": sigma_obs},
    )
    return grid, state, obs


class TestEvolve:
    def test_t_zero_identity(self):
        _, state, _ = gaussian_pair(64)
        out = evolve(state, 0.0)
        assert np.array_equal(out.regular.values, state.regular.values)
        assert out.singular.values is state.singular.values

    def test_diagonal_entries_unchanged(self):
        _, state, _ = gaussian_pair(64)
        out = evolve(state, 3.7)
        assert np.array_equal(
            np.diag(out.regular.values), np.diag(state.regular.values)
        )

    def test_half_period_sign_flip(self):
        grid = EnergyGrid([0.0, np.pi], [np.pi / 2, np.pi / 2])
        reg = np.zeros((2, 2), dtype=complex)
        reg[1, 0] = 1.0  # w_i - w_j = pi
        state = StateFunctional(
            SingularKernel(grid, np.zeros(2, dtype=complex)), RegularKernel(grid, reg)
        )
        out = evolve(state, 1.0)
        assert out.regular.values[1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_non_finite_time(self):
        _, state, _ = gaussian_pair(8)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                evolve(state, bad)

    def test_group_law(self):
        rng = np.random.default_rng(9)
        _, state, _ = gaussian_pair(64)
        for _ in range(5):
            t1, t2 = rng.uniform(-5, 5, 2)
            a = evolve(evolve(state, t1), t2)
            b = evolve(state, t1 + t2)
            assert np.max(np.abs(a.regular.values - b.regular.values)) < 1e-12

    def test_conservation_exact(self):
        grid, state, _ = gaussian_pair(128)
        ident = observable_from_descriptors(grid, {"type": "uniform"})
        ham = Observable(SingularKernel(grid, grid.points), zero_regular(grid), self_adjoint=True)
        for t in (0.3, 2.0, 17.5):
            moved = evolve(state, t)
            assert pair(moved, ident) == pair(state, ident)
            assert pair(moved, ham) == pair(state, ham)


class TestExpectation:
    def test_singular_observable_time_independent(self):
        grid, state, _ = gaussian_pair(128)
        obs = Observable(SingularKernel(grid, grid.points), zero_regular(grid), self_adjoint=True)
        base = pair(evolve(state, 0.0), obs).real
        for t in (1.0, 5.0, 20.0):
            assert abs(pair(evolve(state, t), obs).real - base) < 1e-12

    def test_t_zero_equals_pair(self):
        grid, state, obs = gaussian_pair(128)
        assert pair(evolve(state, 0.0), obs).real == pytest.approx(
            pair(state, obs).real, abs=1e-14
        )

    def test_grid_mismatch(self):
        _, state, _ = gaussian_pair(16)
        identity = observable_from_descriptors(make_grid(10.0, 17), {"type": "uniform"})
        with pytest.raises(ValueError, match="state and observable live on different grids"):
            pair(evolve(state, 0.0), identity)

    def test_late_time_against_fine_quadrature_oracle(self):
        # oracle: the separable gaussian off-diagonal term factorizes into
        # |F(t)|^2 with F a 1-d integral, evaluated on a 4x finer grid
        grid, state, obs = gaussian_pair(2048)
        fine = np.linspace(0.0, 10.0, 8192)
        prof = np.exp(-((fine - MU) ** 2) / (2 * SIGMA**2))

        def offdiag_oracle(t):
            # regular kernels are separable g(w) g(w'), so the double
            # integral factorizes into |int g_rho g_obs e^{-iwt} dw|^2
            f = np.trapezoid(prof * prof * np.exp(-1j * fine * t), fine)
            return abs(f * np.conj(f))

        off0 = offdiag_oracle(0.0)
        got0 = abs(pair(state, obs) - pair(weak_limit(state), obs))
        assert got0 == pytest.approx(off0, rel=1e-8)
        diag = pair(weak_limit(state), obs).real
        assert abs(pair(evolve(state, 20.0), obs).real - diag) < 1e-3 * off0


class TestWeakLimit:
    def test_purely_singular_fixed_point(self):
        grid = make_grid(10.0, 32)
        state = state_from_descriptors(grid, {"type": "gaussian", "mu": 5, "sigma": 1})
        out = weak_limit(state)
        assert out.singular.values is state.singular.values
        assert not out.regular.values.any()

    def test_kills_regular_observables(self):
        grid, state, _ = gaussian_pair(64)
        reg_only = observable_from_descriptors(
            grid, None, {"type": "gaussian", "mu": 5.0, "sigma": 1.0}
        )
        assert pair(weak_limit(state), reg_only) == 0.0

    def test_idempotent_and_commutes_with_evolve(self):
        _, state, _ = gaussian_pair(64)
        once = weak_limit(state)
        twice = weak_limit(once)
        assert np.array_equal(once.singular.values, twice.singular.values)
        assert np.array_equal(once.regular.values, twice.regular.values)
        via_evolve = weak_limit(evolve(state, 4.2))
        assert np.array_equal(via_evolve.singular.values, once.singular.values)
        assert np.array_equal(via_evolve.regular.values, once.regular.values)

    def test_late_time_agreement(self):
        grid, state, obs = gaussian_pair(2048)
        limit_value = pair(weak_limit(state), obs).real
        for t in (25.0, 40.0, 80.0):
            assert abs(pair(evolve(state, t), obs).real - limit_value) < 1e-6


class TestDecayProfile:
    def test_purely_singular_state(self):
        grid = make_grid(10.0, 32)
        state = state_from_descriptors(grid, {"type": "gaussian", "mu": 5, "sigma": 1})
        obs = observable_from_descriptors(
            grid, {"type": "uniform"}, {"type": "gaussian", "mu": 5, "sigma": 1}
        )
        prof = decay_profile(state, obs, 0.0, 5.0, 11)
        assert np.all(prof.offdiag_abs == 0.0)

    def test_t_zero_definition(self):
        _, state, obs = gaussian_pair(128)
        prof = decay_profile(state, obs, 0.0, 1.0, 2)
        expect = abs(pair(state, obs) - pair(weak_limit(state), obs))
        assert prof.offdiag_abs[0] == pytest.approx(expect, rel=1e-12)

    def test_matches_expectation_pointwise(self):
        _, state, obs = gaussian_pair(128)
        prof = decay_profile(state, obs, 0.0, 6.0, 7)
        for t, ex in zip(prof.times, prof.expectations):
            assert ex == pytest.approx(pair(evolve(state, t), obs).real, abs=1e-12)

    def test_gaussian_slope_matches_closed_form(self):
        _, state, obs = gaussian_pair(512, sigma_obs=0.8)
        prof = decay_profile(state, obs, 0.0, 10.0, 81)
        rate, _ = fit_gaussian_envelope(prof)
        expect = gaussian_rate(SIGMA, 0.8)
        assert abs(rate - expect) / expect < 0.05

    def test_empty_times(self):
        _, state, obs = gaussian_pair(8)
        with pytest.raises(ValueError, match="at least one"):
            decay_profile(state, obs, 0.0, 1.0, 0)

    @pytest.mark.parametrize("start, stop", [(20.0, 0.0), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
    def test_reversed_or_non_finite_times_refused(self, start, stop):
        _, state, obs = gaussian_pair(8)
        with pytest.raises(ValueError, match="finite start <= stop"):
            decay_profile(state, obs, start, stop, 3)


class TestDecoherenceTime:
    def test_singular_state_none(self):
        grid = make_grid(10.0, 16)
        state = state_from_descriptors(grid, {"type": "uniform"})
        obs = observable_from_descriptors(grid, {"type": "uniform"})
        prof = decay_profile(state, obs, 0.0, 2.0, 3)
        assert decoherence_time(prof, 0.5) is None

    def test_synthetic_monotone(self):
        from vanhove import DecayProfile

        prof = DecayProfile(
            times=[0.0, 1.0, 2.0],
            offdiag_abs=[1.0, 0.5, 0.01],
            diag_value=0.0,
            expectations=[1.0, 0.5, 0.01],
        )
        assert decoherence_time(prof, 0.1) == 2.0

    def test_requires_sustained_crossing(self):
        from vanhove import DecayProfile

        prof = DecayProfile(
            times=[0.0, 1.0, 2.0, 3.0],
            offdiag_abs=[1.0, 0.05, 0.5, 0.01],
            diag_value=0.0,
            expectations=[0.0] * 4,
        )
        assert decoherence_time(prof, 0.1) == 3.0

    def test_never_reached(self):
        from vanhove import DecayProfile

        prof = DecayProfile(
            times=[0.0, 1.0],
            offdiag_abs=[1.0, 0.9],
            diag_value=0.0,
            expectations=[0.0, 0.0],
        )
        assert decoherence_time(prof, 0.5) is None

    def test_ringing_envelope_needs_sustained_crossing(self):
        # sharp-support kernels dephase like sinc^2: the envelope rings
        # back above threshold after the first crossing
        grid = make_grid(10.0, 512)
        state = state_from_descriptors(grid, {"type": "uniform"}, {"type": "uniform"})
        obs = observable_from_descriptors(grid, {"type": "uniform"}, {"type": "uniform"})
        prof = decay_profile(state, obs, 0.0, 2.99, 300)
        times = prof.times
        threshold = 0.04  # below the first side lobe of sinc^2 (~0.047)
        target = threshold * prof.offdiag_abs[0]
        first_touch = times[np.argmax(prof.offdiag_abs <= target)]
        sustained = decoherence_time(prof, threshold)
        assert np.any(prof.offdiag_abs[times > first_touch] > target)  # rings back
        assert sustained > first_touch

    def test_gaussian_inverse_envelope(self):
        _, state, obs = gaussian_pair(512)
        prof = decay_profile(state, obs, 0.0, 9.9, 100)
        t_d = decoherence_time(prof, 1e-2)
        rate, _ = fit_gaussian_envelope(prof)
        expect = np.sqrt(np.log(100.0) / rate)
        assert abs(t_d - expect) / expect < 0.10

    def test_threshold_range(self):
        from vanhove import DecayProfile

        prof = DecayProfile(
            times=[0.0], offdiag_abs=[1.0], diag_value=0.0, expectations=[0.0]
        )
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                decoherence_time(prof, bad)


class TestRiemannLebesgueWindow:
    def test_envelope_bounds_decay_below_recurrence(self):
        # sigma >= 0.1 resolved by >= 16 points per sigma; assertions
        # restricted to t < 0.8 * t_rec
        grid, state, obs = gaussian_pair(512)  # spacing ~0.02, 25 pts/sigma
        t_rec = recurrence_time(grid)
        prof = decay_profile(state, obs, 0.0, 0.8 * t_rec, 200)
        rate, intercept = fit_gaussian_envelope(prof)
        envelope = np.exp(intercept - rate * prof.times**2)
        floor = 1e-12 * prof.offdiag_abs[0]
        assert np.all(prof.offdiag_abs <= 1.05 * envelope + floor)

    def test_recurrence_time_value(self):
        grid = make_grid(10.0, 2048)
        assert recurrence_time(grid) == pytest.approx(2 * np.pi * 2047 / 10.0)
