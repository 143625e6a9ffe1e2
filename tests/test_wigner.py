import struct

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vanhove import (
    ClassicalDensity,
    DegenerateSupportError,
    DomainMismatchError,
    GridMismatchError,
    MollifierPolicy,
    PhaseField,
    PhaseGrid,
    SingularKernel,
    classical_expectation,
    classical_state_density,
    liouville_residual,
    make_grid,
    mass_within,
    multi_invariant_density,
    pair,
    read_phase_field,
    shell_density,
    state_from_descriptors,
    observable_from_descriptors,
    weak_limit,
    wigner_singular,
    write_phase_field,
)
from vanhove import wigner
from vanhove._csv import read_csv, write_csv
from vanhove.wigner import (
    ConstraintSet,
    _HBins,
    _mollifier,
    coordinate_field,
    harmonic_field,
    kinetic_field,
    momentum_field,
)
from ridge import free_flight_ridge


def square_grid(extent=2.5, n=201):
    return PhaseGrid((-extent, extent), (-extent, extent), n, n)


class TestPhaseGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PhaseGrid((0, 1), (0, 1), 1, 4)
        with pytest.raises(ValueError):
            PhaseGrid((1, 1), (0, 1), 4, 4)

    def test_cell_geometry(self):
        grid = PhaseGrid((0, 1), (0, 2), 11, 21)
        assert grid.dq == pytest.approx(0.1)
        assert grid.dp == pytest.approx(0.1)

    def test_field_shape_enforced(self):
        grid = PhaseGrid((0, 1), (0, 1), 4, 5)
        with pytest.raises(ValueError):
            PhaseField(grid, np.zeros((5, 4)))


class TestWignerSingular:
    def test_identity_function(self):
        grid = make_grid(4.0, 33)
        hfield = kinetic_field(square_grid())
        ones = SingularKernel(grid, np.ones(33, dtype=complex))
        out = wigner_singular(ones, hfield)
        inside = hfield.values <= 4.0
        assert np.all(out.values[inside] == 1.0)
        assert np.all(out.values[~inside] == 0.0)

    def test_composition_with_energy(self):
        grid = make_grid(4.0, 33)
        hfield = kinetic_field(square_grid())
        energy = SingularKernel(grid, grid.points.astype(complex))
        out = wigner_singular(energy, hfield)
        inside = hfield.values <= 4.0
        # linear interpolation of a linear function is exact
        assert np.max(np.abs(out.values[inside] - hfield.values[inside])) < 1e-12

    def test_gaussian_ring(self):
        grid = make_grid(5.0, 201)
        pgrid = square_grid(2.8, 181)
        hfield = harmonic_field(pgrid)
        gauss = SingularKernel(
            grid, np.exp(-((grid.points - 2.0) ** 2) / (2 * 0.3**2)).astype(complex)
        )
        out = wigner_singular(gauss, hfield)
        qm, pm = pgrid.meshes()
        radius = np.hypot(qm, pm)
        peak = np.unravel_index(np.argmax(out.values), out.values.shape)
        # oracle: fine-grid evaluation peaks on the circle of radius 2
        fine = PhaseGrid(pgrid.q_range, pgrid.p_range, 4 * 181, 4 * 181)
        fine_vals = wigner_singular(gauss, harmonic_field(fine))
        fq, fp = fine.meshes()
        k = np.unravel_index(np.argmax(fine_vals.values), fine_vals.values.shape)
        assert abs(np.hypot(fq[k], fp[k]) - 2.0) < fine.cell_diagonal
        assert abs(radius[peak] - 2.0) < pgrid.cell_diagonal

    def test_domain_mismatch(self):
        grid = make_grid(0.5, 9)
        pgrid = PhaseGrid((4.0, 5.0), (4.0, 5.0), 11, 11)
        hfield = harmonic_field(pgrid)  # H >= 16 everywhere
        with pytest.raises(DomainMismatchError):
            wigner_singular(SingularKernel(grid, np.ones(9, dtype=complex)), hfield)

    def test_complex_kernel_rejected(self):
        grid = make_grid(1.0, 4)
        hfield = kinetic_field(square_grid(1.0, 11))
        with pytest.raises(ValueError):
            wigner_singular(SingularKernel(grid, 1j * np.ones(4)), hfield)


class TestShellDensity:
    def test_peaks_on_level_set(self):
        pgrid = square_grid(2.5, 201)
        hfield = kinetic_field(pgrid)
        policy = MollifierPolicy(0.08)
        density = shell_density(2.0, hfield, policy)
        p = pgrid.p
        column = density.field.values[100, :]  # q = 0 slice
        peaks = p[np.argsort(column)[-2:]]
        # oracle: level set p^2/2 = 2 is p = +/- 2
        assert sorted(np.round(np.abs(peaks), 2)) == [2.0, 2.0]
        assert np.allclose(
            density.field.values, density.field.values[:, ::-1], atol=1e-12
        )

    def test_unit_mass(self):
        pgrid = square_grid(2.5, 151)
        hfield = harmonic_field(pgrid)
        density = shell_density(1.0, hfield, MollifierPolicy(0.1))
        assert density.h_mass() == pytest.approx(1.0, abs=1e-9)

    def test_flat_mollifier_limit(self):
        pgrid = square_grid(2.0, 101)
        hfield = harmonic_field(pgrid)
        spread = float(hfield.values.max() - hfield.values.min())
        density = shell_density(1.0, hfield, MollifierPolicy(10.0 * spread))
        vals = density.field.values
        assert vals.max() / vals.min() < 1.02

    def test_mass_concentration(self):
        pgrid = square_grid(2.5, 201)
        hfield = harmonic_field(pgrid)
        policy = MollifierPolicy(0.1)
        density = shell_density(1.0, hfield, policy)
        inside = mass_within(density, hfield, 1.0, 3 * policy.epsilon)
        # oracle: gaussian tail bound, P(|X| <= 3 sigma) ~ 0.9973
        assert inside / density.h_mass() >= 0.99

    def test_unreachable_energy(self):
        pgrid = square_grid(1.0, 21)
        hfield = harmonic_field(pgrid)
        with pytest.raises(DomainMismatchError):
            shell_density(50.0, hfield, MollifierPolicy(0.2))

    def test_unresolved_epsilon_rejected(self):
        pgrid = square_grid(2.0, 21)  # coarse cells
        hfield = harmonic_field(pgrid)
        with pytest.raises(ValueError, match="resolve"):
            shell_density(1.0, hfield, MollifierPolicy(1e-4))


class TestClassicalStateDensity:
    def test_point_state_reduces_to_shell(self):
        grid = make_grid(3.0, 31)
        pgrid = square_grid(2.8, 301)
        hfield = harmonic_field(pgrid)
        policy = MollifierPolicy(0.1)
        state = state_from_descriptors(grid, {"type": "point", "omega": 1.0})
        got = classical_state_density(state.singular, hfield, policy)
        ref = shell_density(grid.points[10], hfield, policy)
        # the ensemble scales each shell by (coeff / mass), the shell divides
        # by its mass: one rounding apart even though coeff == 1
        np.testing.assert_array_max_ulp(got.field.values, ref.field.values, maxulp=1)

    def test_uniform_state_constant_along_level_sets(self):
        grid = make_grid(2.0, 64)
        pgrid = square_grid(2.2, 301)
        hfield = harmonic_field(pgrid)
        density = classical_state_density(
            state_from_descriptors(grid, {"type": "uniform"}).singular,
            hfield,
            MollifierPolicy(0.1),
        )
        # extract a thin level band (cell-level width) around H = 1
        band = np.abs(hfield.values - 1.0) < 0.01
        vals = density.field.values[band]
        assert (vals.max() - vals.min()) / vals.mean() < 0.05

    def test_nonnegative_and_mass_accounting(self):
        grid = make_grid(3.0, 64)
        pgrid = square_grid(2.8, 301)
        hfield = harmonic_field(pgrid)
        state = state_from_descriptors(grid, {"type": "gaussian", "mu": 1.0, "sigma": 0.3})
        density = classical_state_density(state.singular, hfield, MollifierPolicy(0.1))
        assert density.field.values.min() >= 0.0
        assert density.h_mass() == pytest.approx(1.0, abs=1e-6)

    def test_out_of_window_energies_leak(self):
        grid = make_grid(10.0, 64)
        pgrid = square_grid(1.5, 101)  # H reaches only 2.25
        hfield = harmonic_field(pgrid)
        state = state_from_descriptors(grid, {"type": "uniform"})
        density = classical_state_density(state.singular, hfield, MollifierPolicy(0.1))
        assert density.h_mass() < 0.5  # most shells unreachable, no error


    def test_density_holds_the_bins_of_its_constraints(self):
        grid = make_grid(3.0, 64)
        hfield = harmonic_field(square_grid(2.8, 301))
        constraints = ConstraintSet([hfield], MollifierPolicy(0.1))
        # one field: a row per distinct H value and one column
        density = constraints.density(np.exp(-constraints.distinct[0][0])[:, None])
        np.testing.assert_array_equal(density.field.values, np.exp(-hfield.values))
        assert density.bins is constraints.bins
        fresh = _HBins(density.hfield, density.mollifier_width)
        for name in ("lo", "epsilon", "width", "nbins"):
            assert getattr(density.bins, name) == getattr(fresh, name)
        np.testing.assert_array_equal(density.bins.index, fresh.index)
        np.testing.assert_array_equal(density.bins.counts, fresh.counts)
        state = state_from_descriptors(grid, {"type": "gaussian", "mu": 1.0, "sigma": 0.3})
        density = classical_state_density(state.singular, hfield, MollifierPolicy(0.1))
        assert density.h_mass() == fresh.mass(density.field.values)

    def test_factors_are_evaluated_only_near_their_levels(self, monkeypatch):
        # 500 levels over the whole H range [0, 16] at eps = 0.3: a level's
        # band is 2 REACH eps = 5.2 in H, about a third of the range, and the
        # band rule puts 9 to 74 components in a block (0.324 of the rows per
        # level as measured, 0.305 in blocks of 5; the distinct values are
        # densest at mid range).  Unbanded, every level took every row.
        hfield = harmonic_field(square_grid(4.0, 128))
        constraints = ConstraintSet([hfield], MollifierPolicy(0.3))
        given = []

        def counting(distinct, levels, epsilon):
            given.append(np.size(distinct) * np.size(levels))
            return _mollifier(distinct, levels, epsilon)

        monkeypatch.setattr(wigner, "_mollifier", counting)
        levels = np.linspace(0.0, 16.0, 500)
        constraints.summed(levels[:, None], np.ones(levels.size))
        rows = constraints.distinct[0][0].size
        assert 0 < sum(given) <= 0.35 * levels.size * rows


class TestClassicalExpectation:
    def setup_method(self):
        self.grid = make_grid(3.0, 128)
        self.pgrid = square_grid(2.8, 301)
        self.hfield = harmonic_field(self.pgrid)
        self.policy = MollifierPolicy(0.06)

    def test_normalization(self):
        state = state_from_descriptors(
            self.grid, {"type": "gaussian", "mu": 1.2, "sigma": 0.3}
        )
        density = classical_state_density(state.singular, self.hfield, self.policy)
        ones = PhaseField(self.pgrid, np.ones_like(self.hfield.values))
        assert classical_expectation(density, ones) == pytest.approx(1.0, abs=1e-9)

    def test_matches_spectral_pairing(self):
        state = state_from_descriptors(
            self.grid, {"type": "gaussian", "mu": 1.2, "sigma": 0.3}
        )
        obs = observable_from_descriptors(
            self.grid, {"type": "gaussian", "mu": 1.0, "sigma": 0.5}
        )
        density = classical_state_density(state.singular, self.hfield, self.policy)
        ofield = wigner_singular(obs.singular, self.hfield)
        classical = classical_expectation(density, ofield)
        quantum = pair(weak_limit(state), obs).real
        lipschitz = float(
            np.max(np.abs(np.diff(obs.singular.values.real) / np.diff(self.grid.points)))
        )
        assert abs(classical - quantum) < 1e-6 + 3 * self.policy.epsilon * lipschitz

    def test_point_state_shell_mean_energy(self):
        state = state_from_descriptors(self.grid, {"type": "point", "omega": 1.5})
        omega_k = 1.5  # lands exactly on a grid point apart from rounding
        density = classical_state_density(state.singular, self.hfield, self.policy)
        energy_obs = SingularKernel(self.grid, self.grid.points.astype(complex))
        ofield = wigner_singular(energy_obs, self.hfield)
        got = classical_expectation(density, ofield)
        assert abs(got - omega_k) < self.policy.epsilon

    def test_grid_mismatch(self):
        state = state_from_descriptors(self.grid, {"type": "uniform"})
        density = classical_state_density(state.singular, self.hfield, self.policy)
        other = PhaseField(square_grid(2.8, 99), np.ones((99, 99)))
        with pytest.raises(GridMismatchError):
            classical_expectation(density, other)


class TestMultiInvariantDensity:
    def test_single_factor_reduces_to_shell(self):
        pgrid = square_grid(2.5, 151)
        hfield = harmonic_field(pgrid)
        policy = MollifierPolicy(0.1)
        got = multi_invariant_density([1.0], [hfield], policy)
        ref = shell_density(1.0, hfield, policy)
        assert np.array_equal(got.field.values, ref.field.values)

    def test_circle_line_intersection(self):
        from scipy import ndimage

        pgrid = square_grid(1.6, 201)
        fields = [harmonic_field(pgrid), momentum_field(pgrid)]
        policy = MollifierPolicy(0.05)
        density = multi_invariant_density([1.0, 0.6], fields, policy)
        blobs, count = ndimage.label(density.field.values > 0.5 * density.field.values.max())
        assert count <= 2
        # oracle: circle q^2+p^2 = 2 meets p = 0.6 at q = +/- sqrt(2 - 0.36)
        qm, pm = pgrid.meshes()
        centers = ndimage.center_of_mass(density.field.values, blobs, range(1, count + 1))
        for ci, cj in centers:
            q = np.interp(ci, np.arange(pgrid.nq), pgrid.q)
            p = np.interp(cj, np.arange(pgrid.np), pgrid.p)
            assert abs(abs(q) - np.sqrt(2.0 - 0.36)) < 0.05
            assert abs(p - 0.6) < 0.05

    def test_empty_intersection_degenerate(self):
        pgrid = square_grid(1.4, 101)
        fields = [harmonic_field(pgrid), momentum_field(pgrid)]
        with pytest.raises(DegenerateSupportError) as err:
            multi_invariant_density([1.0, 10.0], fields, MollifierPolicy(0.05))
        assert err.value.raw_mass < 1e-6

    def test_length_mismatch(self):
        # epsilon resolves the grid, so the level count is what is refused
        hfield, policy = harmonic_field(square_grid(1.4, 41)), MollifierPolicy(0.3)
        with pytest.raises(ValueError, match="one level per field"):
            multi_invariant_density([1.0, 2.0], [hfield], policy)
        with pytest.raises(ValueError, match="one level per field"):
            ConstraintSet([hfield], policy).summed([[1.0, 2.0]], [1.0])

    def test_mixed_grids_rejected(self):
        with pytest.raises(GridMismatchError):
            multi_invariant_density(
                [1.0, 1.0],
                [harmonic_field(square_grid(1.5, 41)), momentum_field(square_grid(1.5, 43))],
                MollifierPolicy(0.1),
            )


class TestLiouvilleResidual:
    def test_function_of_h_second_order(self):
        residuals = []
        for n in (81, 161, 321):
            pgrid = square_grid(2.0, n)
            hfield = harmonic_field(pgrid)
            rho = PhaseField(pgrid, np.exp(-((hfield.values - 1.0) ** 2) / 0.32))
            residuals.append(liouville_residual(rho, hfield))
        # oracle: Richardson convergence measurement, halving the cell
        # size divides the residual by about 4
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_non_invariant_large(self):
        pgrid = square_grid(2.0, 161)
        hfield = harmonic_field(pgrid)
        rho = coordinate_field(pgrid)
        assert liouville_residual(rho, hfield) > 0.1

    def test_constant_density_zero(self):
        pgrid = square_grid(2.0, 81)
        hfield = harmonic_field(pgrid)
        rho = PhaseField(pgrid, np.ones((81, 81)))
        assert liouville_residual(rho, hfield) == 0.0


class TestMollifierPolicy:
    def test_default_resolves_five_cells(self):
        pgrid = square_grid(2.0, 201)
        hfield = harmonic_field(pgrid)
        policy = MollifierPolicy.default_for(hfield)
        gq, gp = np.gradient(hfield.values, pgrid.dq, pgrid.dp)
        med = np.median(np.hypot(gq, gp))
        assert policy.epsilon == pytest.approx(5.0 * med * pgrid.cell_diagonal)

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            MollifierPolicy(0.0)

    def test_convergence_under_joint_refinement(self):
        eps = 0.2
        for n in (101, 201, 401):
            pgrid = square_grid(2.5, n)
            hfield = harmonic_field(pgrid)
            density = shell_density(1.0, hfield, MollifierPolicy(eps))
            frac = mass_within(density, hfield, 1.0, 3 * eps) / density.h_mass()
            assert frac >= 0.99
            eps /= 2.0
            if eps < 0.05:
                break


class TestFreeFlightRidge:
    def test_blob_moves_linearly(self):
        pgrid = square_grid(2.5, 201)
        qm, pm = pgrid.meshes()
        blob = np.exp(-((qm + 0.5) ** 2) / (2 * 0.05**2) - ((pm - 1.2) ** 2) / (2 * 0.05**2))
        density = ClassicalDensity(
            PhaseField(pgrid, blob), 0.05, momentum_field(pgrid)
        )
        etas = np.linspace(0.0, 0.8, 17)
        ridge = free_flight_ridge(density, etas)
        coeffs = np.polyfit(etas, ridge, 1)
        assert coeffs[0] == pytest.approx(1.2, abs=0.02)
        assert coeffs[1] == pytest.approx(-0.5, abs=0.02)


class TestMassWithin:
    def test_partition(self):
        pgrid = square_grid(2.5, 151)
        hfield = harmonic_field(pgrid)
        density = shell_density(1.0, hfield, MollifierPolicy(0.1))
        inside = mass_within(density, hfield, 1.0, 0.2)
        outside_vals = np.where(
            np.abs(hfield.values - 1.0) > 0.2, density.field.values, 0.0
        )
        outside = ClassicalDensity(
            PhaseField(pgrid, outside_vals), 0.1, hfield
        ).h_mass()
        assert inside + outside == pytest.approx(density.h_mass(), abs=1e-12)


class TestEdgeFraction:
    def test_share_of_the_border_cells(self):
        # 5 x 4 cells valued 1..20: the 6 interior cells hold 63 of 210
        pgrid = PhaseGrid((0.0, 1.0), (0.0, 1.0), 5, 4)
        values = np.arange(1.0, 21.0).reshape(5, 4)
        hfield = harmonic_field(pgrid)
        density = ClassicalDensity(PhaseField(pgrid, values), 0.1, hfield)
        assert density.edge_fraction() == 147.0 / 210.0

    @pytest.mark.parametrize("nq, np_", [(2, 2), (2, 5), (5, 2)])
    def test_every_cell_on_the_border(self, nq, np_):
        pgrid = PhaseGrid((0.0, 1.0), (0.0, 1.0), nq, np_)
        density = ClassicalDensity(PhaseField(pgrid, np.ones((nq, np_))), 0.1,
                                   harmonic_field(pgrid))
        assert density.edge_fraction() == 1.0

    def test_share_far_below_rounding_of_the_total(self):
        # border cells 1e-30, the 3 x 2 interior cells 1: a share of 14e-30
        # / 6, which (total - interior) / total would read as 0
        pgrid = PhaseGrid((0.0, 1.0), (0.0, 1.0), 5, 4)
        values = np.full((5, 4), 1e-30)
        values[1:-1, 1:-1] = 1.0
        density = ClassicalDensity(PhaseField(pgrid, values), 0.1, harmonic_field(pgrid))
        assert density.edge_fraction() == pytest.approx(14e-30 / 6.0, rel=1e-15, abs=0.0)


class TestIO:
    def test_binary_round_trip(self, tmp_path):
        pgrid = PhaseGrid((-1.5, 2.0), (-0.5, 3.0), 17, 23)
        rng = np.random.default_rng(3)
        field = PhaseField(pgrid, rng.standard_normal((17, 23)))
        path = tmp_path / "field.wpf"
        write_phase_field(field, path)
        assert path.stat().st_size == 48 + 17 * 23 * 8
        assert path.read_bytes()[:4] == b"WPF2"
        back = read_phase_field(path)
        assert np.array_equal(back.values, field.values)
        assert back.grid.nq == 17 and back.grid.np == 23
        assert back.grid.q_range == (-1.5, 2.0) and back.grid.p_range == (-0.5, 3.0)

    @given(nq=st.integers(2, 40), np_=st.integers(2, 40),
           bounds=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_binary_round_trip_is_bit_exact(self, tmp_path_factory, nq, np_, bounds, seed):
        # ranges that float32 cannot hold, which a WPF1 header would round
        assume(all(float(np.float32(b)) != b for b in bounds))
        q_range, p_range = sorted(bounds[:2]), sorted(bounds[2:])
        assume(q_range[0] < q_range[1] and p_range[0] < p_range[1])
        pgrid = PhaseGrid(q_range, p_range, nq, np_)
        values = np.random.default_rng(seed).standard_normal((nq, np_))
        values[0, 0] = -0.0
        field = PhaseField(pgrid, values)
        path = tmp_path_factory.mktemp("wpf") / "field.wpf"
        write_phase_field(field, path)
        back = read_phase_field(path)
        assert back.grid == field.grid
        assert back.values.tobytes() == field.values.tobytes()

    def test_reads_wpf1(self, tmp_path):
        # the 32-byte WPF1 header holds float32 ranges
        values = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "old.wpf"
        header = struct.pack("<4sII4f4x", b"WPF1", 2, 3, -1.3, 0.7, 0.0, 2.0)
        path.write_bytes(header + values.astype("<f8").tobytes())
        back = read_phase_field(path)
        assert back.grid == PhaseGrid((float(np.float32(-1.3)), float(np.float32(0.7))),
                                      (0.0, 2.0), 2, 3)
        assert back.values.tobytes() == values.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.wpf"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_phase_field(path)
        path.write_bytes(b"WPF3" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            read_phase_field(path)
        # a header cut short
        path.write_bytes(b"WPF2" + b"\x00" * 40)
        with pytest.raises(ValueError, match="44 bytes"):
            read_phase_field(path)

    def test_csv_format(self, tmp_path):
        # a 2 x 2 phase field's q, p and value columns
        pgrid = PhaseGrid((0, 1), (0, 1), 2, 2)
        field = PhaseField(pgrid, [[0.0, 1.0], [2.0, 3.0]])
        q, p = np.repeat(pgrid.q, pgrid.np), np.tile(pgrid.p, pgrid.nq)
        path = tmp_path / "field.csv"
        write_csv(path, ["q", "p", "value"], [q, p, field.values.ravel()])
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"q,p,value"
        assert len(lines) == 6
        assert b"\r" not in path.read_bytes()

    def test_csv_on_non_square_grid_matches_float_columns(self, tmp_path):
        # nq != np, so swapped repeat and tile axes change the bytes
        pgrid = PhaseGrid((-1.3, 0.7), (0.1, 2.9), 7, 11)
        values = np.random.default_rng(5).standard_normal((7, 11))
        q, p = np.repeat(pgrid.q, pgrid.np), np.tile(pgrid.p, pgrid.nq)
        header = ["q", "p", "value"]
        path = tmp_path / "field.csv"
        write_csv(path, header, [q, p, values.ravel()])
        cells = zip(q.tolist(), p.tolist(), values.ravel().tolist())
        expected = "q,p,value\n" + "".join(f"{a:.16e},{b:.16e},{v:.16e}\n" for a, b, v in cells)
        assert path.read_bytes() == expected.encode()
        rows = np.array(read_csv(path, header))
        assert rows.tobytes() == np.column_stack([q, p, values.ravel()]).tobytes()
