import numpy as np
import pytest

from vanhove import (
    ConfigError,
    make_grid,
    observable_from_descriptors,
    pair,
    identity_observable,
    regular_from_descriptor,
    singular_from_descriptor,
    state_from_descriptors,
    validate_state,
)


@pytest.fixture
def grid():
    return make_grid(10.0, 21)


def test_gaussian_singular(grid):
    kern = singular_from_descriptor(grid, {"type": "gaussian", "mu": 5.0, "sigma": 1.0})
    expect = np.exp(-((grid.points - 5.0) ** 2) / 2.0)
    assert np.allclose(kern.values, expect)


def test_gaussian_regular_separable(grid):
    kern = regular_from_descriptor(
        grid, {"type": "gaussian", "mu": 5.0, "sigma": 1.0, "amplitude": 2.0}
    )
    g = 2.0 * np.exp(-((grid.points - 5.0) ** 2) / 2.0)
    assert np.allclose(kern.values, np.outer(g, g) / 2.0)
    assert kern.hermiticity_defect() < 1e-15


def test_lorentzian_profile(grid):
    kern = singular_from_descriptor(
        grid, {"type": "lorentzian", "center": 5.0, "gamma": 0.5}
    )
    assert kern.values[10] == pytest.approx(1.0)  # peak at the center
    assert kern.values[12] == pytest.approx(1.0 / (1.0 + 4.0))


def test_point_state_normalized(grid):
    state = state_from_descriptors(grid, {"type": "point", "omega": 3.5})
    assert pair(state, identity_observable(grid)) == pytest.approx(1.0)
    assert np.count_nonzero(state.singular.values) == 1


def test_point_regular_unit_quadrature_mass(grid):
    kern = regular_from_descriptor(grid, {"type": "point", "omega": 3.5})
    k = np.argmin(np.abs(grid.points - 3.5))
    assert np.count_nonzero(kern.values) == 1
    w = grid.weights[k]
    assert kern.values[k, k] == pytest.approx(1.0 / w**2)
    # double quadrature over the peak integrates to one
    assert np.einsum("i,j,ij->", grid.weights, grid.weights, kern.values.real) == pytest.approx(1.0)


def test_uniform_state_valid(grid):
    state = state_from_descriptors(grid, {"type": "uniform"})
    assert validate_state(state).ok


def test_normalize_flag(grid):
    raw = state_from_descriptors(
        grid, {"type": "gaussian", "mu": 5.0, "sigma": 1.0}, normalize=False
    )
    assert pair(raw, identity_observable(grid)).real != pytest.approx(1.0)
    cooked = state_from_descriptors(grid, {"type": "gaussian", "mu": 5.0, "sigma": 1.0})
    assert pair(cooked, identity_observable(grid)) == pytest.approx(1.0)


def test_unknown_type(grid):
    with pytest.raises(ValueError):
        singular_from_descriptor(grid, {"type": "triangle"})


def test_bad_width(grid):
    with pytest.raises(ValueError):
        singular_from_descriptor(grid, {"type": "gaussian", "mu": 1.0, "sigma": 0.0})


def test_observable_defaults_self_adjoint(grid):
    obs = observable_from_descriptors(grid, {"type": "uniform"})
    assert obs.self_adjoint


def test_point_takes_the_nearest_grid_point(grid):
    # spacing 0.5: 0.25 and 9.75 lie halfway, where the lower point is taken
    for omega in [0.0, 0.25, 0.26, 3.3, 9.75, 10.0, 12.0]:
        kern = singular_from_descriptor(grid, {"type": "point", "omega": omega})
        assert np.flatnonzero(kern.values).tolist() == [np.argmin(np.abs(grid.points - omega))]


@pytest.mark.parametrize("profile", [
    {"type": "gaussian", "mu": 5.0, "sigma": 1.0},
    {"type": "lorentzian", "center": 5.0, "gamma": 1.0},
])
@pytest.mark.parametrize("amplitude", [1e4, 1e6, 1e8])
def test_large_amplitude_kernels_pass_as_hermitian(profile, amplitude):
    # f(w) f(w') / amplitude is Hermitian by construction; its rounding, and
    # the tolerance, grow with the amplitude
    grid = make_grid(10.0, 512)
    desc = {**profile, "amplitude": amplitude}
    obs = observable_from_descriptors(grid, {"type": "uniform"}, desc)
    assert obs.self_adjoint
    assert validate_state(state_from_descriptors(grid, {"type": "uniform"}, desc)).ok


class TestTables:
    def write_singular(self, path, grid, fn):
        with open(path, "w") as fh:
            fh.write("omega,re,im\n")
            for w in grid.points:
                fh.write(f"{float(w)!r},{float(fn(w))!r},0.0\n")

    def test_singular_round_trip(self, grid, tmp_path):
        path = tmp_path / "kern.csv"
        self.write_singular(path, grid, lambda w: 0.5 * w)
        kern = singular_from_descriptor(grid, {"type": "table", "path": str(path)})
        assert np.allclose(kern.values, 0.5 * grid.points)

    def test_regular_round_trip(self, tmp_path):
        grid = make_grid(2.0, 3)
        path = tmp_path / "reg.csv"
        with open(path, "w") as fh:
            fh.write("omega,omega_prime,re,im\n")
            for wi in grid.points:
                for wj in grid.points:
                    fh.write(f"{float(wi)!r},{float(wj)!r},{float(wi * wj)!r},0.1\n")
        kern = regular_from_descriptor(grid, {"type": "table", "path": str(path)})
        assert np.allclose(kern.values, np.outer(grid.points, grid.points) + 0.1j)

    def test_wrong_header(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("w,re,im\n0.0,1.0,0.0\n")
        with pytest.raises(ConfigError, match="header"):
            singular_from_descriptor(grid, {"type": "table", "path": str(path)})

    def test_missing_coverage(self, grid, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("omega,re,im\n0.0,1.0,0.0\n")
        with pytest.raises(ConfigError, match="cover"):
            singular_from_descriptor(grid, {"type": "table", "path": str(path)})

    def test_off_grid_point(self, grid, tmp_path):
        path = tmp_path / "off.csv"
        self.write_singular(path, grid, lambda w: 1.0)
        with open(path, "a") as fh:
            fh.write("0.123,1.0,0.0\n")
        with pytest.raises(ConfigError, match="not a grid point"):
            singular_from_descriptor(grid, {"type": "table", "path": str(path)})

    @pytest.mark.parametrize("scheme", ["uniform", "chebyshev"])
    def test_tables_match_the_per_row_matcher(self, scheme, tmp_path):
        grid = make_grid(10.0, 12, scheme)
        rng = np.random.default_rng(3)

        def rows(cells):
            # shuffled, omegas off the grid by less than the match tolerance,
            # and a repeated cell whose last row must win
            order = [*rng.permutation(len(cells)), int(rng.integers(len(cells)))]
            return [[float(w + rng.uniform(-5e-9, 5e-9)) for w in cells[k]]
                    + rng.standard_normal(2).tolist() for k in order]

        def per_row(table, shape):
            values = np.full(shape, np.nan, dtype=complex)
            for *omegas, re, im in table:
                values[tuple(int(np.argmin(np.abs(grid.points - w))) for w in omegas)] = re + 1j * im
            return values

        def write(path, header, table):
            path.write_text(header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in table))
            return {"type": "table", "path": str(path)}

        table = rows([(w,) for w in grid.points])
        kern = singular_from_descriptor(grid, write(tmp_path / "s.csv", "omega,re,im", table))
        assert np.array_equal(kern.values, per_row(table, grid.size))

        table = rows([(wi, wj) for wi in grid.points for wj in grid.points])
        desc = write(tmp_path / "r.csv", "omega,omega_prime,re,im", table)
        kern = regular_from_descriptor(grid, desc)
        assert np.array_equal(kern.values, per_row(table, (grid.size, grid.size)))

    def test_missing_file(self, grid):
        with pytest.raises(ConfigError, match="not found"):
            singular_from_descriptor(grid, {"type": "table", "path": "/nope.csv"})
