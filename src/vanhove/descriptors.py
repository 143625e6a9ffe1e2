"""Declarative kernel families for experiment configs.

A descriptor is a plain dict with a "type" key.  Supported families:

    {"type": "gaussian", "mu": 5.0, "sigma": 0.5, "amplitude": 1.0}
    {"type": "lorentzian", "center": 5.0, "gamma": 0.5, "amplitude": 1.0}
    {"type": "uniform"}
    {"type": "point", "omega": 2.0}
    {"type": "table", "path": "kernel.csv"}

Singular kernels are f(w); regular kernels use the separable Hermitian
form f(w) f(w') / amplitude of the same profile (for gaussian that is
amplitude * exp(-((w-mu)^2 + (w'-mu)^2) / (2 sigma^2))), held as rank-1
factors.  "point" puts unit quadrature mass on the nearest grid point
(rank 1 again); only tables are dense n x n.  CSV tables must sample
every grid point: header ``omega,re,im`` for singular kernels and
``omega,omega_prime,re,im`` for regular ones.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ._csv import read_csv
from .errors import ConfigError
from .kernels import (
    EnergyGrid,
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    zero_regular,
    zero_singular,
)

_MATCH_RTOL = 1e-9


def _profile(points: np.ndarray, desc: dict) -> np.ndarray:
    kind = desc.get("type")
    if kind == "gaussian":
        mu, sigma = float(desc["mu"]), float(desc["sigma"])
        amp = float(desc.get("amplitude", 1.0))
        if sigma <= 0:
            raise ValueError("gaussian descriptor needs sigma > 0")
        return amp * np.exp(-((points - mu) ** 2) / (2.0 * sigma**2))
    if kind == "lorentzian":
        center, gamma = float(desc["center"]), float(desc["gamma"])
        amp = float(desc.get("amplitude", 1.0))
        if gamma <= 0:
            raise ValueError("lorentzian descriptor needs gamma > 0")
        return amp / (1.0 + ((points - center) / gamma) ** 2)
    if kind == "uniform":
        return np.ones_like(points)
    raise ValueError(f"unsupported kernel descriptor type {kind!r}")


def _nearest(points: np.ndarray, omegas) -> np.ndarray:
    """Index of the point nearest each omega (the lower one on a tie), by
    bisection and a check of the two neighbours."""
    k = np.clip(np.searchsorted(points, omegas), 1, points.size - 1)
    return k - (omegas - points[k - 1] <= points[k] - omegas)


def singular_from_descriptor(grid: EnergyGrid, desc: dict) -> SingularKernel:
    kind = desc.get("type")
    if kind == "point":
        k = int(_nearest(grid.points, float(desc["omega"])))
        values = np.zeros(grid.size, dtype=complex)
        values[k] = 1.0 / grid.weights[k]
        return SingularKernel(grid, values)
    if kind == "table":
        return _singular_from_csv(grid, Path(desc["path"]))
    return SingularKernel(grid, _profile(grid.points, desc))


def regular_from_descriptor(grid: EnergyGrid, desc: dict) -> RegularKernel:
    kind = desc.get("type")
    if kind == "point":
        k = int(_nearest(grid.points, float(desc["omega"])))
        left, right = np.zeros((grid.size, 1)), np.zeros((grid.size, 1))
        left[k, 0] = 1.0 / grid.weights[k] ** 2
        right[k, 0] = 1.0
        return RegularKernel(grid, left, right)
    if kind == "table":
        return _regular_from_csv(grid, Path(desc["path"]))
    profile = _profile(grid.points, desc)[:, None]
    amp = float(desc.get("amplitude", 1.0))
    if amp == 0.0:
        return zero_regular(grid)
    # separable product f(w) f(w') with a single amplitude factor overall
    return RegularKernel(grid, profile, profile / amp)


def state_from_descriptors(
    grid: EnergyGrid,
    singular: dict,
    regular: dict | None = None,
    normalize: bool = True,
) -> StateFunctional:
    """Build a state; ``normalize`` rescales the diagonal so (rho|I) = 1."""
    sing = singular_from_descriptor(grid, singular)
    if normalize:
        total = float(np.sum(grid.weights * sing.values.real))
        if total <= 0:
            raise ValueError("cannot normalize a state with nonpositive mass")
        sing = SingularKernel(grid, sing.values / total)
    reg = (
        regular_from_descriptor(grid, regular)
        if regular is not None
        else zero_regular(grid)
    )
    return StateFunctional(sing, reg)


def observable_from_descriptors(
    grid: EnergyGrid,
    singular: dict | None = None,
    regular: dict | None = None,
    self_adjoint: bool = True,
) -> Observable:
    sing = (
        singular_from_descriptor(grid, singular)
        if singular is not None
        else zero_singular(grid)
    )
    reg = (
        regular_from_descriptor(grid, regular)
        if regular is not None
        else zero_regular(grid)
    )
    return Observable(sing, reg, self_adjoint=self_adjoint)


def _table(grid: EnergyGrid, path: Path, header: list[str]) -> np.ndarray:
    """A table's values re + i im at the grid cells its omega columns match,
    all rows at once; NaN where no row lands, the last row where several do.
    The first omega (NaN included) off the grid by more than _MATCH_RTOL is
    refused."""
    table = read_csv(path, header)
    omegas = table[:, :-2]
    k = _nearest(grid.points, omegas)
    off = ~(np.abs(grid.points[k] - omegas) <= _MATCH_RTOL * max(abs(grid.omega_max), 1.0))
    if off.any():
        omega = float(omegas.flat[np.argmax(off)])
        raise ConfigError(f"table {path}: omega={omega!r} is not a grid point")
    values = np.full((grid.size,) * omegas.shape[1], np.nan, dtype=complex)
    values[tuple(k.T)] = table[:, -2] + 1j * table[:, -1]
    return values


def _singular_from_csv(grid: EnergyGrid, path: Path) -> SingularKernel:
    values = _table(grid, path, ["omega", "re", "im"])
    if np.any(np.isnan(values)):
        raise ConfigError(f"table {path} does not cover every grid point")
    return SingularKernel(grid, values)


def _regular_from_csv(grid: EnergyGrid, path: Path) -> RegularKernel:
    values = _table(grid, path, ["omega", "omega_prime", "re", "im"])
    if np.any(np.isnan(values)):
        raise ConfigError(f"table {path} does not cover the full grid square")
    return RegularKernel(grid, values)
