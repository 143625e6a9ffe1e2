"""Phase-space images of kernel data and mollified classical densities.

The singular part of an observable transforms to a function of the
classical Hamiltonian field: O_S -> O(H(q, p)).  Energy shells become
densities peaked on the level sets H(q, p) = w0; Dirac deltas are
represented by Gaussian mollifiers of explicit width epsilon (the finite
stand-in for the hbar -> 0 peak width).

One builder, ``ConstraintSet``, makes every mollified density: each is a
weighted sum of its unit-mass constraint products.  Shells
(``shell_density``), mixtures of shells (``classical_state_density``),
constraint products (``multi_invariant_density``) and the trajectory
ensemble (``cosmology.trajectory_ensemble``) differ only in the levels and
weights they ask for.

Functions of H alone are not integrable over the full (q, p) plane, so
all masses and expectations here use the energy-integration prescription:
phase cells are binned by their H value (bin width epsilon / 2), fields
are averaged per bin, and the averages are integrated over H only.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSupportError, DomainMismatchError, GridMismatchError
from .kernels import SingularKernel, _frozen

DEGENERATE_MASS_TOL = 1e-6
# magic, nq, np and the q and p ranges: WPF2 holds float64 ranges behind 4
# pad bytes, so the samples after its 48 bytes stay 8-byte aligned; WPF1,
# still read, held float32 ranges
_WPF_HEADERS = {b"WPF2": struct.Struct("<4sII4x4d"), b"WPF1": struct.Struct("<4sII4f4x")}


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular (q, p) window; hbar = 1 so cells carry action."""

    q_range: tuple[float, float]
    p_range: tuple[float, float]
    nq: int
    np: int

    def __post_init__(self):
        object.__setattr__(self, "q_range", tuple(map(float, self.q_range)))
        object.__setattr__(self, "p_range", tuple(map(float, self.p_range)))
        if self.nq < 2 or self.np < 2:
            raise ValueError("phase grid needs nq, np >= 2")
        if self.q_range[1] <= self.q_range[0] or self.p_range[1] <= self.p_range[0]:
            raise ValueError("phase grid ranges must be non-degenerate")

    @property
    def q(self) -> np.ndarray:
        return np.linspace(self.q_range[0], self.q_range[1], self.nq)

    @property
    def p(self) -> np.ndarray:
        return np.linspace(self.p_range[0], self.p_range[1], self.np)

    @property
    def dq(self) -> float:
        return (self.q_range[1] - self.q_range[0]) / (self.nq - 1)

    @property
    def dp(self) -> float:
        return (self.p_range[1] - self.p_range[0]) / (self.np - 1)

    @property
    def cell_diagonal(self) -> float:
        return float(np.hypot(self.dq, self.dp))

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.q, self.p, indexing="ij")


@dataclass(frozen=True)
class PhaseField:
    """Real scalar field sampled on a PhaseGrid, shape (nq, np)."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values, float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.nq, self.grid.np):
            raise ValueError(
                f"field shape {values.shape} does not match grid "
                f"{(self.grid.nq, self.grid.np)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("phase field contains non-finite entries")

    @classmethod
    def from_function(cls, grid: PhaseGrid, fn) -> "PhaseField":
        qm, pm = grid.meshes()
        return cls(grid, np.asarray(fn(qm, pm), dtype=float))


def harmonic_field(grid: PhaseGrid) -> PhaseField:
    return PhaseField.from_function(grid, lambda q, p: 0.5 * (q**2 + p**2))


def kinetic_field(grid: PhaseGrid) -> PhaseField:
    return PhaseField.from_function(grid, lambda q, p: 0.5 * p**2)


def momentum_field(grid: PhaseGrid) -> PhaseField:
    return PhaseField.from_function(grid, lambda q, p: p + 0.0 * q)


def coordinate_field(grid: PhaseGrid) -> PhaseField:
    return PhaseField.from_function(grid, lambda q, p: q + 0.0 * p)


@dataclass(frozen=True)
class MollifierPolicy:
    """Gaussian width used in place of Dirac deltas (energy units)."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"mollifier width must be positive, got {self.epsilon}")

    @classmethod
    def default_for(cls, hfield: PhaseField) -> "MollifierPolicy":
        """Width resolved by about 5 cells: 5 x median |grad H| x cell diagonal."""
        return cls(5.0 * _field_resolution(hfield))


def _field_resolution(field: PhaseField) -> float:
    gq, gp = np.gradient(field.values, field.grid.dq, field.grid.dp)
    med = float(np.median(np.hypot(gq, gp)))
    return max(med * field.grid.cell_diagonal, 1e-300)


@dataclass(frozen=True)
class ClassicalDensity:
    """Nonnegative phase-space density with unit mass under the H-binned
    prescription; keeps the Hamiltonian field it was built against."""

    field: PhaseField
    mollifier_width: float
    hfield: PhaseField

    def __post_init__(self):
        if self.field.grid != self.hfield.grid:
            raise GridMismatchError("density and Hamiltonian field grids differ")
        if float(np.min(self.field.values)) < -1e-12:
            raise ValueError("classical density has negative values")

    @cached_property
    def bins(self) -> _HBins:
        """The cells binned by ``hfield``, built on first use unless
        ``ConstraintSet.density`` handed over its own."""
        return _HBins(self.hfield, self.mollifier_width)

    def h_mass(self) -> float:
        """Total mass under the H-binned energy integration."""
        return self.bins.mass(self.field.values)

    def edge_fraction(self) -> float:
        """Share of plain phase-area mass sitting on the window border;
        large values mean the level sets leak out of the window.  The four
        border strips are summed themselves, each corner once, so a share
        far below rounding of the total still reads as itself."""
        v = self.field.values
        total = float(v.sum())
        if total == 0.0:
            return 0.0
        border = v[[0, -1]].sum() + v[1:-1, [0, -1]].sum()
        return float(border) / total


class _HBins:
    """Phase cells binned by their H value, bin width epsilon / 2.

    Built once per (H field, epsilon) and reused for every field binned
    against it."""

    def __init__(self, hfield: PhaseField, epsilon: float):
        h = hfield.values
        self.lo = float(h.min())
        hi = float(h.max())
        self.epsilon = float(epsilon)
        self.width = 0.5 * self.epsilon
        self.nbins = max(1, int(np.ceil((hi - self.lo) / self.width))) if hi > self.lo else 1
        self.index = self.of(h.ravel())
        self.counts = np.bincount(self.index, minlength=self.nbins)

    def of(self, h: np.ndarray) -> np.ndarray:
        """Bin of each value ``h`` of the H field."""
        return np.clip(((h - self.lo) / self.width).astype(np.int64), 0, self.nbins - 1)

    def means(self, values: np.ndarray) -> np.ndarray:
        """Per-bin average of ``values``; empty bins read 0."""
        sums = np.bincount(self.index, weights=values.ravel(), minlength=self.counts.size)
        return np.where(self.counts > 0, sums / np.maximum(self.counts, 1), 0.0)

    def mass(self, values: np.ndarray) -> float:
        """Bin averages integrated over H."""
        return float(self.means(values).sum() * self.width)


def _mollifier(distinct: np.ndarray, levels, epsilon: float) -> np.ndarray:
    """exp(-(L - l)^2 / 2 eps^2) at each of a field's distinct values L, one
    row per level l: one exp per distinct value and level, not per cell."""
    out = distinct - np.expand_dims(levels, -1)
    out *= out
    out /= -2.0 * epsilon**2
    return np.exp(out, out=out)


# Factors are cut below 2^-54 = eps / 4, half an ulp of a factor near its
# peak 1; exp(-REACH^2 / 2) = 2^-54 gives REACH = sqrt(108 ln 2) = 8.65 widths.
REACH = float(np.sqrt(-2.0 * np.log(np.finfo(float).eps / 4)))


def _bounds(distinct: np.ndarray, levels: np.ndarray, epsilon: float) -> np.ndarray:
    """Each level's band in sorted ``distinct``, the values L with
    l - REACH eps <= L <= l + REACH eps, as a (2, levels) array of lo and
    hi: the band is distinct[lo:hi]."""
    reach = REACH * epsilon
    return np.stack([np.searchsorted(distinct, levels - reach, "left"),
                     np.searchsorted(distinct, levels + reach, "right")])


def _banded(distinct: np.ndarray, levels: np.ndarray, bounds: np.ndarray, epsilon: float):
    """The slice of sorted ``distinct`` values that holds the bands of all
    ``levels`` (``_bounds``), and ``_mollifier`` there, one row per level.
    A factor is evaluated within its level's band, and is exactly 0
    elsewhere."""
    lo, hi = bounds
    band = slice(int(lo.min()), int(hi.max()))
    out = _mollifier(distinct[band], levels, epsilon)
    for row, start, stop in zip(out, lo - band.start, hi - band.start):
        row[:start] = 0.0
        row[stop:] = 0.0
    return band, out


def _blocks(rows, columns, budget: int):
    """Consecutive blocks [start, stop) of components sorted by their first
    level, each as long as its factors fit the budget: (stop - start) x
    (band rows + band columns) <= ``budget`` entries, or one component.
    ``rows`` and ``columns`` hold each component's band bounds; sorted
    levels give nondecreasing row bounds, so a block's rows run from its
    first lo to its last hi, and its entries grow with every component."""
    (lo, hi), (column_lo, column_hi) = rows, columns
    start = 0
    while start < lo.size:
        width = (hi[start:] - lo[start] + np.maximum.accumulate(column_hi[start:])
                 - np.minimum.accumulate(column_lo[start:]))
        entries = width * np.arange(1, width.size + 1)
        stop = start + max(1, int(np.searchsorted(entries, budget, "right")))
        yield slice(start, stop)
        start = stop


class ConstraintSet:
    """Gaussian mollifiers of fixed fields at one width, and weighted sums of
    their products.

    The fields are checked once: there is at least one, they share a grid,
    and epsilon resolves each.  Cells are binned by the first field, which
    plays the Hamiltonian's role in the H-binned prescription.  With two or
    more fields the last is the column group and the others the row group;
    one field is the row group alone.  Each cell is keyed by the joint
    distinct values of each group, its row and column, so a product of
    mollifiers is A[row] B[col].  Rows are sorted by the first field's value
    and columns by the last field's, so the values within REACH eps of a
    level are one slice of each.  This set-up (``np.unique`` per field and
    per further row field) is paid once per set, also for a single level
    tuple as in ``shell_density``."""

    def __init__(self, fields, policy: MollifierPolicy):
        self.fields = list(fields)
        if not self.fields:
            raise ValueError("need at least one constraint field")
        for f in self.fields[1:]:
            if f.grid != self.fields[0].grid:
                raise GridMismatchError("invariant fields live on different grids")
        for f in self.fields:
            res = _field_resolution(f)
            if policy.epsilon <= res:
                raise ValueError(
                    f"mollifier width {policy.epsilon:.3e} does not resolve the "
                    f"cell-induced energy resolution {res:.3e}; refine the grid "
                    f"or widen epsilon"
                )
        self.epsilon = policy.epsilon
        self.bins = _HBins(self.fields[0], policy.epsilon)
        # raveled first: the shape of unique's inverse differs between numpy versions
        self.distinct = [np.unique(f.values.ravel(), return_inverse=True) for f in self.fields]
        split = max(1, len(self.fields) - 1)
        self._rows, self._columns = self.distinct[:split], self.distinct[split:]

        # joint distinct values of the row group, one field at a time, keyed
        # first-field-major so that rows are sorted by the first field: each
        # row's index into every row field's distinct values, and each cell's row
        values, row = self._rows[0]
        index = [np.arange(values.size)]
        for values, inverse in self._rows[1:]:
            keys, row = np.unique(row * values.size + inverse, return_inverse=True)
            index = [i[keys // values.size] for i in index] + [keys % values.size]
        self._row_values = self._rows[0][0][index[0]]
        self._row_index = index[1:]
        nrows = index[0].size
        ncols = self._columns[0][0].size if self._columns else 1
        self._cell = row * ncols + (self._columns[0][1] if self._columns else 0)

        counts = np.bincount(self._cell, minlength=nrows * ncols).reshape(nrows, ncols)
        self._share = counts / self.bins.counts[self.bins.of(self._row_values)][:, None]

    def summed(self, levels, weights) -> tuple[np.ndarray, np.ndarray]:
        """Sum over components k of ``weights[k]`` times the unit-mass product
        prod_i g(L_i - levels[k, i]) at each (row, column), and each
        product's raw mass; ``levels`` has one row per component, one level
        per field, and ``density`` gathers the sum at the cells.  The factor
        g(d) is exp(-d^2 / 2 eps^2) where |d| <= REACH eps and exactly 0
        beyond.

        The sum is D = A^T diag(w / mass) B, and mass = width * rowsum((A N)
        o B) with N[row, col] = count(row, col) / count(H bin of row); D and
        N hold rows x columns entries.  Components go a block at a time in
        ascending order of their first level, so a block's nonzero factors
        lie in one slice of rows (the first field is within reach) and one of
        columns: each block costs K_block x (band rows + band columns)
        exponentials and contracts only that rectangle.  Every level's band
        bounds come from one ``searchsorted`` pair per field, and they size
        the blocks (``_blocks``): each holds as many components as keep its
        factors within one phase field's worth of entries, K_block x (band
        rows + band columns) <= cells.  Further row fields are evaluated on
        their distinct values within reach and gathered at the band's rows.
        Besides the count, the band skips the exponentials that underflow,
        for which numpy's exp takes over ten times as long as for a normal
        result (about a hundred times for a subnormal one).  einsum loops,
        not BLAS, contract the blocks, so the bytes do not depend on the BLAS
        thread count.

        The cut is below rounding.  A dropped term has a factor below 2^-54
        and the others at most 1, so the dropped part of a cell is at most
        2^-54 sum_k w_k / m_k.  Each bin mean of a product loses at most
        2^-54, so each raw mass m_k is short by at most 2^-54 S, where S =
        width x bins <= (H range + eps / 2) (1.4e-15 on [0, 25]); that moves
        w_k / m_k by at most 2^-54 S / m_k relative, 1.4e-9 at a mass of
        DEGENERATE_MASS_TOL, and it can move a component across that
        tolerance only if its mass lies within 2^-54 S of it.  A component
        whose mass is below DEGENERATE_MASS_TOL, among them one with no
        value in reach (mass exactly 0), adds nothing; callers flag or
        refuse it by its mass.  Masses come back in the caller's order."""
        levels = np.asarray(levels, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if levels.shape[1:] != (len(self.fields),) or weights.shape != levels.shape[:1]:
            raise ValueError(
                f"need one level per field and one weight per component, got levels "
                f"{levels.shape} and weights {weights.shape} for {len(self.fields)} fields"
            )
        order = np.argsort(levels[:, 0], kind="stable")
        levels, weights = levels[order], weights[order]
        eps = self.epsilon
        rows = _bounds(self._row_values, levels[:, 0], eps)
        further = [_bounds(values, level, eps)
                   for (values, _), level in zip(self._rows[1:], levels.T[1:])]
        # one field alone: every component takes the single column
        columns = np.repeat([[0], [1]], len(levels), axis=1)
        if self._columns:
            columns = _bounds(self._columns[0][0], levels[:, -1], eps)
        total = np.zeros(self._share.shape)
        masses = np.empty(len(levels))
        for block in _blocks(rows, columns, self._cell.size):
            lv = levels[block]
            band, a = _banded(self._row_values, lv[:, 0], rows[:, block], eps)
            for (values, _), index, level, bounds in zip(
                self._rows[1:], self._row_index, lv.T[1:], further
            ):
                within, factor = _banded(values, level, bounds[:, block], eps)
                full = np.zeros((len(lv), values.size))
                full[:, within] = factor
                a *= full[:, index[band]]
            across, b = slice(None), np.ones((len(lv), 1))
            if self._columns:
                across, b = _banded(self._columns[0][0], lv[:, -1], columns[:, block], eps)
            shared = np.einsum("kr,rc->kc", a, self._share[band, across])
            mass = self.bins.width * np.einsum("kc,kc->k", shared, b)
            scale = np.divide(
                weights[block], mass, out=np.zeros_like(mass), where=mass >= DEGENERATE_MASS_TOL
            )
            a *= scale[:, None]
            total[band, across] += np.einsum("kr,kc->rc", a, b)
            masses[order[block]] = mass
        return total, masses

    def density(self, totals) -> ClassicalDensity:
        """The density whose cells read ``totals``, a rows x columns sum as
        ``summed`` returns it, at their (row, column).  It holds this set's
        bins (the same field and width) instead of binning again."""
        values = np.take(totals, self._cell).reshape(self.fields[0].values.shape)
        density = ClassicalDensity(
            PhaseField(self.fields[0].grid, values), self.epsilon, self.fields[0]
        )
        vars(density)["bins"] = self.bins
        return density


def _supported(constraints: ConstraintSet, levels, weights) -> ClassicalDensity:
    """The summed density of components that must each have support; raises
    DegenerateSupportError for the first whose mass is below tolerance."""
    totals, masses = constraints.summed(levels, weights)
    for lv, mass in zip(np.asarray(levels), masses):
        if mass < DEGENERATE_MASS_TOL:
            raise DegenerateSupportError(
                f"constraint product has raw mass {mass:.3e}; "
                f"level values {lv.tolist()} have empty intersection",
                raw_mass=float(mass),
            )
    return constraints.density(totals)


def wigner_singular(obs_singular: SingularKernel, hfield: PhaseField) -> PhaseField:
    """Compose diagonal kernel samples with the Hamiltonian field.

    Linear interpolation between energy grid points; H values outside the
    sampled energy interval map to 0 (level sets may exit the window).
    """
    vals = obs_singular.values
    if float(np.max(np.abs(vals.imag))) > 1e-12:
        raise ValueError("cannot map a complex diagonal kernel to phase space")
    points = obs_singular.grid.points
    h = hfield.values
    if float(h.max()) < points[0] or float(h.min()) > points[-1]:
        raise DomainMismatchError(
            "Hamiltonian field values lie entirely outside the energy grid"
        )
    out = np.interp(h, points, vals.real, left=0.0, right=0.0)
    return PhaseField(hfield.grid, out)


def shell_density(
    omega0: float, hfield: PhaseField, policy: MollifierPolicy
) -> ClassicalDensity:
    """Mollified energy-shell density exp(-(H - w0)^2 / 2 eps^2), normalized
    to unit mass under the H-binned prescription."""
    h = hfield.values
    if not (float(h.min()) <= omega0 <= float(h.max())):
        raise DomainMismatchError(
            f"shell energy {omega0} is unreachable on this window "
            f"(H spans [{h.min():.6g}, {h.max():.6g}])"
        )
    return _supported(ConstraintSet([hfield], policy), [[omega0]], [1.0])


def classical_state_density(
    rho_singular: SingularKernel, hfield: PhaseField, policy: MollifierPolicy
) -> ClassicalDensity:
    """Statistical ensemble of shell densities weighted by w_i rho(w_i).

    Energies outside the window's H range contribute nothing; the missing
    weight shows up as h_mass() < 1 (leakage diagnostic).
    """
    if float(np.max(np.abs(rho_singular.values.imag))) > 1e-10:
        raise ValueError("state diagonal must be real to form a classical density")
    h = hfield.values
    omegas = rho_singular.grid.points
    coeff = rho_singular.grid.weights * rho_singular.values.real
    used = (coeff != 0.0) & (omegas >= float(h.min())) & (omegas <= float(h.max()))
    return _supported(ConstraintSet([hfield], policy), omegas[used, None], coeff[used])


def classical_expectation(rho_field: ClassicalDensity, obs_field: PhaseField) -> float:
    """Energy-space mean value: bin both fields by H, average per bin,
    integrate the product over H only (never over the conjugate variable)."""
    if rho_field.field.grid != obs_field.grid:
        raise GridMismatchError("density and observable field grids differ")
    bins = rho_field.bins
    rho_means = bins.means(rho_field.field.values)
    obs_means = bins.means(obs_field.values)
    return float((rho_means * obs_means).sum() * bins.width)


def multi_invariant_density(
    l_values, L_fields: list[PhaseField], policy: MollifierPolicy
) -> ClassicalDensity:
    """Product of mollified constraints prod_i delta(L_i - l_i), renormalized.

    The first field plays the role of the Hamiltonian for the integration
    prescription; with a single H field this reduces to shell_density.

    Raises
    ------
    DegenerateSupportError
        If the constraints have numerically empty intersection (raw binned
        mass below 1e-6), e.g. inconsistent level values.
    """
    levels = [np.atleast_1d(l_values)]
    return _supported(ConstraintSet(L_fields, policy), levels, [1.0])


def mass_within(
    density: ClassicalDensity, field: PhaseField, center: float, halfwidth: float
) -> float:
    """H-binned mass restricted to cells with |field - center| <= halfwidth.

    Restricted and complementary masses add up to h_mass() exactly (masked
    cells contribute zero to the same bin averages)."""
    masked = np.where(
        np.abs(field.values - center) <= halfwidth, density.field.values, 0.0
    )
    return density.bins.mass(masked)


def liouville_residual(density, hfield: PhaseField) -> float:
    """Normalized Poisson bracket |{H, rho}| as a constant-of-motion check.

    Central differences on interior cells; the max of |dH/dq drho/dp -
    dH/dp drho/dq| is normalized by the max of |grad H| |grad rho|.  Exact
    functions of H give 0 up to second-order discretization error; a
    constant density gives 0 exactly.
    """
    field = density.field if isinstance(density, ClassicalDensity) else density
    if field.grid != hfield.grid:
        raise GridMismatchError("density and Hamiltonian field grids differ")
    if field.grid.nq < 3 or field.grid.np < 3:
        raise ValueError("need at least one interior cell")
    h, r = hfield.values, field.values
    dq, dp = field.grid.dq, field.grid.dp

    hq = (h[2:, 1:-1] - h[:-2, 1:-1]) / (2 * dq)
    hp = (h[1:-1, 2:] - h[1:-1, :-2]) / (2 * dp)
    rq = (r[2:, 1:-1] - r[:-2, 1:-1]) / (2 * dq)
    rp = (r[1:-1, 2:] - r[1:-1, :-2]) / (2 * dp)

    bracket = np.abs(hq * rp - hp * rq)
    scale = np.hypot(hq, hp) * np.hypot(rq, rp)
    denom = float(scale.max())
    if denom == 0.0:
        return 0.0
    return float(bracket.max()) / denom


def write_phase_field(field: PhaseField, path) -> None:
    """Dense binary dump: a 48-byte header (magic WPF2, nq and np as
    uint32, 4 pad bytes, then q_min, q_max, p_min, p_max as float64), then
    the row-major samples, all little-endian."""
    grid = field.grid
    header = _WPF_HEADERS[b"WPF2"].pack(b"WPF2", grid.nq, grid.np, *grid.q_range, *grid.p_range)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(field.values, dtype="<f8").tobytes())


def read_phase_field(path) -> PhaseField:
    """The field of a WPF2 file, or of a WPF1 file (float32 ranges)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = _WPF_HEADERS.get(raw[:4])
    if header is None or len(raw) < header.size:
        raise ValueError(f"{path}: not a phase-field file ({len(raw)} bytes, magic {raw[:4]!r})")
    _, nq, np_, q0, q1, p0, p1 = header.unpack_from(raw)
    data = np.frombuffer(raw, dtype="<f8", offset=header.size).reshape(nq, np_)
    return PhaseField(PhaseGrid((q0, q1), (p0, p1), nq, np_), data)
