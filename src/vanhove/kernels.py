"""Discretized spectral kernels over a truncated continuous energy spectrum.

A Hamiltonian with continuous spectrum gets a finite energy grid with
quadrature weights.  Observables and states are stored as a pair of
kernels: a singular (diagonal, one energy variable) part and a regular
(two energy variables) part.  The pairing (rho|O) is the weighted trace

    (rho|O) = sum_i w_i rho(w_i) O(w_i)
            + sum_ij w_i w_j rho(w_i, w_j) O(w_j, w_i)

which is the discrete mean value of O in the state rho.  Regular kernels
are held as low-rank factors (see :class:`RegularKernel`), so the regular
trace costs O(n rank_rho rank_O) and a descriptor-built kernel never
forms an n x n array.  All values are immutable after construction;
physicality (positivity, normalization, hermiticity) is never enforced at
construction so that non-physical test kernels remain representable.
Use :func:`validate_state` to check it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

WEIGHT_SUM_RTOL = 1e-12
HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
POSITIVITY_FLOOR = -1e-12
# Kernel amplitude at the spectrum cutoff above which truncation at
# omega_max is considered unsafe for the experiment.
CUTOFF_MASS_TOL = 1e-10
# Entries per row or phase block of work over the grid (16 MB complex), so
# that workspace stays O(n) in n: 256 rows while n <= 4096.
BLOCK_ELEMENTS = 256 * 4096
# Time samples may stray this many ulps of max|t| from an arithmetic
# progression; np.linspace and np.arange samples stay within 4.
TIME_STRAY_ULPS = 8


def _frozen(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EnergyGrid:
    """Strictly increasing energy samples on [points[0], omega_max] with
    positive quadrature weights summing to the interval length."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points, float))
        object.__setattr__(self, "weights", _frozen(self.weights, float))
        p, w = self.points, self.weights
        if p.ndim != 1 or w.shape != p.shape or p.size < 2:
            raise ValueError("grid needs matching 1-d points and weights, n >= 2")
        if not np.all(np.diff(p) > 0):
            raise ValueError("grid points must be strictly increasing")
        if p[0] < 0:
            raise ValueError("grid points must be nonnegative energies")
        if not np.all(w > 0):
            raise ValueError("quadrature weights must be positive")
        span = p[-1] - p[0]
        if abs(w.sum() - span) > WEIGHT_SUM_RTOL * max(span, 1.0):
            raise ValueError(
                f"weights sum to {w.sum()!r}, expected interval length {span!r}"
            )

    @property
    def omega_max(self) -> float:
        return float(self.points[-1])

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def min_spacing(self) -> float:
        return float(np.min(np.diff(self.points)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EnergyGrid):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = None


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [-1, 1], ascending, n points.

    With N = n - 1 and nodes cos(j pi / N), the weights are the DCT-I of
    the Chebyshev moments m_k = int T_k = 2 / (1 - k^2) (k even; 0 odd),
    w_j = (c_j / N) sum_k'' m_k cos(j k pi / N), c_j halved at both ends:
    one real FFT of the moments' even extension (Waldvogel, BIT 46, 2006).
    """
    big_n = n - 1
    moments = np.zeros(n)
    even = np.arange(0, n, 2)
    moments[even] = 2.0 / (1.0 - even**2.0)
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / big_n
    w[0] /= 2.0
    w[-1] /= 2.0
    return -np.cos(np.pi * np.arange(n) / big_n), w


def make_grid(omega_max: float, n: int, scheme: str = "uniform") -> EnergyGrid:
    """Build an energy grid on [0, omega_max].

    Parameters
    ----------
    omega_max : float
        Upper spectrum cutoff, > 0.
    n : int
        Number of grid points, >= 2.
    scheme : {"uniform", "chebyshev"}
        "uniform" uses trapezoid weights; "chebyshev" uses Clenshaw-Curtis
        nodes and weights (faster convergence for smooth kernels).
    """
    if not np.isfinite(omega_max) or omega_max <= 0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    if scheme == "uniform":
        points = np.linspace(0.0, omega_max, n)
        h = omega_max / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    elif scheme == "chebyshev":
        x, w = _clenshaw_curtis(n)
        points = (x + 1.0) * (omega_max / 2.0)
        points[0] = 0.0
        points[-1] = omega_max
        weights = w * (omega_max / 2.0)
    else:
        raise ValueError(f"unknown quadrature scheme {scheme!r}")
    return EnergyGrid(points, weights)


def grid_size_for_spacing(omega_max: float, spacing: float, scheme: str = "uniform") -> int:
    """Smallest n for which make_grid(omega_max, n, scheme) has minimum
    spacing at most ``spacing`` (> 0), from each scheme's closed-form
    smallest gap."""
    if scheme == "uniform":
        # gap omega_max / (n - 1)
        intervals = omega_max / spacing
    elif scheme == "chebyshev":
        # end gap (omega_max / 2)(1 - cos(pi / (n - 1))) = omega_max sin^2(pi / (2 (n - 1)))
        intervals = np.pi / (2.0 * np.arcsin(np.sqrt(min(spacing / omega_max, 1.0))))
    else:
        raise ValueError(f"unknown quadrature scheme {scheme!r}")
    if not np.isfinite(intervals):
        raise ValueError(f"no grid on [0, {omega_max}] has spacing {spacing!r}")
    return int(np.ceil(intervals)) + 1


@dataclass(frozen=True)
class SingularKernel:
    """Diagonal kernel channel: one complex sample f(w_i) per grid point."""

    grid: EnergyGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, complex))
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"singular kernel has {self.values.shape}, grid has {self.grid.size} points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("singular kernel contains non-finite entries")


@dataclass(frozen=True)
class RegularKernel:
    """Smooth two-energy kernel f(w_i, w_j) on grid x grid, held as factors

        f_ij = exp(-i (w_i - w_j) elapsed) * sum_a left[i, a] right[j, a].

    ``right=None`` stands for the identity: ``left`` is then the dense
    n x n matrix (tables, random test kernels).  Descriptor profiles give
    rank-1 factors and the zero kernel has rank 0, so neither holds an
    n x n array.  ``elapsed`` is the time the kernel has evolved for.  Its
    phase is applied only where entries are formed (``values``), never
    folded into the factors: that would round the diagonal, which
    evolution leaves exactly unchanged.
    """

    grid: EnergyGrid
    left: np.ndarray
    right: np.ndarray | None = None
    elapsed: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "left", _frozen(self.left, complex))
        n = self.grid.size
        if self.right is None:
            if self.left.shape != (n, n):
                raise ValueError(
                    f"regular kernel has shape {self.left.shape}, expected {(n, n)}"
                )
        else:
            object.__setattr__(self, "right", _frozen(self.right, complex))
            if self.left.ndim != 2 or self.left.shape[0] != n or self.right.shape != self.left.shape:
                raise ValueError(
                    f"regular kernel factors have shapes {self.left.shape} and "
                    f"{self.right.shape}, expected ({n}, rank) each"
                )
            if not np.all(np.isfinite(self.right)):
                raise ValueError("regular kernel contains non-finite entries")
        if not np.all(np.isfinite(self.left)):
            raise ValueError("regular kernel contains non-finite entries")
        if not np.isfinite(self.elapsed):
            raise ValueError(f"evolution time must be finite, got {self.elapsed}")

    @property
    def rank(self) -> int:
        """Number of factor columns; n for a dense kernel."""
        return self.left.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The n x n entries f_ij, formed on each call (read-only)."""
        out = self._rows(slice(None))
        if self.elapsed:
            p = self.grid.points
            out = out * np.exp(-1j * self.elapsed * np.subtract.outer(p, p))
        out.setflags(write=False)
        return out

    def _rows(self, rows: slice) -> np.ndarray:
        """Entries f_ij without the phase, for i in ``rows``."""
        if self.right is None:
            return self.left[rows]
        return self.left[rows] @ self.right.T

    def _columns(self, cols: slice) -> np.ndarray:
        """Entries f_ij without the phase, for j in ``cols``, as [j, i]."""
        if self.right is None:
            return self.left[:, cols].T
        return self.right[cols] @ self.left.T

    def hermiticity_defect(self) -> float:
        """max_ij |f_ij - conj(f_ji)| of a dense kernel, scanned over row
        blocks in O(n^2) time and O(n * block) memory; for factors
        f = U V^T an upper bound on it, in O(n r^2) time and O(n r) memory.

        Write V = conj(U) D + E with D Hermitian (the least-squares fit, made
        Hermitian).  Then f - f^dagger = G - G^dagger with G = U E^T
        = U (E P)^T + (U - U P^T) E^T for any r x r matrix P, so no entry
        exceeds 2 (max|U_i| max|(E P)_j| + max|(U - U P^T)_i| max|E_j|).
        P, the least-squares projector onto the row space of conj(U), drops
        what U does not see, so that a Hermitian kernel whose U has
        dependent columns still gets a bound at rounding level.  D and P set
        only how tight the bound is.  Evolution leaves either defect unchanged.
        """
        if self.right is None:
            return self._block_max(lambda rows: self._rows(rows) - self._columns(rows).conj())
        u, v, r = self.left, self.right, self.rank
        fit = np.linalg.lstsq(u.conj(), np.concatenate([v, u.conj()], axis=1))[0]
        d, proj = fit[:, :r], fit[:, r:]
        e = v - u.conj() @ ((d + d.conj().T) / 2.0)
        return 2.0 * (
            _max_row_norm(u) * _max_row_norm(e @ proj)
            + _max_row_norm(u - u @ proj.T) * _max_row_norm(e)
        )

    def hermiticity_tolerance(self) -> float:
        """HERMITICITY_TOL * max(1, M), as rounding grows with the entries:
        M >= max_ij |f_ij| is a dense kernel's largest |entry|, or the
        largest row norm of ``left`` times that of ``right``."""
        if self.right is None:
            bound = self._block_max(self._rows)
        else:
            bound = _max_row_norm(self.left) * _max_row_norm(self.right)
        return HERMITICITY_TOL * max(1.0, bound)

    def _block_max(self, block) -> float:
        """max |block(rows)| over row blocks of O(n * block) entries."""
        n = self.grid.size
        step = max(1, BLOCK_ELEMENTS // n)
        return max(float(np.abs(block(slice(s, s + step))).max()) for s in range(0, n, step))


def _max_row_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, axis=1).max())


def zero_singular(grid: EnergyGrid) -> SingularKernel:
    return SingularKernel(grid, np.zeros(grid.size, dtype=complex))


def zero_regular(grid: EnergyGrid) -> RegularKernel:
    """The rank-0 regular kernel."""
    empty = np.zeros((grid.size, 0), dtype=complex)
    return RegularKernel(grid, empty, empty)


@dataclass(frozen=True)
class Observable:
    """Observable |O) = singular (commuting-with-H) part + regular part.

    With ``self_adjoint=True`` the constructor enforces real diagonal
    samples (within 1e-12) and a regular kernel whose ``hermiticity_defect``
    (an upper bound for factors) is within its ``hermiticity_tolerance``.
    """

    singular: SingularKernel
    regular: RegularKernel
    self_adjoint: bool = False

    def __post_init__(self):
        if self.singular.grid != self.regular.grid:
            raise GridMismatchError("observable parts live on different grids")
        if self.self_adjoint:
            im = float(np.max(np.abs(self.singular.values.imag)))
            if im > HERMITICITY_TOL:
                raise ValueError(
                    f"self-adjoint observable has complex diagonal (max |Im| = {im:.3e})"
                )
            defect = self.regular.hermiticity_defect()
            tol = self.regular.hermiticity_tolerance()
            if defect > tol:
                raise ValueError(
                    f"self-adjoint observable has non-Hermitian regular part "
                    f"(defect {defect:.3e}, tolerance {tol:.3e})"
                )

    @property
    def grid(self) -> EnergyGrid:
        return self.singular.grid


@dataclass(frozen=True)
class StateFunctional:
    """State (rho| = diagonal density rho(w) + interference kernel rho(w,w').

    Constructor only checks shapes; see :func:`validate_state` for the
    physicality invariants (positivity, normalization, hermiticity).
    """

    singular: SingularKernel
    regular: RegularKernel

    def __post_init__(self):
        if self.singular.grid != self.regular.grid:
            raise GridMismatchError("state parts live on different grids")

    @property
    def grid(self) -> EnergyGrid:
        return self.singular.grid


def identity_observable(grid: EnergyGrid) -> Observable:
    """The identity: O(w) = 1, no regular part."""
    return Observable(
        SingularKernel(grid, np.ones(grid.size, dtype=complex)),
        zero_regular(grid),
        self_adjoint=True,
    )


def hamiltonian_observable(grid: EnergyGrid) -> Observable:
    """The Hamiltonian in its own eigenbasis: O(w) = w, no regular part."""
    return Observable(
        SingularKernel(grid, grid.points.astype(complex)),
        zero_regular(grid),
        self_adjoint=True,
    )


def _even_step(times: np.ndarray) -> float:
    """The step of the evenly spaced ``times``, t_m = times[0] + m step.

    A sample more than TIME_STRAY_ULPS ulps of max|t| off that progression
    (at most 8 eps max|t|) is refused with ValueError: np.linspace and
    np.arange samples stray by at most 2 eps max|t|.  A subnormal step
    rounds to 2^-1074 absolute, not relative, so T such ulps are allowed
    on top.
    """
    if times.size == 1:
        return 0.0
    step = (times[-1] - times[0]) / (times.size - 1)
    stray = np.abs(times - (times[0] + np.arange(times.size) * step))
    worst = int(np.argmax(stray))
    tol = TIME_STRAY_ULPS * np.spacing(np.abs(times).max()) + times.size * np.spacing(0.0)
    if stray[worst] > tol:
        raise ValueError(
            f"time samples must be evenly spaced: t[{worst}] = {times[worst]!r} lies "
            f"{stray[worst]:.3e} off t[0] + {worst} * {step!r}; build them with "
            f"np.linspace(start, stop, count)"
        )
    return step


def _contract(
    state: StateFunctional, obs: Observable, times: np.ndarray
) -> tuple[complex, np.ndarray, float]:
    """(diag, offdiag, noise_floor) of (rho(t)|O) at the finite, evenly
    spaced ``times`` t_m = t_0 + m step (uneven ones are refused first).

    diag = sum_i w_i rho_i O_i does not depend on t.  The contraction
    C_ij = w_i w_j rho_ij O_ji (phases left out) is factored as C = P Q^T:
    for rho = U V^T and O = X Y^T, P = w (U (.) Y) and Q = w (V (.) X) are
    weighted column-wise Khatri-Rao products of k = rank_rho * rank_O
    columns.  When either kernel is dense, or k reaches n, P is the dense C
    (k = n) and Q = None, the identity.  With tau the state's elapsed time
    less the observable's,

        offdiag(t) = sum_k (v(t)^T P)_k (conj(v(t))^T Q)_k,
        v_i(t) = e^{-i w_i (t + tau)}.

    Each sample index is split as m = c B + b with B about sqrt(T), so
    v(t_m) = F_b (.) G_c with fine phases F_bi = e^{-i w_i b step} and
    coarse phases G_ci = e^{-i w_i (t_0 + tau + c B step)}: (B + C) n
    exponentials for C = ceil(T / B), not T n.  Then (v^T P)_k is
    (F (G_c (.) P))_bk, one GEMM for a block of coarse rows stacked as
    columns; the Q side is conj(F (G_c (.) conj(Q))), the same phases, and
    for Q = None the right factor is conj(F_b (.) G_c) itself.  O(n T k)
    multiply-adds in O(n (B + k)) workspace: F and each block's arrays are
    capped at BLOCK_ELEMENTS (B too, so B <= BLOCK_ELEMENTS / n), and the
    columns of P are taken in blocks when one coarse row would pass it.

    noise_floor bounds each offdiag sample's rounding error to first order
    in u = eps / 2.  Every term of the double sum is perturbed relatively,
    and the terms' magnitudes sum to at most l1 = sum_k |P_k|_1 |Q_k|_1, so
    the bound is l1 times the largest relative perturbation.  With
    M = max|t| + |tau| and w_max the largest grid point:

    - angle: the computed angles of F_b and G_c take seven roundings (tau,
      t_0 + tau, c B step, b step, their sum, the two products by w_i) of
      values whose magnitudes sum to at most 7 M, and an accepted t_m
      strays from t_0 + m step by at most 19 u max|t| (the check's
      16 u max|t| and its three roundings): 26 u w_max M;
    - exp: F and G are each within 2 u of exact (sin and cos to 1 ulp), so
      each phase v_i is within (4 + 26 w_max M) u of exact, and each term
      holds two phases: (8 + 52 w_max M) u;
    - arithmetic: a complex dot product of length n (a real sum of 2n
      products per component) errs by at most 2 sqrt(2) n u of its
      absolute sum.  Add one on each side, the sqrt(5) u of each complex
      product (G (.) P, G (.) Q and left times right) and the n u of the
      sum over k <= n columns: (4 sqrt(2) n + n + 3 sqrt(5)) u.

    In all, rounded up: noise_floor = (4 n + 8 + 26 w_max M) eps l1.
    """
    if state.grid != obs.grid:
        raise GridMismatchError("state and observable live on different grids")
    step = _even_step(times)
    grid, rho, o = state.grid, state.regular, obs.regular
    n, w = grid.size, grid.weights
    diag = complex(np.sum(w * state.singular.values * obs.singular.values))

    if rho.right is None or o.right is None or rho.rank * o.rank >= n:
        p, q = rho._rows(slice(None)) * o._columns(slice(None)), None
        p *= w[:, None]
        p *= w[None, :]
        l1 = np.abs(p).sum()
    else:
        p = (rho.left[:, :, None] * o.right[:, None, :]).reshape(n, -1)
        q = (rho.right[:, :, None] * o.left[:, None, :]).reshape(n, -1)
        p *= w[:, None]
        q *= w[:, None]
        l1 = np.abs(p).sum(axis=0) @ np.abs(q).sum(axis=0)

    def phases(shifts):  # e^{-i w_i s} for each shift s, one row per shift
        out = np.multiply.outer(shifts, -1j * grid.points)
        return np.exp(out, out=out)

    count, k = times.size, p.shape[1]
    tau = rho.elapsed - o.elapsed
    # B^2 = T (1 + k / 8) minimises the (B + C) n exponentials plus the
    # 2 C n k products that scale P and Q by G, an exponential costing
    # about 16 products
    fine = min(count, int(np.ceil(np.sqrt(count * (1 + k / 8)))), max(1, BLOCK_ELEMENTS // n))
    coarse = -(-count // fine)
    width = max(n, fine)
    cols = max(1, min(k, BLOCK_ELEMENTS // width))
    rows = min(coarse, max(1, BLOCK_ELEMENTS // (width * cols)))
    f = phases(np.arange(fine) * step)
    offdiag = np.zeros((coarse, fine), dtype=complex)
    for c0 in range(0, coarse, rows):
        cs = slice(c0, min(c0 + rows, coarse))
        g = phases((times[0] + tau) + np.arange(cs.start, cs.stop) * fine * step)
        for k0 in range(0, k, cols):
            ks = slice(k0, k0 + cols)
            left = f @ (g.T[:, :, None] * p[:, None, ks]).reshape(n, -1)
            if q is None:
                right = np.conjugate(f[:, None, ks] * g[None, :, ks])
            else:
                right = np.conjugate(f @ (g.T[:, :, None] * q[:, None, ks].conj()).reshape(n, -1))
            shape = (fine, len(g), -1)
            offdiag[cs] += np.einsum("bck,bck->cb", left.reshape(shape), right.reshape(shape))
    reach = max(abs(times[0]), abs(times[-1])) + abs(tau)
    floor = (4 * n + 8 + 26 * grid.omega_max * reach) * np.finfo(float).eps * float(l1)
    return diag, offdiag.ravel()[:count], floor


def pair(state: StateFunctional, obs: Observable) -> complex:
    """Mean value (rho|O) as a weighted trace over both kernel channels.

    Pure singular-regular cross terms vanish identically (the two channels
    are orthogonal), so the result is the diagonal quadrature plus the
    double-quadrature trace of the regular kernels: the one contraction
    behind ``decay_profile``, at the single time 0.
    """
    diag, offdiag, _ = _contract(state, obs, np.zeros(1))
    return complex(diag + offdiag[0])


@dataclass(frozen=True)
class Violation:
    invariant: str
    residual: float
    tolerance: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_state`: one entry per violated invariant,
    each checked quantity beside its tolerance (``margins``, violated or
    not), plus the kernel amplitude at the spectrum cutoff (truncation
    diagnostic, never a violation)."""

    violations: tuple[Violation, ...]
    margins: dict[str, float]
    cutoff_amplitude: float

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def cutoff_safe(self) -> bool:
        return self.cutoff_amplitude < CUTOFF_MASS_TOL

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "invariant": v.invariant,
                    "residual": v.residual,
                    "tolerance": v.tolerance,
                }
                for v in self.violations
            ],
            **self.margins,
            "cutoff_amplitude": self.cutoff_amplitude,
            "cutoff_safe": self.cutoff_safe,
        }


def validate_state(state: StateFunctional) -> ValidationReport:
    """Check the state invariants; diagnostic only, never raises.

    Checks: rho(w) real, rho(w) >= 0 (within -1e-12), (rho|I) = 1 within
    1e-10, and hermiticity of the regular kernel within its
    ``hermiticity_tolerance``, 1e-12 for entries up to 1, at the cost of
    ``RegularKernel.hermiticity_defect``; the cutoff amplitude reads only
    the last row and column.
    """
    out: list[Violation] = []
    w = state.grid.weights
    rho_s = state.singular.values

    im = float(np.max(np.abs(rho_s.imag)))
    if im > HERMITICITY_TOL:
        out.append(Violation("singular-real", im, HERMITICITY_TOL))

    neg = float(np.min(rho_s.real))
    if neg < POSITIVITY_FLOOR:
        out.append(Violation("singular-nonnegative", -neg, -POSITIVITY_FLOOR))

    norm_residual = abs(float(np.sum(w * rho_s.real)) - 1.0)
    if norm_residual > NORMALIZATION_TOL:
        out.append(Violation("normalization", norm_residual, NORMALIZATION_TOL))

    defect = state.regular.hermiticity_defect()
    tol = state.regular.hermiticity_tolerance()
    if defect > tol:
        out.append(Violation("hermiticity", defect, tol))

    margins = {
        "singular_imag_max": im,
        "singular_imag_tolerance": HERMITICITY_TOL,
        "singular_min": neg,
        "singular_min_floor": POSITIVITY_FLOOR,
        "normalization_residual": norm_residual,
        "normalization_tolerance": NORMALIZATION_TOL,
        "hermiticity_defect": defect,
        "hermiticity_tolerance": tol,
    }
    last = slice(state.grid.size - 1, None)
    cutoff = max(
        float(np.abs(rho_s[-1])),
        float(np.max(np.abs(state.regular._rows(last)))),
        float(np.max(np.abs(state.regular._columns(last)))),
    )
    return ValidationReport(tuple(out), margins, cutoff)
