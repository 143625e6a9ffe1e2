"""Flat Robertson-Walker minisuperspace model, end to end.

The Hamiltonian constraint at leading semiclassical order reduces the
geometry to a Hamilton-Jacobi problem: the scale factor follows
da/deta = +/- sqrt(2 V(a)) in conformal time, with the Jacobi function
accumulating dS/deta = 2 V(a).  Once a leaves the potential's support the
geometry freezes and the conformally coupled scalar field becomes a bank
of oscillators with constant frequencies Omega^2 = m^2 a_out^2 + k^2.

A truncated occupation basis of those oscillators carries the quantum
state.  Dephasing between energy shells leaves a block-diagonal
equilibrium state; per-shell diagonalization gives the pointer spectrum;
mollified phase-space densities built from the pointer probabilities
resolve into an ensemble of weighted linear trajectories.
"""
from __future__ import annotations

# nothing here runs a pool; perfbench/spans.py patches this name when it traces
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import _frozen
from .pointer import PointerBasis, ShellState, pointer_state
from .wigner import (
    DEGENERATE_MASS_TOL,
    ClassicalDensity,
    ConstraintSet,
    MollifierPolicy,
    PhaseField,
    coordinate_field,
)

DEFAULT_EPS_SHELL = 1e-9
IMAG_TOL = 1e-10
CROSS_BLOCK_TOL = 1e-10
# smallest eigenvalue an explicit state may have: the trace's rounding slack
POSITIVITY_TOL = 1e-10
# relative slack of the Fock-enumeration prune: far above the rounding gap
# (about 2 M ulps) between a running sum of M terms and np.dot of them
_PRUNE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# geometry: potential and scale-factor solution


@dataclass(frozen=True)
class Potential:
    """Nonnegative potential with bounded support [0, a1].

    Families: "constant" (V = lam on the support), "quadratic-cap"
    (V = lam (1 - (a/a1)^2) on the support), "table" (linear interpolation
    of samples).  V vanishes for a > a1.
    """

    family: str
    a1: float
    lam: float = 0.0
    table_a: np.ndarray | None = None
    table_v: np.ndarray | None = None

    def __post_init__(self):
        if self.a1 <= 0:
            raise ValueError(f"support bound a1 must be positive, got {self.a1}")
        if self.family in ("constant", "quadratic-cap"):
            if self.lam < 0:
                raise ValueError(
                    f"energy density must be nonnegative, got {self.lam}"
                )
        elif self.family == "table":
            ta, tv = _frozen(self.table_a, float), _frozen(self.table_v, float)
            if ta.ndim != 1 or ta.shape != tv.shape or ta.size < 2:
                raise ValueError("table potential needs matching 1-d a and V samples")
            if not np.all(np.diff(ta) > 0):
                raise ValueError("table potential abscissae must be increasing")
            if np.any(tv < 0):
                raise ValueError("table potential has negative values")
            # a zero of V inside (0, a1) is a point the path may rest at or
            # leave: the scale factor is not unique there.  Below a[0] the
            # table extends V[0], so V[0] = 0 with a[0] > 0 is one too.
            inside = (ta > 0) & (ta < self.a1)
            inside[0] = ta[0] > 0
            zeros = np.flatnonzero(inside & (tv == 0))
            if zeros.size:
                i = zeros[0]
                raise ValueError(
                    f"table potential vanishes at sample {i} (a = {float(ta[i])}) "
                    f"inside (0, a1 = {self.a1}), where the scale factor is not unique"
                )
            object.__setattr__(self, "table_a", ta)
            object.__setattr__(self, "table_v", tv)
        else:
            raise ValueError(f"unknown potential family {self.family!r}")

    def value(self, a):
        """V(a); zero beyond the support bound."""
        a = np.asarray(a, dtype=float)
        if self.family == "constant":
            v = np.full_like(a, self.lam)
        elif self.family == "quadratic-cap":
            v = self.lam * (1.0 - (a / self.a1) ** 2)
        else:
            v = np.interp(a, self.table_a, self.table_v)
        v = np.where(a > self.a1, 0.0, v)
        if np.any(v < 0):
            raise ValueError("potential evaluated negative inside support")
        return v if v.ndim else float(v)


def constant_potential(lam: float, a1: float) -> Potential:
    return Potential("constant", a1=a1, lam=lam)


def quadratic_cap_potential(lam: float, a1: float) -> Potential:
    return Potential("quadratic-cap", a1=a1, lam=lam)


def table_potential(a_samples, v_samples, a1: float | None = None) -> Potential:
    a_samples = np.asarray(a_samples, dtype=float)
    bound = float(a_samples[-1]) if a1 is None else float(a1)
    return Potential("table", a1=bound, table_a=a_samples, table_v=v_samples)


@dataclass(frozen=True)
class ScaleFactorSolution:
    """Sampled a(eta) and Jacobi function S(eta) along one branch.

    The Jacobi function carries the same sign as the motion, so it grows
    monotonically along the path: dS/deta = 2 V(a).  After the scale factor
    reaches the edge of the potential's support it is held exactly constant
    and ``freeze_eta`` records when.
    """

    branch: int
    a0: float
    eta_samples: np.ndarray
    a_samples: np.ndarray
    s_samples: np.ndarray
    freeze_eta: float | None

    def __post_init__(self):
        for name in ("eta_samples", "a_samples", "s_samples"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float))


def solve_scale_factor(
    potential: Potential, a0: float, branch: int, eta_max: float, n_samples: int = 513
) -> ScaleFactorSolution:
    """Solve da/deta = branch * sqrt(2 V(a)), dS/deta = 2 V(a) in closed form.
    From the exact crossing time ``freeze_eta`` (None past eta_max) a is held at
    the boundary it reaches, a1 or 0.  A start at rest, V(a0) = 0, stays there."""
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if not 0.0 <= a0 <= potential.a1:
        raise ValueError(f"a0 must lie in [0, a1] = [0, {potential.a1}], got {a0}")
    if eta_max <= 0:
        raise ValueError(f"eta_max must be positive, got {eta_max}")
    etas = np.linspace(0.0, eta_max, n_samples)
    boundary = potential.a1 if branch == 1 else 0.0
    if a0 == boundary or potential.value(a0) == 0.0:
        rest = np.full_like(etas, a0), np.zeros_like(etas), 0.0 if a0 == boundary else None
        return ScaleFactorSolution(branch, a0, etas, *rest)
    path = _cap_path if potential.family == "quadratic-cap" else _linear_path
    freeze_eta, along = path(potential, a0, branch)
    a_out, s_out = along(np.minimum(etas, freeze_eta))
    a_out[etas >= freeze_eta] = boundary
    frozen = float(freeze_eta) if freeze_eta <= eta_max else None
    return ScaleFactorSolution(branch, a0, etas, a_out, s_out, frozen)


def _linear_path(potential, a0, branch):
    """V linear between knots (a table's samples; the constant family is one
    segment), so u = sqrt(2 V) is linear in eta: from a knot (a_s, u_s, S_s),
    a = a_s + branch t (u_s + u) / 2 and S = S_s + t (u_s^2 + u_s u + u^2) / 3."""
    lo, hi = (a0, potential.a1) if branch == 1 else (0.0, a0)
    inner = potential.table_a if potential.family == "table" else np.empty(0)
    a = np.unique(np.r_[lo, inner[(inner > lo) & (inner < hi)], hi])[::branch]
    v = potential.value(a)
    # collinear knots are dropped: a flat table runs the constant family's arithmetic
    slope = np.diff(v) / np.diff(a)
    keep = np.r_[True, slope[1:] != slope[:-1], True]
    a, u = a[keep], np.sqrt(2.0 * v[keep])
    d_eta = 2.0 * np.abs(np.diff(a)) / (u[:-1] + u[1:])
    eta_k = np.r_[0.0, np.cumsum(d_eta)]
    s_k = np.r_[0.0, np.cumsum(d_eta * (u[:-1] ** 2 + u[:-1] * u[1:] + u[1:] ** 2) / 3.0)]

    def along(eta):
        i = np.searchsorted(eta_k[1:-1], eta, side="right")
        t, u_s = eta - eta_k[i], u[i]
        u_t = u_s + (u[i + 1] - u_s) * (t / d_eta[i])
        s = s_k[i] + t * (u_s**2 + u_s * u_t + u_t**2) / 3.0
        return a[i] + branch * t * (u_s + u_t) / 2.0, s

    return eta_k[-1], along


def _cap_path(potential, a0, branch):
    """V = lam (1 - (a/a1)^2): a = a1 sin(theta0 + branch r eta) with
    r = sqrt(2 lam) / a1, frozen at theta = pi/2 (expanding) or 0; with
    delta = r eta, S = (lam / r) (delta + cos(theta + theta0) sin delta)."""
    r = np.sqrt(2.0 * potential.lam) / potential.a1
    theta0 = np.arcsin(a0 / potential.a1)

    def along(eta):
        delta = r * eta
        theta = theta0 + branch * delta
        s = potential.lam / r * (delta + np.cos(theta + theta0) * np.sin(delta))
        return potential.a1 * np.sin(theta), s

    return (np.pi / 2.0 - theta0 if branch == 1 else theta0) / r, along


# ---------------------------------------------------------------------------
# scalar-field sector at the frozen geometry


@dataclass(frozen=True)
class ModeSet:
    """Finite sample of field-mode moduli evaluated at the frozen scale."""

    k_values: np.ndarray
    m: float
    a_out: float

    def __post_init__(self):
        k = _frozen(self.k_values, float)
        object.__setattr__(self, "k_values", k)
        if k.ndim != 1 or k.size == 0:
            raise ValueError("need a nonempty 1-d list of mode moduli")
        if np.any(k <= 0) or np.any(np.diff(k) <= 0):
            raise ValueError("mode moduli must be distinct, positive and sorted")
        if self.m < 0 or self.a_out <= 0:
            raise ValueError("need m >= 0 and a_out > 0")

    def frequencies(self) -> np.ndarray:
        return np.sqrt((self.m * self.a_out) ** 2 + self.k_values**2)


def sqrt_prime_modes(count: int, scale: float = 1.0) -> np.ndarray:
    """k_j = scale * sqrt(p_j) over the first primes; pairwise frequency
    differences are then incommensurate, which keeps the discrete shell
    spectrum from recurring early in dephasing experiments."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        else:
            candidate += 1
            continue
        candidate += 1
    return scale * np.sqrt(np.array(primes, dtype=float))


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number vectors with per-mode occupancy <= n_max and total
    energy <= omega_cut, sorted by (energy, lexicographic occupations).

    Each vector's energy is the exact dot product of its occupations with
    the mode frequencies; the occupation tuple itself serves as the
    residual degeneracy label.  ``truncated_count`` reports how many
    vectors of the occupancy box failed the energy cut.
    """

    mode_set: ModeSet
    occupations: tuple
    energies: np.ndarray
    truncated_count: int = 0

    def __post_init__(self):
        e = _frozen(self.energies, float)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "occupations", tuple(map(tuple, self.occupations)))
        if len(self.occupations) != e.size:
            raise ValueError("occupations and energies must align")

    @property
    def size(self) -> int:
        return self.energies.size

    def shells(self, eps_shell: float = DEFAULT_EPS_SHELL) -> list[tuple[float, slice]]:
        """Cut the sorted spectrum wherever neighbouring energies differ by
        more than eps_shell; returns (shell energy, index slice) pairs whose
        slices tile range(size) in order."""
        e = self.energies
        cuts = [0, *(np.flatnonzero(np.diff(e) > eps_shell) + 1).tolist(), e.size]
        return [(float(e[a]), slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]


def enumerate_fock(
    mode_set: ModeSet, n_max: int, omega_cut: float | None = None
) -> FockBasis:
    """Enumerate the truncated occupation basis.

    ``n_max`` caps the occupancy of each mode; ``omega_cut`` (None for no
    cut) drops vectors whose total energy exceeds it.  The vacuum always
    survives.

    The prune goes one mode at a time, on arrays: every kept prefix is
    extended by 0..n_max quanta of the next mode, and only the extensions
    whose running energy stays within the cut are kept.  Every frequency is
    positive, so a prefix past the cut has no surviving completion; the cost
    scales with the kept vectors, not with the (n_max + 1)^M occupancy box.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if omega_cut is not None and omega_cut < 0:
        raise ValueError(f"omega_cut must be >= 0, got {omega_cut}")
    freqs = mode_set.frequencies()
    cut = np.inf if omega_cut is None else float(omega_cut)
    # The running sum rounds differently from np.dot (by at most a few ulps
    # per mode), so the prune tests against a slightly raised cut and never
    # drops a vector that the exact leaf test below would keep.
    prune_above = cut * (1.0 + _PRUNE_SLACK)
    quanta = np.arange(n_max + 1)
    occ = np.zeros((1, 0), dtype=int)
    running = np.zeros(1)
    for freq in freqs:
        extended = running[:, None] + quanta * freq
        prefix, n = np.nonzero(extended <= prune_above)
        occ = np.column_stack([occ[prefix], n])
        running = extended[prefix, n]
    energies = np.array([np.dot(row, freqs) for row in occ])
    keep = energies <= cut
    occ, energies = occ[keep], energies[keep]
    # energy first, then the occupations left to right
    order = np.lexsort([*occ.T[::-1], energies])
    return FockBasis(
        mode_set=mode_set,
        occupations=tuple(map(tuple, occ[order].tolist())),
        energies=energies[order],
        truncated_count=(n_max + 1) ** freqs.size - energies.size,
    )


# ---------------------------------------------------------------------------
# states over the truncated basis


@dataclass(frozen=True)
class CosmoState:
    """Hermitian, trace-one density matrix over a FockBasis, viewed as
    energy-shell blocks plus cross-shell (interference) blocks."""

    basis: FockBasis
    matrix: np.ndarray
    eps_shell: float = DEFAULT_EPS_SHELL

    def __post_init__(self):
        mat = _frozen(self.matrix, complex)
        object.__setattr__(self, "matrix", mat)
        d = self.basis.size
        if mat.shape != (d, d):
            raise ValueError(
                f"matrix is {mat.shape}, basis has {d} vectors"
            )
        defect = float(np.max(np.abs(mat - mat.conj().T)))
        if defect > 1e-12:
            raise ValueError(f"state matrix hermiticity defect {defect:.3e}")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"state matrix trace {trace!r}, expected 1")
        object.__setattr__(self, "_shells", tuple(self.basis.shells(self.eps_shell)))

    @property
    def shells(self) -> tuple:
        return self._shells

    def shell_energies(self) -> np.ndarray:
        """Per-index energy using each shell's representative value, so that
        intra-shell phase differences vanish identically."""
        e = np.empty(self.basis.size)
        for energy, s in self._shells:
            e[s] = energy
        return e

    def cross_block_magnitude(self) -> float:
        off = np.abs(self.matrix)
        for _, s in self._shells:
            off[s, s] = 0.0
        return float(off.max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def uniform_cosmo_state(basis: FockBasis, eps_shell: float = DEFAULT_EPS_SHELL) -> CosmoState:
    d = basis.size
    return CosmoState(basis, np.eye(d, dtype=complex) / d, eps_shell)


def random_cosmo_state(
    basis: FockBasis,
    rng: np.random.Generator,
    coherence: float = 1.0,
    eps_shell: float = DEFAULT_EPS_SHELL,
) -> CosmoState:
    """Random positive trace-one matrix; ``coherence`` in [0, 1] scales the
    off-diagonal part (convex mix with the diagonal, so positivity holds)."""
    if not 0.0 <= coherence <= 1.0:
        raise ValueError("coherence must lie in [0, 1]")
    d = basis.size
    amp = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = amp @ amp.conj().T
    rho /= np.trace(rho).real
    # c·rho + (1 − c)·diag(diag rho), then the Hermitian part, in place and
    # in the same order of operations, so the bytes are those of the
    # out-of-place expressions
    kept = (1.0 - coherence) * np.diag(rho)
    np.multiply(coherence, rho, out=rho)
    rho.flat[:: d + 1] += kept
    rho += rho.conj().T
    np.multiply(0.5, rho, out=rho)
    return CosmoState(basis, rho, eps_shell)


def cosmo_expectation(state: CosmoState, obs: np.ndarray, t: float) -> float:
    """<O>(t): shell-diagonal blocks contribute constants, cross-shell
    blocks rotate by exp(-i (w - w') t) with the shell energies."""
    obs = np.asarray(obs, dtype=complex)
    d = state.basis.size
    if obs.shape != (d, d):
        raise ValueError(f"observable is {obs.shape}, basis has {d}")
    e = state.shell_energies()
    phases = np.exp(-1j * t * np.subtract.outer(e, e))
    value = complex(np.sum((state.matrix * phases) * obs.T))
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"expectation has |Im| = {abs(value.imag):.3e}; "
            "observable is not Hermitian within tolerance"
        )
    return value.real


def cosmo_weak_limit(state: CosmoState) -> CosmoState:
    """Drop every cross-shell block; shell blocks and the trace are kept
    exactly.  Idempotent."""
    out = np.zeros_like(state.matrix)
    for _, s in state.shells:
        out[s, s] = state.matrix[s, s]
    return CosmoState(state.basis, out, state.eps_shell)


def diagonalize_remaining(state: CosmoState) -> list[PointerBasis]:
    """Pointer bases of every energy shell of an equilibrated state.

    Raises
    ------
    ValueError
        If cross-shell blocks above 1e-10 remain; apply cosmo_weak_limit
        first.
    """
    cross = state.cross_block_magnitude()
    if cross > CROSS_BLOCK_TOL:
        raise ValueError(
            f"cross-shell blocks of magnitude {cross:.3e} remain"
        )
    shells = [
        ShellState(energy, state.basis.occupations[s], state.matrix[s, s])
        for energy, s in state.shells
    ]
    return pointer_state(shells)


# ---------------------------------------------------------------------------
# trajectory ensemble


class TrajectoryEntry(NamedTuple):
    l_values: tuple
    a0: float
    probability: float
    degenerate: bool = False


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Weighted classical trajectories a(eta) = l * eta + a0; probabilities
    are the pointer eigenvalues spread uniformly over the reference points."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        total = sum(e.probability for e in self.entries)
        if any(e.probability < 0 for e in self.entries):
            raise ValueError("trajectory probabilities must be nonnegative")
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"trajectory probabilities sum to {total!r}, expected 1")


def check_l_values(l_values, shell_sizes, n_fields: int) -> None:
    """Refuse l values that are not one list per energy shell, holding one
    sequence of ``n_fields`` values per pointer label of the shell (the
    shape of the config's ``trajectory.l_values``); the message names the
    first shell at fault."""
    n_shells = len(shell_sizes)
    for si, size in enumerate(shell_sizes):
        given = l_values[si] if si < len(l_values) else []
        if len(given) != size:
            fault = "missing components" if len(given) < size else "extra components"
            raise ValueError(
                f"l values {fault}: of the {n_shells} energy shells, shell {si} "
                f"has {size} pointer labels and l values for {len(given)}; "
                f"give one per (shell index, pointer label)"
            )
        for ei, lv in enumerate(given):
            if len(lv) != n_fields:
                raise ValueError(
                    f"component ({si}, {ei}) got {len(lv)} l values for "
                    f"{n_fields} invariant fields"
                )
    if len(l_values) > n_shells:
        raise ValueError(
            f"l values extra components: {len(l_values)} shell lists for "
            f"{n_shells} energy shells; give one list per shell"
        )


def trajectory_ensemble(
    pointer: list[PointerBasis],
    invariant_fields: list[PhaseField],
    policy: MollifierPolicy,
    a0_points,
    l_values=None,
) -> tuple[TrajectoryEnsemble, ClassicalDensity]:
    """Resolve pointer spectra into weighted, mollified trajectory densities.

    Every (shell, pointer label, reference point) triple becomes one
    component with probability eigenvalue / len(a0_points); its density is
    the mollified constraint product over the invariant fields at the
    component's l values times a coordinate factor pinning q = a0.
    Components whose constraints have empty support are flagged degenerate
    and excluded from the summed density (their probability is kept).

    ``l_values`` holds one list per shell, one sequence per pointer label
    and one value per invariant field, as ``trajectory.l_values`` in a
    config; by default a single invariant field takes l = (shell energy,).
    """
    if not invariant_fields:
        raise ValueError("need at least one invariant field")
    a0_points = [float(a) for a in np.atleast_1d(a0_points)]
    if not a0_points:
        raise ValueError("need at least one reference coordinate")
    if l_values is None:
        if len(invariant_fields) != 1:
            raise ValueError(
                "l_values must be supplied when there is more than one "
                "invariant field"
            )
        l_values = [[(pb.omega,)] * pb.size for pb in pointer]
    check_l_values(l_values, [pb.size for pb in pointer], len(invariant_fields))

    total = sum(float(pb.eigenvalues.sum()) for pb in pointer)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(
            f"pointer spectra carry total weight {total!r}; expected a "
            "trace-one equilibrium state"
        )

    # every component shares the fields and the width: check and bin once
    qfield = coordinate_field(invariant_fields[0].grid)
    constraints = ConstraintSet([*invariant_fields, qfield], policy)
    uniform = 1.0 / len(a0_points)
    jobs = [
        (tuple(map(float, lv)), a0, max(eig, 0.0) * uniform)
        for pb, shell in zip(pointer, l_values)
        for eig, lv in zip(pb.eigenvalues.tolist(), shell)
        for a0 in a0_points
    ]
    probabilities = np.array([prob for _, _, prob in jobs])
    totals, masses = constraints.summed([[*lv, a0] for lv, a0, _ in jobs], probabilities)
    degenerate = (probabilities > 0.0) & (masses < DEGENERATE_MASS_TOL)
    entries = [TrajectoryEntry(*job, flag) for job, flag in zip(jobs, degenerate.tolist())]
    return TrajectoryEnsemble(entries), constraints.density(totals)
