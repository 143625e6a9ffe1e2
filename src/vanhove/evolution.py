"""Unitary evolution, dephasing profiles, and the weak (equilibrium) limit.

Evolution acts only on the regular kernel: every entry picks up the phase
exp(-i (w_i - w_j) t).  For integrable regular kernels the off-diagonal
contribution to any mean value decays (Riemann-Lebesgue), leaving the
purely singular weak-limit state.  On a finite grid the decay is only
valid below the recurrence time 2*pi / min spacing; callers should window
their assertions accordingly.

Evolution only adds t to the regular kernel's elapsed time; its factors
are kept.  A decay profile over T time samples on an n-point grid costs
O(n T rank_rho rank_O) for descriptor-built (low-rank) kernels and
O(n^2 T) when either kernel is a dense table, done as matrix products over
blocks of the time axis with O(block * n) phase workspace.  The state and
self-adjointness checks around it (hermiticity) cost O(n^2 rank) time in
O(n * block) memory, and so limit n for self-adjoint observables.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._csv import write_csv
from .errors import GridMismatchError
from .kernels import BLOCK_ELEMENTS, Observable, StateFunctional, _frozen, pair, zero_regular

IMAG_TOL = 1e-10
# Time samples per matrix product in decay_profile: large enough for BLAS
# efficiency; above n = 4096 fewer, so the phase block stays O(n).
_TIME_BLOCK = 256
# Envelope fits drop samples below this fraction of the largest one, and
# below NOISE_MARGIN times the profile's rounding-error bound.
ENVELOPE_FLOOR_REL = 1e-12
NOISE_MARGIN = 10.0


def evolve(state: StateFunctional, t: float) -> StateFunctional:
    """Advance the state by time t (hbar = 1).

    The singular part is returned bit-for-bit unchanged; the regular part,
    whose entries pick up exp(-i (w_i - w_j) t), keeps its factors and adds
    t to its elapsed time.  Phases are formed from the total time wherever
    entries are, so there is no accumulated drift for long times.
    """
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    reg = state.regular
    return StateFunctional(state.singular, replace(reg, elapsed=reg.elapsed + t))


def weak_limit(state: StateFunctional) -> StateFunctional:
    """Equilibrium functional: singular part kept, regular part dropped.

    For every observable, pairing against the result equals the
    t -> infinity limit of the evolving mean value.
    """
    return StateFunctional(state.singular, zero_regular(state.grid))


def expectation(state: StateFunctional, obs: Observable, t: float) -> float:
    """Mean value of ``obs`` at time ``t``; equals pair(evolve(state, t), obs).

    Returns the real part.  When the observable is flagged self-adjoint the
    imaginary part must be below 1e-10, otherwise the inputs are treated as
    non-physical and the check is skipped.
    """
    value = pair(evolve(state, t), obs)
    if obs.self_adjoint and abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"expectation of a self-adjoint observable has |Im| = {abs(value.imag):.3e}"
        )
    return value.real


@dataclass(frozen=True)
class DecayProfile:
    """Split of the evolving mean value into its constant diagonal term and
    the magnitude of the oscillatory off-diagonal term, per time sample.

    ``noise_floor`` bounds the rounding error of each ``offdiag_abs``
    sample a priori (0 when unknown).
    """

    times: np.ndarray
    offdiag_abs: np.ndarray
    diag_value: float
    expectations: np.ndarray
    noise_floor: float = 0.0

    def __post_init__(self):
        for name in ("times", "offdiag_abs", "expectations"):
            object.__setattr__(self, name, _frozen(getattr(self, name), float))

    def envelope_mask(self) -> np.ndarray:
        """Samples above ENVELOPE_FLOOR_REL * max and above NOISE_MARGIN *
        noise_floor: the ones an envelope fit may use."""
        off = self.offdiag_abs
        return off > max(ENVELOPE_FLOOR_REL * off.max(), NOISE_MARGIN * self.noise_floor)

    def to_csv(self, path) -> None:
        """Write columns t, offdiag_abs, expectation (17 significant digits)."""
        columns = [self.times, self.offdiag_abs, self.expectations]
        write_csv(path, ["t", "offdiag_abs", "expectation"], columns)


def decay_profile(
    state: StateFunctional, obs: Observable, times
) -> DecayProfile:
    """Off-diagonal decay of <O>(t) over the given time samples.

    Evaluates the same quantity as pair(evolve(state, t), obs) for every t,
    on any grid.  The time-independent contraction
    C_ij = w_i w_j rho_ij O_ji (phases left out) is factored as
    C = P Q^T (``RegularKernel.trace_factors``), so that

        offdiag(t) = sum_k (v(t)^T P)_k (conj(v(t))^T Q)_k,
        v_i(t) = e^{-i w_i (t + tau)},

    where tau is the state's elapsed time less the observable's.  For a
    dense C, Q is the identity and this is v^T C conj(v).  The diagonal
    term sum_i w_i rho_i O_i does not depend on t.  Times are taken in
    blocks: the phases V = exp(-i t omega^T) of a block come directly from
    the times (no recurrence, so no drift), and the block's samples are the
    row sums of (V P) * (conj(V) Q).  Cost O(n T k) flops for k columns of
    P (rank_rho * rank_O, or n when dense); memory O(n k + block * n).
    The profile's ``noise_floor`` is n eps sum_k |P_k|_1 |Q_k|_1, a bound
    on each sample's rounding error.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one time sample")
    if not np.all(np.isfinite(times)):
        raise ValueError("time samples must be finite")
    if state.grid != obs.grid:
        raise GridMismatchError("state and observable live on different grids")

    grid = state.grid
    w = grid.weights
    diag_c = complex(np.sum(w * state.singular.values * obs.singular.values))
    if obs.self_adjoint and abs(diag_c.imag) > IMAG_TOL:
        raise ValueError(
            f"diagonal term of a self-adjoint observable has |Im| = {abs(diag_c.imag):.3e}"
        )
    diag = diag_c.real

    p, q = state.regular.trace_factors(obs.regular)
    p *= w[:, None]
    if q is None:
        p *= w[None, :]
        l1 = np.abs(p).sum()
    else:
        q *= w[:, None]
        l1 = np.abs(p).sum(axis=0) @ np.abs(q).sum(axis=0)
    noise_floor = grid.size * np.finfo(float).eps * float(l1)

    shifted = times + (state.regular.elapsed - obs.regular.elapsed)
    step = min(_TIME_BLOCK, max(1, BLOCK_ELEMENTS // grid.size))
    offdiag = np.empty(times.size, dtype=complex)
    for start in range(0, times.size, step):
        block = shifted[start : start + step]
        phases = np.exp(-1j * np.outer(block, grid.points))
        weighted = phases @ p
        np.conjugate(phases, out=phases)
        right = phases if q is None else phases @ q
        offdiag[start : start + block.size] = np.einsum("tk,tk->t", weighted, right)

    return DecayProfile(
        times=times,
        offdiag_abs=np.abs(offdiag),
        diag_value=diag,
        expectations=diag + offdiag.real,
        noise_floor=noise_floor,
    )


def decoherence_time(profile: DecayProfile, threshold: float) -> float | None:
    """First time after which |offdiag| stays below threshold * |offdiag(0)|.

    Sustained crossing, not first touch: oscillatory envelopes (e.g. from
    lorentzian kernels) ring back above the threshold.  Returns None when
    the initial off-diagonal term vanishes or the level is never held.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    base = profile.offdiag_abs[0]
    if base == 0.0:
        return None
    target = threshold * base
    # suffix maximum: profile stays below target from index k onward
    suffix_max = np.maximum.accumulate(profile.offdiag_abs[::-1])[::-1]
    held = np.nonzero(suffix_max <= target)[0]
    if held.size == 0:
        return None
    return float(profile.times[held[0]])


def recurrence_time(grid) -> float:
    """Quasi-period 2*pi / (min energy spacing) of the discretized spectrum."""
    return 2.0 * np.pi / grid.min_spacing


def fit_gaussian_envelope(profile: DecayProfile) -> tuple[float, float]:
    """Least-squares fit of log offdiag_abs = intercept - rate * t^2.

    Only the samples of ``profile.envelope_mask()`` are used: those below
    ENVELOPE_FLOOR_REL * max or within NOISE_MARGIN of the rounding-error
    bound are dominated by roundoff.  Returns (rate, intercept).
    """
    off = profile.offdiag_abs
    mask = profile.envelope_mask()
    if mask.sum() < 3:
        raise ValueError("not enough samples above the noise floor to fit")
    t2 = profile.times[mask] ** 2
    coeffs = np.polyfit(t2, np.log(off[mask]), 1)
    return -float(coeffs[0]), float(coeffs[1])
