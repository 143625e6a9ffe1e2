"""Unitary evolution, dephasing profiles, and the weak (equilibrium) limit.

Evolution acts only on the regular kernel: every entry picks up the phase
exp(-i (w_i - w_j) t).  For integrable regular kernels the off-diagonal
contribution to any mean value decays (Riemann-Lebesgue), leaving the
purely singular weak-limit state.  On a finite grid the decay is only
valid below the recurrence time 2*pi / min spacing; callers should window
their assertions accordingly.

Evolution only adds t to the regular kernel's elapsed time; its factors
are kept.  A decay profile over the T time samples np.linspace(start,
stop, T) on an n-point grid is the contraction behind ``kernels.pair`` at
T times, pair being its T = 1 case.  Its phases are products of about
sqrt(T) fine and sqrt(T) coarse rows of n exponentials, and its sums are
GEMMs: O(n T rank_rho rank_O) multiply-adds for descriptor-built
(low-rank) kernels and O(n^2 T) when either kernel is a dense table.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import Observable, StateFunctional, _contract, _frozen, zero_regular

IMAG_TOL = 1e-10
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


def decay_profile(
    state: StateFunctional, obs: Observable, start: float, stop: float, count: int
) -> DecayProfile:
    """Off-diagonal decay of <O>(t) over the ``count`` time samples
    ``times = np.linspace(start, stop, count)``.

    ``start`` and ``stop`` must be finite with start <= stop, and count
    >= 1 (a single sample is ``start``); otherwise a ValueError is raised
    before any work is done.  Evaluates pair(evolve(state, t), obs) for
    every t, on any grid, by the one contraction behind ``pair``
    (``kernels._contract``) taken over all the times at once, its phases
    split into fine and coarse rows; bit for bit at a single time when
    neither kernel has evolved.  The profile's ``noise_floor`` bounds each
    sample's rounding error, phase angles included.
    """
    start, stop = float(start), float(stop)
    if count < 1:
        raise ValueError(f"need at least one time sample, got count = {count}")
    if not (np.isfinite(start) and np.isfinite(stop) and start <= stop):
        raise ValueError(f"times need finite start <= stop, got start = {start}, stop = {stop}")
    diag, offdiag, noise_floor = _contract(state, obs, start, stop, count)
    if obs.self_adjoint and abs(diag.imag) > IMAG_TOL:
        raise ValueError(
            f"diagonal term of a self-adjoint observable has |Im| = {abs(diag.imag):.3e}"
        )
    return DecayProfile(
        times=np.linspace(start, stop, count),
        offdiag_abs=np.abs(offdiag),
        diag_value=diag.real,
        expectations=diag.real + offdiag.real,
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
