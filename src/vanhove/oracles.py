"""Slow reference computations used to cross-check the fast paths.

These deliberately avoid the production code paths: the pairing oracle
contracts kernels with explicit Python loops, the time-evolution oracle
conjugates the density matrix with a dense matrix exponential, and the
scale-factor oracle integrates the Hamilton-Jacobi path with adaptive
DOP853.  Keep them independent; they are the second route of the oracle
checks.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .cosmology import Potential, ScaleFactorSolution

ORACLE_SIZE_LIMIT = 4096


def dense_pair_oracle(state, obs) -> complex:
    """Explicit-loop contraction of both kernel channels."""
    n = state.grid.size
    if n > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"oracle refuses instances above dimension {ORACLE_SIZE_LIMIT}, got {n}"
        )
    w = state.grid.weights
    rho_s, obs_s = state.singular.values, obs.singular.values
    rho_r, obs_r = state.regular.values, obs.regular.values
    total = 0j
    for i in range(n):
        total += w[i] * rho_s[i] * obs_s[i]
    for i in range(n):
        for j in range(n):
            total += w[i] * w[j] * rho_r[i, j] * obs_r[j, i]
    return total


def conjugation_expectation_oracle(
    matrix: np.ndarray, energies: np.ndarray, obs: np.ndarray, t: float
) -> float:
    """Tr(e^{-iHt} rho e^{iHt} O) with H = diag(energies), via a dense
    matrix exponential."""
    d = matrix.shape[0]
    if d > ORACLE_SIZE_LIMIT:
        raise ValueError(
            f"oracle refuses instances above dimension {ORACLE_SIZE_LIMIT}, got {d}"
        )
    h = np.diag(np.asarray(energies, dtype=complex))
    u = expm(-1j * t * h)
    rho_t = u @ matrix @ u.conj().T
    value = complex(np.trace(rho_t @ obs))
    return value.real


def scale_factor_oracle(
    potential: Potential,
    a0: float,
    branch: int,
    eta_max: float,
    tol: float = 1e-10,
    n_samples: int = 513,
) -> ScaleFactorSolution:
    """Integrate da/deta = branch * sqrt(2 V(a)), dS/deta = 2 V(a) with
    DOP853 at relative tolerance ``tol``.

    The right-hand side evaluates the potential clamped to its support, so
    the expanding branch crosses a1 cleanly and is frozen exactly at a1
    from the detected crossing time on.  The contracting branch freezes the
    same way if it reaches a = 0.  Where the crossing is tangential (the
    quadratic cap at a1) the event is located only to about sqrt(tol).
    """
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch}")
    if not 0.0 <= a0 <= potential.a1:
        raise ValueError(f"a0 must lie in [0, a1] = [0, {potential.a1}], got {a0}")
    if tol <= 0 or eta_max <= 0:
        raise ValueError("need tol > 0 and eta_max > 0")

    a1 = potential.a1
    etas = np.linspace(0.0, eta_max, n_samples)
    boundary = a1 if branch == 1 else 0.0

    if a0 == boundary:
        return ScaleFactorSolution(
            branch, a0, etas, np.full_like(etas, boundary),
            np.zeros_like(etas), freeze_eta=0.0,
        )

    def rhs(_eta, y):
        v = potential.value(min(max(y[0], 0.0), a1))
        return (branch * np.sqrt(2.0 * v), 2.0 * v)

    def hit_boundary(_eta, y):
        return y[0] - boundary

    hit_boundary.terminal = True
    hit_boundary.direction = float(branch)

    sol = solve_ivp(
        rhs,
        (0.0, eta_max),
        (a0, 0.0),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        dense_output=True,
        events=hit_boundary,
    )
    if not sol.success:
        raise RuntimeError(f"scale-factor integration failed: {sol.message}")

    freeze_eta = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    a_out = np.empty_like(etas)
    s_out = np.empty_like(etas)
    live = etas <= (freeze_eta if freeze_eta is not None else eta_max)
    if np.any(live):
        a_out[live], s_out[live] = sol.sol(etas[live])
    if freeze_eta is not None:
        a_out[~live] = boundary
        s_out[~live] = float(sol.sol(freeze_eta)[1])
    return ScaleFactorSolution(branch, a0, etas, a_out, s_out, freeze_eta)
