"""Ridge of a phase-space density under the free flow, for the tests of
the classical trajectories (a test helper, not part of the vanhove API)."""
import numpy as np


def free_flight_ridge(density, etas) -> np.ndarray:
    """Ridge coordinate of the density transported by the free flow
    q -> q + p * eta, one entry per eta.

    For each eta the position marginal of the transported density is
    accumulated (mass leaving the window is dropped) and its peak located
    with parabolic sub-cell refinement.  A density peaked near (a0, l)
    yields a ridge a(eta) ~ a0 + l * eta.
    """
    grid = density.field.grid
    q, p = grid.q, grid.p
    values = density.field.values
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    out = np.empty(etas.size)
    for k, eta in enumerate(etas):
        marginal = np.zeros(grid.nq)
        for j in range(grid.np):
            col = values[:, j]
            if not col.any():
                continue
            marginal += np.interp(q, q + p[j] * eta, col, left=0.0, right=0.0)
        i = int(np.argmax(marginal))
        out[k] = q[i] + _parabolic_offset(marginal, i) * grid.dq
    return out


def _parabolic_offset(y: np.ndarray, i: int) -> float:
    if i == 0 or i == y.size - 1:
        return 0.0
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return 0.0
    return 0.5 * (y[i - 1] - y[i + 1]) / denom
