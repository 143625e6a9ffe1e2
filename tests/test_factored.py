"""Factored regular kernels against their dense materialisation.

Every operation on a factored kernel k must agree with the same operation
on ``RegularKernel(grid, k.values)``, the dense matrix of its entries: the
factored paths (Khatri-Rao contraction, last-row cutoff, elapsed-time
phases) are checked against the dense ones, and the factored hermiticity
defect, an upper bound, against the dense scan.
Ranks run from 0 to 3 on grids of 2 to 12 points, so rank_rho * rank_O
falls on both sides of n and both branches of the contraction behind
``pair`` and ``decay_profile`` (``kernels._contract``) run.
"""
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vanhove import (
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    decay_profile,
    evolve,
    make_grid,
    observable_from_descriptors,
    pair,
    regular_from_descriptor,
    state_from_descriptors,
    validate_state,
    zero_regular,
)
from vanhove import kernels

TOL = 1e-12


def _complex(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)


@st.composite
def factored_problems(draw, evolved=True):
    """A state and an observable with factored regular kernels of rank 0-3,
    each possibly evolved (only if ``evolved``), on a random grid."""
    n = draw(st.integers(2, 12))
    grid = make_grid(draw(st.floats(0.5, 4.0)), n, draw(st.sampled_from(["uniform", "chebyshev"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def kernel():
        rank = draw(st.integers(0, 3))
        elapsed = draw(st.sampled_from([0.0, float(rng.uniform(-20.0, 20.0))])) if evolved else 0.0
        return RegularKernel(grid, _complex(rng, n, rank), _complex(rng, n, rank), elapsed)

    state = StateFunctional(SingularKernel(grid, _complex(rng, n)), kernel())
    obs = Observable(SingularKernel(grid, _complex(rng, n)), kernel(), self_adjoint=False)
    return state, obs


def _dense(state, obs):
    """The same problem with each regular kernel as its dense entries."""
    d_state = StateFunctional(state.singular, RegularKernel(state.grid, state.regular.values))
    d_obs = Observable(obs.singular, RegularKernel(obs.grid, obs.regular.values), self_adjoint=False)
    return d_state, d_obs


def _scale(state, obs):
    """Bound on the magnitude of any pairing of the two: the tolerance base."""
    w = state.grid.weights
    reg = np.abs(state.regular.values) * np.abs(obs.regular.values).T
    diag = np.abs(state.singular.values * obs.singular.values)
    return max(1.0, float(w @ reg @ w + w @ diag))


@given(problem=factored_problems(), t=st.floats(-50.0, 50.0))
def test_pair_and_evolve_match_dense(problem, t):
    state, obs = problem
    d_state, d_obs = _dense(state, obs)
    scale = _scale(state, obs)
    assert abs(pair(state, obs) - pair(d_state, d_obs)) <= TOL * scale
    assert abs(pair(evolve(state, t), obs) - pair(evolve(d_state, t), d_obs)) <= TOL * scale


# 16^2 - 1, 16^2 and 16^2 + 1 samples: the split m = c B + b (B = 16)
# short of, exactly and one past whole coarse rows
@pytest.mark.parametrize("count", [1, 255, 256, 257])
@given(problem=factored_problems(), reach=st.floats(0.0, 100.0))
def test_decay_profile_matches_dense(count, problem, reach):
    state, obs = problem
    d_state, d_obs = _dense(state, obs)
    times = np.linspace(-reach, reach, count)
    got, ref = decay_profile(state, obs, times), decay_profile(d_state, d_obs, times)
    tol = TOL * _scale(state, obs)
    assert np.max(np.abs(got.offdiag_abs - ref.offdiag_abs)) <= tol
    assert np.max(np.abs(got.expectations - ref.expectations)) <= tol


@given(problem=factored_problems(evolved=False), dense=st.booleans(), t=st.floats(-50.0, 50.0))
def test_pair_is_the_one_time_decay_profile_bit_for_bit(problem, dense, t):
    # one contraction behind both: the same products in the same order
    state, obs = _dense(*problem) if dense else problem
    assert pair(evolve(state, t), obs).real == decay_profile(state, obs, [t]).expectations[0]


def _direct_offdiag(state, obs, times):
    """offdiag(t) = sum_ij w_i w_j rho_ij O_ji e^{-i (w_i - w_j)(t + tau)}
    summed directly over i, j for every t, with the factors' products, the
    angles and the sums in extended precision."""
    ext = np.clongdouble

    def entries(kern):  # f_ij without the phase
        left = kern.left.astype(ext)
        return left if kern.right is None else left @ kern.right.astype(ext).T

    grid = state.grid
    w = grid.weights.astype(np.longdouble)
    c = w[:, None] * w[None, :] * entries(state.regular) * entries(obs.regular).T
    tau = np.longdouble(state.regular.elapsed) - np.longdouble(obs.regular.elapsed)
    shifted = times.astype(np.longdouble) + tau
    v = np.exp(-1j * np.multiply.outer(shifted, grid.points.astype(np.longdouble)))
    return np.einsum("ti,ij,tj->t", v, c, v.conj())


# every split m = c B + b from one sample to B^2 - 1, B^2 and B^2 + 1 for
# B = 2 to 5 and 16: last coarse rows full and partial, whatever B is
SPLIT_COUNTS = (*range(1, 27), 255, 256, 257)


@given(problem=factored_problems(), dense=st.booleans(),
       start=st.floats(-300.0, 300.0), step=st.floats(-2.0, 2.0))
def test_split_decay_matches_direct_sum_within_noise_floor(problem, dense, start, step):
    # negative times and elapsed times of either sign; ranks 0-3 on 2-12
    # points put rank_rho * rank_O on both sides of n, and ``dense`` makes
    # both kernels tables.  Blocks of 24 entries also cap B and split the
    # coarse rows and a table's columns into many blocks
    state, obs = _dense(*problem) if dense else problem
    for block, count in itertools.product((kernels.BLOCK_ELEMENTS, 24), SPLIT_COUNTS):
        times = np.linspace(start, start + step * (count - 1), count)
        with mock.patch.object(kernels, "BLOCK_ELEMENTS", block):
            _, offdiag, noise_floor = kernels._contract(state, obs, times)
        err = np.abs(offdiag - _direct_offdiag(state, obs, times)).astype(float)
        assert np.max(err) <= noise_floor, (count, np.max(err), noise_floor)


def test_uneven_times_refused():
    grid = make_grid(10.0, 32)
    gauss = {"type": "gaussian", "mu": 5.0, "sigma": 0.5}
    state = state_from_descriptors(grid, gauss, gauss)
    obs = observable_from_descriptors(grid, gauss, gauss)
    with pytest.raises(ValueError, match="np.linspace"):
        decay_profile(state, obs, [0.0, 1.0, 3.0])
    times = np.linspace(-7.0, 9.0, 33)
    nudged = times.copy()
    nudged[20] += 16 * np.spacing(9.0)
    with pytest.raises(ValueError, match=r"t\[20\]"):
        decay_profile(state, obs, nudged)
    nudged[20] = times[20] + np.spacing(9.0)  # an ulp: still a progression
    decay_profile(state, obs, nudged)


def _entries_defect(kern):
    """max_ij |f_ij - conj(f_ji)| scanned over the formed entries."""
    v = kern.values
    return float(np.max(np.abs(v - v.conj().T)))


@given(problem=factored_problems())
def test_hermiticity_and_cutoff_match_dense(problem):
    # a table's defect is the scanned max; references straight from the
    # entries, not through validate_state
    state, obs = problem
    for kern in (state.regular, obs.regular):
        assert RegularKernel(kern.grid, kern.values).hermiticity_defect() == _entries_defect(kern)
    v = state.regular.values
    ref = max(abs(state.singular.values[-1]), np.max(np.abs(v[-1])), np.max(np.abs(v[:, -1])))
    tol = TOL * max(1.0, float(np.max(np.abs(v), initial=0.0)))
    assert abs(validate_state(state).cutoff_amplitude - ref) <= tol


@given(problem=factored_problems())
def test_factored_hermiticity_bound_covers_the_scan(problem):
    state, obs = problem
    for kern in (state.regular, obs.regular):
        tol = TOL * max(1.0, float(np.max(np.abs(kern.values), initial=0.0)))
        assert kern.hermiticity_defect() >= _entries_defect(kern) - tol


@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), amp=st.floats(-10.0, 10.0))
def test_factored_hermiticity_bound_is_attained(n, seed, amp):
    # f = i amp u conj(u)^T is anti-Hermitian, so its fitted D is 0, E = V,
    # and the bound 2 max|u| max|amp u| is the defect at the largest |u_i|
    u = _complex(np.random.default_rng(seed), n, 1)
    kern = RegularKernel(make_grid(1.0, n), u, 1j * amp * u.conj())
    ref = _entries_defect(kern)
    assert abs(kern.hermiticity_defect() - ref) <= TOL * max(1.0, ref)


@given(n=st.integers(2, 12), rank=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       blind=st.booleans(), t=st.floats(-50.0, 50.0))
@example(n=2, rank=3, seed=0, blind=False, t=1.0)  # dependent columns: rank above n
def test_hermitian_factors_stay_hermitian_under_evolve(n, rank, seed, blind, t):
    # f = U (conj(U) D)^T with D Hermitian is Hermitian, and stays so when a
    # column of U is zero and the same column of V anything (``blind``): the
    # bound is rounding, and evolution, which keeps the factors, leaves it
    # bit-identical
    rng = np.random.default_rng(seed)
    u, a = _complex(rng, n, rank), _complex(rng, rank, rank)
    blind = blind and rank > 0
    if blind:
        u[:, -1] = 0.0
    v = u.conj() @ (a + a.conj().T)
    if blind:
        v[:, -1] = _complex(rng, n)
    grid = make_grid(1.0, n)
    herm = StateFunctional(SingularKernel(grid, np.ones(n)), RegularKernel(grid, u, v))
    assert _entries_defect(herm.regular) <= TOL
    defect = herm.regular.hermiticity_defect()
    norms = [float(np.linalg.norm(f, axis=1).max(initial=0.0)) for f in (u, v)]
    assert defect <= 256 * rank * np.finfo(float).eps * norms[0] * norms[1]
    assert evolve(herm, t).regular.hermiticity_defect() == defect


@pytest.mark.parametrize("seed", range(5))
def test_factored_hermiticity_bound_sees_a_dropped_column(seed):
    # f = u u^H + d w^T is Hermitian but for d w^T, and d, the difference of
    # U's two columns, is 64 eps z: far below lstsq's eps * n cutoff, so the
    # fit drops it.  Only the bound's (U - U P^T) E term sees that part,
    # which stands above the rounding of the scanned entries
    n, eps = 256, np.finfo(float).eps
    rng = np.random.default_rng(seed)
    u, z, w = (_complex(rng, n) for _ in range(3))
    left = np.stack([u, u + 64 * eps * z], axis=1)
    kern = RegularKernel(make_grid(1.0, n), left, np.stack([u.conj() - w, w], axis=1))
    singular = np.linalg.svd(left, compute_uv=False)
    assert singular[1] < eps * n * singular[0] / 4
    rounding = 8 * eps * np.abs(kern.left).max() * np.abs(kern.right).max()
    assert kern.hermiticity_defect() >= _entries_defect(kern) - rounding


def test_descriptor_kernels_are_low_rank():
    grid = make_grid(10.0, 64)
    assert zero_regular(grid).left.shape == (64, 0)
    for desc in (
        {"type": "gaussian", "mu": 5.0, "sigma": 0.5, "amplitude": 2.0},
        {"type": "lorentzian", "center": 5.0, "gamma": 0.5},
        {"type": "uniform"},
        {"type": "point", "omega": 3.3},
    ):
        assert regular_from_descriptor(grid, desc).rank == 1
    zero_amp = {"type": "gaussian", "mu": 5.0, "sigma": 0.5, "amplitude": 0.0}
    assert regular_from_descriptor(grid, zero_amp).rank == 0


def test_factor_shapes_checked():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError, match="factors"):
        RegularKernel(grid, np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="factors"):
        RegularKernel(grid, np.zeros((3, 1)), np.zeros((3, 1)))
    bad = np.zeros((4, 1))
    bad[2, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        RegularKernel(grid, np.zeros((4, 1)), bad)
    with pytest.raises(ValueError, match="finite"):
        RegularKernel(grid, np.zeros((4, 1)), np.zeros((4, 1)), np.nan)


def test_self_adjoint_checks_at_n_2e5_stay_small():
    # O(n) memory for the hermiticity bound; one n x n complex array at
    # n = 2e5 would take 640 GB
    grid = make_grid(10.0, 200_000)
    gauss = {"type": "gaussian", "mu": 5.0, "sigma": 0.5}
    tracemalloc.start()
    try:
        observable_from_descriptors(grid, gauss, gauss, self_adjoint=True)
        report = validate_state(state_from_descriptors(grid, gauss, gauss))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 48 * 2**20


SCALE_SCRIPT = textwrap.dedent(
    """
    import resource
    import numpy as np
    from vanhove import (
        decay_profile, make_grid, observable_from_descriptors, pair,
        state_from_descriptors, validate_state, weak_limit,
    )

    grid = make_grid(10.0, 100_000)
    gauss = {"type": "gaussian", "mu": 5.0, "sigma": 0.5}
    state = state_from_descriptors(grid, gauss, gauss)
    obs = observable_from_descriptors(grid, gauss, gauss, self_adjoint=True)
    assert validate_state(state).ok
    prof = decay_profile(state, obs, np.linspace(0.0, 30.0, 64))
    off0 = abs(pair(state, obs) - pair(weak_limit(state), obs))
    assert abs(prof.offdiag_abs[0] - off0) <= 1e-12 * off0, (prof.offdiag_abs[0], off0)
    assert prof.offdiag_abs[-1] < 1e-12 * off0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


def test_decay_profile_at_n_1e5_stays_small():
    # with the hermiticity checks; a dense complex kernel at n = 1e5 would
    # take 160 GB
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", SCALE_SCRIPT],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    peak_kb = int(done.stdout.split()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kb < 200 * 1024
