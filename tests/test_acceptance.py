"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion N: PASS|FAIL` line; run with `pytest -s
tests/test_acceptance.py` to see them all.
"""
import time

import numpy as np
import pytest

import vanhove as vh
from vanhove.harness import run_experiment
from vanhove.oracles import conjugation_expectation_oracle, dense_pair_oracle
from vanhove.wigner import harmonic_field, liouville_residual, momentum_field
from ridge import free_flight_ridge

GAUSS = {"type": "gaussian", "mu": 5.0, "sigma": 0.5}
CLOSED_FORM_RATE = 0.125  # sigma^2/2 for matching state/observable widths


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def gaussian_setup():
    grid = vh.make_grid(10.0, 2048)
    state = vh.state_from_descriptors(grid, GAUSS, GAUSS)
    obs = vh.observable_from_descriptors(grid, GAUSS, GAUSS)
    return grid, state, obs


def test_criterion_1_riemann_lebesgue_decay(gaussian_setup):
    grid, state, obs = gaussian_setup
    t0 = time.perf_counter()
    profile = vh.decay_profile(state, obs, 0.0, 30.0, 121)
    rate, _ = vh.fit_gaussian_envelope(profile)
    elapsed = time.perf_counter() - t0

    ratio = profile.offdiag_abs[80] / profile.offdiag_abs[0]  # t = 20
    rate_dev = abs(rate - CLOSED_FORM_RATE) / CLOSED_FORM_RATE
    ok = ratio < 1e-3 and rate_dev < 0.05 and elapsed < 10.0
    report(
        1,
        f"offdiag(20)/offdiag(0) = {ratio:.2e} < 1e-3, envelope rate dev "
        f"{rate_dev:.2e} < 5%, runtime {elapsed:.1f}s < 10s",
        ok,
    )


def test_criterion_2_weak_limit_agreement(gaussian_setup):
    grid, state, obs = gaussian_setup
    t_rec = vh.recurrence_time(grid)
    profile = vh.decay_profile(state, obs, 25.0, 0.8 * t_rec, 40)
    worst = float(profile.offdiag_abs.max())
    report(
        2,
        f"max |<O>(t) - (rho*|O)| = {worst:.2e} < 1e-6 on t in "
        f"[25, {0.8 * t_rec:.0f}]",
        worst < 1e-6,
    )


def test_criterion_3_conservation():
    rng = np.random.default_rng(2026)
    grid = vh.make_grid(10.0, 64)
    ident = vh.observable_from_descriptors(grid, {"type": "uniform"})
    ham = vh.Observable(
        vh.SingularKernel(grid, grid.points), vh.zero_regular(grid), self_adjoint=True
    )
    worst_norm = worst_energy = 0.0
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0, 64)
        rho /= np.sum(grid.weights * rho)
        raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        state = vh.StateFunctional(
            vh.SingularKernel(grid, rho.astype(complex)),
            vh.RegularKernel(grid, 0.2 * (raw + raw.conj().T)),
        )
        energy0 = vh.pair(state, ham).real
        for t in rng.uniform(-50.0, 50.0, 20):
            moved = vh.evolve(state, float(t))
            worst_norm = max(worst_norm, abs(vh.pair(moved, ident).real - 1.0))
            worst_energy = max(worst_energy, abs(vh.pair(moved, ham).real - energy0))
    ok = worst_norm < 1e-12 and worst_energy < 1e-12
    report(
        3,
        f"100 states x 20 times: |(rho(t)|I) - 1| <= {worst_norm:.1e}, "
        f"|<H>(t) - <H>(0)| <= {worst_energy:.1e}, both < 1e-12",
        ok,
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(777)
    worst_pair = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        grid = vh.make_grid(10.0, n)
        rho = rng.uniform(0.05, 1.0, n)
        rho /= np.sum(grid.weights * rho)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        state = vh.StateFunctional(
            vh.SingularKernel(grid, rho.astype(complex)),
            vh.RegularKernel(grid, 0.5 * (raw + raw.conj().T)),
        )
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        obs = vh.Observable(
            vh.SingularKernel(grid, rng.uniform(-1, 1, n).astype(complex)),
            vh.RegularKernel(grid, 0.5 * (raw + raw.conj().T)),
            self_adjoint=True,
        )
        worst_pair = max(worst_pair, abs(vh.pair(state, obs) - dense_pair_oracle(state, obs)))

    basis = vh.enumerate_fock(vh.ModeSet([1.0], m=0.0, a_out=5.0), n_max=11)
    assert basis.size == 12
    worst_cosmo = 0.0
    for _ in range(100):
        state = vh.random_cosmo_state(basis, rng)
        raw = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        obs = 0.5 * (raw + raw.conj().T)
        t = float(rng.uniform(0.0, 20.0))
        got = vh.cosmo_expectation(state, obs, t)
        ref = conjugation_expectation_oracle(state.matrix, state.shell_energies(), obs, t)
        worst_cosmo = max(worst_cosmo, abs(got - ref))

    ok = worst_pair < 1e-10 and worst_cosmo < 1e-10
    report(
        4,
        f"dense-contraction dev {worst_pair:.1e} (n <= 64), conjugation dev "
        f"{worst_cosmo:.1e} (dim 12), both < 1e-10 over 100 trials",
        ok,
    )


def test_criterion_5_pointer_basis():
    rng = np.random.default_rng(31415)
    worst_recon = worst_unitary = 0.0
    worst_eig = np.inf
    for trial in range(100):
        n = int(rng.integers(1, 17))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        positive = trial % 2 == 0
        block = raw @ raw.conj().T if positive else 0.5 * (raw + raw.conj().T)
        if positive:
            block /= np.trace(block).real
        shell = vh.ShellState(float(trial), tuple(range(n)), block)
        basis = vh.diagonalize_shell(shell)
        worst_recon = max(worst_recon, float(np.max(np.abs(basis.reconstruct() - block))))
        worst_unitary = max(worst_unitary, basis.unitarity_defect())
        if positive:
            worst_eig = min(worst_eig, float(basis.eigenvalues.min()))
    ok = worst_recon < 1e-10 and worst_unitary < 1e-10 and worst_eig >= -1e-12
    report(
        5,
        f"100 shells (<= 16x16): reconstruction {worst_recon:.1e} < 1e-10, "
        f"unitarity {worst_unitary:.1e} < 1e-10, positive spectra >= {worst_eig:.1e}",
        ok,
    )


def test_criterion_6_classical_constants_of_motion():
    residuals = []
    for n in (81, 161, 321, 641):
        pgrid = vh.PhaseGrid((-2.0, 2.0), (-2.0, 2.0), n, n)
        hfield = harmonic_field(pgrid)
        rho = vh.PhaseField(pgrid, np.exp(-((hfield.values - 1.0) ** 2) / 0.32))
        residuals.append(liouville_residual(rho, hfield))
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(
        6,
        "liouville residual per grid halving: "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " all within [3.5, 4.5]",
        ok,
    )


def test_criterion_7_quantum_classical_consistency():
    grid = vh.make_grid(3.0, 256)
    state = vh.state_from_descriptors(grid, {"type": "gaussian", "mu": 1.2, "sigma": 0.3})
    pgrid = vh.PhaseGrid((-2.8, 2.8), (-2.8, 2.8), 301, 301)
    hfield = harmonic_field(pgrid)
    policy = vh.MollifierPolicy(0.06)
    density = vh.classical_state_density(state.singular, hfield, policy)

    families = [
        {"type": "gaussian", "mu": 1.0, "sigma": 0.5},
        {"type": "lorentzian", "center": 1.5, "gamma": 0.4},
        {"type": "uniform"},
    ]
    details, ok = [], True
    for desc in families:
        obs = vh.observable_from_descriptors(grid, desc)
        ofield = vh.wigner_singular(obs.singular, hfield)
        classical = vh.classical_expectation(density, ofield)
        quantum = vh.pair(vh.weak_limit(state), obs).real
        lipschitz = float(
            np.max(np.abs(np.diff(obs.singular.values.real) / np.diff(grid.points)))
        )
        bound = 1e-6 + 3.0 * policy.epsilon * lipschitz
        diff = abs(classical - quantum)
        details.append(f"{desc['type']}: {diff:.2e} < {bound:.2e}")
        ok = ok and diff < bound
    report(7, "; ".join(details), ok)


def test_criterion_8_scale_factor():
    lam, a1, a0 = 2.0, 1.0, 0.2
    potential = vh.constant_potential(lam, a1)
    solution = vh.solve_scale_factor(potential, a0, branch=1, eta_max=1.0)
    root = np.sqrt(2.0 * lam)
    linear = np.minimum(a0 + root * solution.eta_samples, a1)
    max_err = float(np.max(np.abs(solution.a_samples - linear)))
    frozen = solution.eta_samples > solution.freeze_eta
    freeze_exact = bool(np.all(solution.a_samples[frozen] == a1))
    ok = max_err < 1e-15 and freeze_exact
    report(
        8,
        f"constant-potential a(eta) max error {max_err:.1e} < 1e-15, "
        f"frozen at a1 exactly: {freeze_exact}",
        ok,
    )


def test_criterion_9_trajectory_emergence():
    shell = vh.ShellState(0.5, (0, 1), [[0.5, 0.2], [0.2, 0.5]])
    pointer = [vh.diagonalize_shell(shell)]  # spectrum {0.7, 0.3}
    pgrid = vh.PhaseGrid((-2.5, 2.5), (-2.5, 2.5), 201, 201)
    pfield = momentum_field(pgrid)
    policy = vh.MollifierPolicy(0.08)
    l_values = [[(1.0,), (-1.0,)]]
    a0 = -0.3
    ensemble, density = vh.trajectory_ensemble(
        pointer, [pfield], policy, [a0], l_values=l_values
    )

    # H-binned masses of the cells within 3 eps of each momentum
    rho, p, eps = density.field.values, pfield.values, policy.epsilon
    mass_plus = density.bins.mass(np.where(np.abs(p - 1.0) <= 3 * eps, rho, 0.0))
    mass_minus = density.bins.mass(np.where(np.abs(p + 1.0) <= 3 * eps, rho, 0.0))
    ratio = mass_plus / mass_minus
    ratio_ok = abs(ratio - 7.0 / 3.0) / (7.0 / 3.0) < 0.05

    etas = np.linspace(0.0, 1.0, 21)
    slopes_ok, r2_ok, details = True, True, []
    for l in l_values[0]:
        _, component = vh.trajectory_ensemble(
            [vh.diagonalize_shell(vh.ShellState(0.5, (0,), [[1.0]]))],
            [pfield],
            policy,
            [a0],
            l_values=[[l]],
        )
        ridge = free_flight_ridge(component, etas)
        slope, intercept = np.polyfit(etas, ridge, 1)
        fitted = slope * etas + intercept
        ss_res = float(np.sum((ridge - fitted) ** 2))
        ss_tot = float(np.sum((ridge - ridge.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot
        slopes_ok = slopes_ok and abs(slope - l[0]) < policy.epsilon
        r2_ok = r2_ok and r_squared > 0.999
        details.append(f"l={l[0]:+.0f}: slope {slope:+.3f}, R^2 {r_squared:.5f}")

    ok = ratio_ok and slopes_ok and r2_ok
    report(
        9,
        f"mass ratio {ratio:.3f} ~ 7/3 within 5%; " + "; ".join(details),
        ok,
    )


def test_criterion_10_reproducibility(tmp_path):
    config = {
        "kind": "cosmo",
        "seed": 12345,
        "potential": {"family": "constant", "lambda": 2.0, "a1": 1.0},
        "a0": 0.2,
        "branch": 1,
        "eta_max": 1.0,
        "modes": {"k_values": [0.5, 0.5000000000001], "m": 0.0, "a_out": 20.0},
        "n_max": 1,
        "state": {"type": "random", "coherence": 0.0},
        "trajectory": {
            "phase_grid": {
                "q_range": [-2.5, 2.5],
                "p_range": [-2.5, 2.5],
                "nq": 121,
                "np": 121,
            },
            "epsilon": 0.12,
            "invariants": [{"type": "momentum"}],
            "a0_points": [0.0],
            "l_values": [[[0.3]], [[1.0], [-1.0]], [[0.6]]],
        },
    }
    first = run_experiment(config, tmp_path / "run1")
    second = run_experiment(config, tmp_path / "run2")
    sums1 = {a["path"]: a["sha256"] for a in first.manifest["artifacts"]}
    sums2 = {a["path"]: a["sha256"] for a in second.manifest["artifacts"]}
    ok = first.ok and second.ok and sums1 == sums2 and len(sums1) >= 5
    report(
        10,
        f"two runs, {len(sums1)} artifacts, identical checksums: {sums1 == sums2}",
        ok,
    )
