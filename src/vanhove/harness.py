"""Experiment runner: wires the modules into pipelines, emits artifacts,
and writes a checksummed run manifest.

Stages run sequentially; artifacts land in the output directory only, and
the manifest (config hash, tool version, per-artifact sha256, wall time
per stage) is written last.  Identical (config, seed) pairs reproduce
byte-identical artifacts.
"""
from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import read_csv, write_csv
from .config import RANDOM_GENERATOR, config_hash
from .descriptors import observable_from_descriptors, state_from_descriptors
from .errors import ConfigError, VanHoveError
from .evolution import (
    decay_profile,
    decoherence_time,
    fit_gaussian_envelope,
    recurrence_time,
    weak_limit,
)
from .kernels import (
    Observable,
    RegularKernel,
    SingularKernel,
    StateFunctional,
    grid_size_for_spacing,
    make_grid,
    pair,
    validate_state,
)
from .oracles import ORACLE_SIZE_LIMIT, conjugation_expectation_oracle, dense_pair_oracle
from .wigner import (
    MollifierPolicy,
    PhaseGrid,
    classical_expectation,
    classical_state_density,
    coordinate_field,
    harmonic_field,
    kinetic_field,
    momentum_field,
    phase_field_to_csv,
    wigner_singular,
    write_phase_field,
)
from . import cosmology as cosmo


# Fraction of the recurrence time up to which dephasing on a finite grid
# is physical; later samples are aliasing artefacts of the grid.
RECURRENCE_WINDOW = 0.8


class StageError(VanHoveError):
    """A module error, annotated with the pipeline stage it came from."""


@dataclass
class RunResult:
    manifest: dict
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class _Run:
    out_dir: Path
    stages: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        except ValueError as exc:
            # bad experiment setups surface as ValueError subclasses from the
            # modules; annotate them with the stage (stages do not nest) and
            # keep the exit contract
            raise StageError(f"stage '{name}': {exc}") from exc
        finally:
            self.stages.append({"name": name, "seconds": time.perf_counter() - t0})

    def record(self, name: str, write) -> None:
        """Write the artifact ``name`` with ``write(path)`` and checksum it."""
        path = self.out_dir / name
        write(path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.artifacts.append(
            {"path": name, "sha256": digest, "bytes": path.stat().st_size}
        )


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(run: _Run, name: str, payload: dict) -> None:
    run.record(name, lambda path: _dump_json(payload, path))


def _write_csv(run: _Run, name: str, header: list[str], columns) -> None:
    run.record(name, lambda path: write_csv(path, header, columns))


def _grid_from(cfg: dict):
    return make_grid(cfg["omega_max"], cfg["n"], cfg.get("scheme", "uniform"))


def _state_from(grid, cfg: dict) -> StateFunctional:
    return state_from_descriptors(
        grid, cfg["singular"], cfg.get("regular"), cfg.get("normalize", True)
    )


def _observable_from(grid, cfg: dict) -> Observable:
    return observable_from_descriptors(
        grid, cfg.get("singular"), cfg.get("regular"), cfg.get("self_adjoint", True)
    )


def _times_from(cfg: dict) -> np.ndarray:
    return np.linspace(cfg["start"], cfg["stop"], cfg["count"])


def _phase_grid_from(cfg: dict) -> PhaseGrid:
    return PhaseGrid(tuple(cfg["q_range"]), tuple(cfg["p_range"]), cfg["nq"], cfg["np"])


_PHASE_FUNCTIONS = {
    "harmonic": harmonic_field,
    "kinetic": kinetic_field,
    "momentum": momentum_field,
    "coordinate": coordinate_field,
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _require_seed(seed: int | None) -> int:
    if seed is None:
        raise ConfigError(
            "this experiment draws random inputs; provide 'seed' in the config "
            "or pass --seed"
        )
    return int(seed)


def run_experiment(
    config: dict, out_dir, threads: int = 1, seed: int | None = None
) -> RunResult:
    """Execute one experiment config; returns the manifest and any failed
    declared checks.  The output directory is the only write target."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = _Run(out_dir=out_dir)
    kind = config["kind"]
    seed = config.get("seed") if seed is None else seed

    runner = {
        "evolve": _run_evolve,
        "weak-limit": _run_weak_limit,
        "wigner": _run_wigner,
        "cosmo": _run_cosmo,
        "validate": _run_validate,
        "oracle": _run_oracle,
    }[kind]
    runner(config, run, threads, seed)

    manifest = {
        "kind": kind,
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "seed": seed,
        "random_generator": RANDOM_GENERATOR if seed is not None else None,
        "threads": threads,
        "stages": run.stages,
        "artifacts": sorted(run.artifacts, key=lambda a: a["path"]),
    }
    _dump_json(manifest, out_dir / "manifest.json")
    return RunResult(manifest=manifest, failures=run.failures)


def compare_oracle(config: dict, out_dir, seed: int | None = None) -> dict:
    """Run an 'oracle' config and return its deviation report."""
    if config.get("kind") != "oracle":
        raise ConfigError("compare_oracle needs a config of kind 'oracle'")
    run_experiment(config, out_dir, seed=seed)
    with open(Path(out_dir) / "oracle.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# kind runners


def _build_dephasing(config):
    """Grid, times, state and observable of an evolve or weak-limit run;
    times outside the recurrence window are refused before the kernels
    are built."""
    grid = _grid_from(config["grid"])
    times = _times_from(config["times"])
    t_max = float(np.max(np.abs(times)))
    limit = RECURRENCE_WINDOW * recurrence_time(grid)
    if t_max > limit:
        needed = grid_size_for_spacing(
            config["grid"]["omega_max"],
            2.0 * np.pi * RECURRENCE_WINDOW / t_max,
            config["grid"].get("scheme", "uniform"),
        )
        raise ConfigError(
            f"times reach t = {t_max:g}, past {RECURRENCE_WINDOW} * recurrence_time "
            f"= {limit:.6g} of the n={grid.size} grid, where dephasing is grid "
            f"aliasing; use grid n >= {needed}"
        )
    state = _state_from(grid, config["state"])
    obs = _observable_from(grid, config["observable"])
    return grid, state, obs, times


def _run_evolve(config, run: _Run, threads: int, seed) -> None:
    with run.stage("build"):
        grid, state, obs, times = _build_dephasing(config)
    with run.stage("decay-profile"):
        profile = decay_profile(state, obs, times)
        run.record("decay.csv", profile.to_csv)
    with run.stage("summary"):
        summary = {
            "diag_value": float(profile.diag_value),
            "offdiag_initial": float(profile.offdiag_abs[0]),
            "offdiag_final": float(profile.offdiag_abs[-1]),
            "recurrence_time": float(recurrence_time(grid)),
            "state_validation": validate_state(state).as_dict(),
            "noise_floor": profile.noise_floor,
            "envelope_samples": int(np.count_nonzero(profile.envelope_mask())),
        }
        if "threshold" in config:
            t_d = decoherence_time(profile, config["threshold"])
            summary["decoherence_time"] = None if t_d is None else float(t_d)
        try:
            fit_rate, fit_intercept = fit_gaussian_envelope(profile)
            summary["envelope_rate"] = fit_rate
            summary["envelope_intercept"] = fit_intercept
        except ValueError:
            summary["envelope_rate"] = None
        if "expected_rate" in config:
            expected = config["expected_rate"]
            rtol = config.get("rate_rtol", 0.05)
            rate = summary.get("envelope_rate")
            deviation = None if rate is None else abs(rate - expected) / expected
            summary["expected_rate"] = expected
            summary["rate_deviation"] = deviation
            if deviation is None or deviation > rtol:
                run.failures.append(
                    f"envelope rate {rate} deviates from expected {expected} "
                    f"by more than {rtol:.3%}"
                )
        _write_json(run, "summary.json", summary)


def _run_weak_limit(config, run: _Run, threads: int, seed) -> None:
    with run.stage("build"):
        grid, state, obs, times = _build_dephasing(config)
    with run.stage("weak-limit"):
        limit = weak_limit(state)
        columns = [grid.points, limit.singular.values.real]
        _write_csv(run, "limit_state.csv", ["omega", "rho"], columns)
    with run.stage("agreement"):
        profile = decay_profile(state, obs, times)
        run.record("agreement.csv", profile.to_csv)
        t_min = config.get("t_min", float(times[0]))
        tolerance = config.get("tolerance", 1e-6)
        window = times >= t_min
        worst = float(profile.offdiag_abs[window].max()) if window.any() else 0.0
        summary = {
            "limit_value": float(profile.diag_value),
            "t_min": float(t_min),
            "tolerance": tolerance,
            "max_deviation": worst,
            "recurrence_time": float(recurrence_time(grid)),
        }
        _write_json(run, "summary.json", summary)
        if worst > tolerance:
            run.failures.append(
                f"|<O>(t) - (rho*|O)| reaches {worst:.3e} > {tolerance:.3e} "
                f"for t >= {t_min}"
            )


def _run_wigner(config, run: _Run, threads: int, seed) -> None:
    with run.stage("build"):
        grid = _grid_from(config["grid"])
        state = _state_from(grid, config["state"])
        pgrid = _phase_grid_from(config["phase_grid"])
        hfield = _PHASE_FUNCTIONS[config["hamiltonian"]["type"]](pgrid)
        policy = (
            MollifierPolicy(config["epsilon"])
            if "epsilon" in config
            else MollifierPolicy.default_for(hfield)
        )
    with run.stage("state-density"):
        density = classical_state_density(state.singular, hfield, policy)
        run.record("density.wpf", lambda p: write_phase_field(density.field, p))
        run.record("density.csv", lambda p: phase_field_to_csv(density.field, p))
    with run.stage("summary"):
        summary = {
            "epsilon": float(policy.epsilon),
            "h_mass": float(density.h_mass()),
            "edge_fraction": float(density.edge_fraction()),
        }
        if "observable" in config:
            obs = _observable_from(grid, config["observable"])
            ofield = wigner_singular(obs.singular, hfield)
            classical = classical_expectation(density, ofield)
            quantum = pair(weak_limit(state), obs).real
            summary["classical_expectation"] = float(classical)
            summary["quantum_expectation"] = float(quantum)
            summary["difference"] = abs(float(classical) - float(quantum))
            if "tolerance" in config and summary["difference"] > config["tolerance"]:
                run.failures.append(
                    f"classical and spectral expectations differ by "
                    f"{summary['difference']:.3e} > {config['tolerance']:.3e}"
                )
        _write_json(run, "summary.json", summary)


def _load_potential(cfg: dict) -> cosmo.Potential:
    family = cfg["family"]
    if family == "constant":
        return cosmo.constant_potential(cfg.get("lambda", 0.0), cfg["a1"])
    if family == "quadratic-cap":
        return cosmo.quadratic_cap_potential(cfg.get("lambda", 0.0), cfg["a1"])
    path = cfg.get("path")
    if path is None:
        raise ConfigError("table potential needs a 'path'")
    rows = read_csv(Path(path), ["a", "V"])
    return cosmo.table_potential([r[0] for r in rows], [r[1] for r in rows], cfg["a1"])


def _mode_set_from(cfg: dict) -> cosmo.ModeSet:
    if "k_values" in cfg:
        if "generator" in cfg or "count" in cfg:
            raise ConfigError("give either 'k_values' or a generator, not both")
        k = np.asarray(cfg["k_values"], dtype=float)
    elif cfg.get("generator") == "sqrt-primes":
        if "count" not in cfg:
            raise ConfigError("mode generator needs 'count'")
        k = cosmo.sqrt_prime_modes(cfg["count"], cfg.get("scale", 1.0))
    else:
        raise ConfigError("modes need 'k_values' or generator 'sqrt-primes'")
    return cosmo.ModeSet(k, cfg["m"], cfg["a_out"])


def _cosmo_state_from(cfg: dict, basis, eps_shell: float, rng) -> cosmo.CosmoState:
    kind = cfg["type"]
    if kind == "uniform":
        return cosmo.uniform_cosmo_state(basis, eps_shell)
    if kind == "random":
        return cosmo.random_cosmo_state(basis, rng, cfg.get("coherence", 1.0), eps_shell)
    re = np.asarray(cfg["re"], dtype=float)
    im = np.asarray(cfg.get("im", np.zeros_like(re)), dtype=float)
    return cosmo.CosmoState(basis, re + 1j * im, eps_shell)


def _run_cosmo(config, run: _Run, threads: int, seed) -> None:
    # the model is checked and built before the first artifact is written,
    # so a config refused for it leaves the output directory empty
    with run.stage("inputs"):
        potential = _load_potential(config["potential"])
        mode_set = _mode_set_from(config["modes"])
        if mode_set.a_out <= potential.a1:
            raise ConfigError(
                f"a_out={mode_set.a_out} must exceed the potential support "
                f"a1={potential.a1}"
            )
        random_state = config["state"]["type"] == "random"
        rng = _rng(_require_seed(seed)) if random_state else None
    with run.stage("fock-basis"):
        basis = cosmo.enumerate_fock(mode_set, config["n_max"], config.get("omega_cut"))
        eps_shell = config.get("eps_shell", cosmo.DEFAULT_EPS_SHELL)
        state = _cosmo_state_from(config["state"], basis, eps_shell, rng)
    with run.stage("scale-factor"):
        solution = cosmo.solve_scale_factor(
            potential,
            config["a0"],
            config["branch"],
            config["eta_max"],
            config.get("tol", 1e-10),
            config.get("samples", 513),
        )
        run.record("scale_factor.csv", solution.to_csv)
    with run.stage("equilibrate"):
        equilibrium = cosmo.cosmo_weak_limit(state)
        pointers = cosmo.diagonalize_remaining(equilibrium)
        header = ["omega", "label", "eigenvalue"]
        omega = [pb.omega for pb in pointers for _ in range(pb.size)]
        label = [i for pb in pointers for i in range(pb.size)]
        value = [v for pb in pointers for v in pb.eigenvalues]
        _write_csv(run, "spectrum.csv", header, [omega, label, value])

    if "trajectory" in config:
        with run.stage("trajectories"):
            tcfg = config["trajectory"]
            pgrid = _phase_grid_from(tcfg["phase_grid"])
            fields = [_PHASE_FUNCTIONS[f["type"]](pgrid) for f in tcfg["invariants"]]
            policy = MollifierPolicy(tcfg["epsilon"])
            label_values = tcfg.get("l_values")
            if label_values is not None:
                label_values = {
                    (si, ei): vec
                    for si, shell in enumerate(label_values)
                    for ei, vec in enumerate(shell)
                }
            ensemble, density = cosmo.trajectory_ensemble(
                pointers,
                fields,
                policy,
                tcfg["a0_points"],
                label_values=label_values,
                threads=threads,
            )
            run.record("ensemble.csv", ensemble.to_csv)
            run.record("density.wpf", lambda p: write_phase_field(density.field, p))
            run.record("density.csv", lambda p: phase_field_to_csv(density.field, p))

    with run.stage("summary"):
        adiabaticity = float(cosmo.adiabaticity_ratio(mode_set, potential))
        summary = {
            "freeze_eta": solution.freeze_eta,
            "adiabaticity": adiabaticity,
            "adiabatic": bool(adiabaticity < cosmo.ADIABATICITY_BOUND),
            "basis_size": basis.size,
            "truncated_count": basis.truncated_count,
            "shell_count": len(state.shells),
            "min_eigenvalue": float(state.min_eigenvalue()),
            "cross_block_magnitude": float(state.cross_block_magnitude()),
        }
        if "trajectory" in config:
            degenerate = [i for i, e in enumerate(ensemble.entries) if e.degenerate]
            summary["components"] = len(ensemble.entries)
            summary["degenerate_components"] = degenerate
            summary["density_h_mass"] = float(density.h_mass())
            summary["density_edge_fraction"] = float(density.edge_fraction())
        _write_json(run, "summary.json", summary)


def _run_validate(config, run: _Run, threads: int, seed) -> None:
    with run.stage("validate"):
        grid = _grid_from(config["grid"])
        state = _state_from(grid, config["state"])
        report = validate_state(state)
        _write_json(run, "validation.json", report.as_dict())
        for violation in report.violations:
            run.failures.append(
                f"invariant '{violation.invariant}' violated: residual "
                f"{violation.residual:.6e} > {violation.tolerance:.1e}"
            )


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


def _run_oracle(config, run: _Run, threads: int, seed) -> None:
    target = config["target"]
    trials = config.get("trials", 100)
    tolerance = config.get("tolerance", 1e-10)
    rng = _rng(_require_seed(seed))
    max_abs = 0.0
    max_rel = 0.0

    if target == "pair":
        n = config.get("n", 32)
        if n > ORACLE_SIZE_LIMIT:
            raise ConfigError(
                f"oracle refuses pairing instances with n > {ORACLE_SIZE_LIMIT}"
            )
        with run.stage("pair-trials"):
            grid = make_grid(10.0, n)
            for _ in range(trials):
                state = StateFunctional(
                    _random_singular_state(rng, grid),
                    _random_hermitian_kernel(rng, grid),
                )
                obs = Observable(
                    _random_real_singular(rng, grid),
                    _random_hermitian_kernel(rng, grid),
                    self_adjoint=True,
                )
                got = pair(state, obs)
                ref = dense_pair_oracle(state, obs)
                max_abs = max(max_abs, abs(got - ref))
                max_rel = max(max_rel, abs(got - ref) / max(abs(ref), 1e-30))
    elif target == "cosmo-expectation":
        with run.stage("cosmo-trials"):
            mode_set = _mode_set_from(config["modes"])
            basis = cosmo.enumerate_fock(mode_set, config.get("n_max", 2))
            if basis.size > ORACLE_SIZE_LIMIT:
                raise ConfigError(
                    f"oracle refuses bases with dimension > {ORACLE_SIZE_LIMIT}"
                )
            t_max = config.get("t_max", 10.0)
            for _ in range(trials):
                state = cosmo.random_cosmo_state(basis, rng)
                obs = _random_hermitian(rng, basis.size)
                t = float(rng.uniform(0.0, t_max))
                got = cosmo.cosmo_expectation(state, obs, t)
                ref = conjugation_expectation_oracle(
                    state.matrix, state.shell_energies(), obs, t
                )
                max_abs = max(max_abs, abs(got - ref))
                max_rel = max(max_rel, abs(got - ref) / max(abs(ref), 1e-30))
    else:  # pragma: no cover - schema forbids
        raise ConfigError(f"unknown oracle target {target!r}")

    with run.stage("report"):
        max_abs, max_rel = float(max_abs), float(max_rel)
        passed = max_abs <= tolerance
        _write_json(
            run,
            "oracle.json",
            {
                "target": target,
                "trials": trials,
                "tolerance": tolerance,
                "max_abs_deviation": max_abs,
                "max_rel_deviation": max_rel,
                "pass": bool(passed),
            },
        )
        if not passed:
            run.failures.append(
                f"oracle deviation {max_abs:.3e} exceeds tolerance {tolerance:.3e}"
            )


def _random_singular_state(rng, grid):
    rho = rng.uniform(0.1, 1.0, grid.size)
    rho /= np.sum(grid.weights * rho)
    return SingularKernel(grid, rho.astype(complex))


def _random_real_singular(rng, grid):
    return SingularKernel(grid, rng.uniform(-1.0, 1.0, grid.size).astype(complex))


def _random_hermitian_kernel(rng, grid):
    return RegularKernel(grid, _random_hermitian(rng, grid.size))
