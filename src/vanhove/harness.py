"""Experiment runner: wires the modules into pipelines, emits artifacts,
and writes a checksummed run manifest.

Stages run sequentially and only queue their artifacts.  The final stage,
``write``, makes the output directory, removes an earlier manifest, writes
and checksums each queued artifact (replacing any earlier file), and the
manifest (config hash, tool version, per-artifact sha256, wall time per
stage) is written after it.  So a run refused in any stage before
``write`` leaves the output directory as it found it.  The modules refuse
bad input with plain ``ValueError``; a stage re-raises a ``ConfigError``
as a ``ConfigError`` and any other ``ValueError`` as a ``StageError``,
each message prefixed with the stage's name.  Identical (config, seed)
pairs reproduce byte-identical artifacts.
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
    wigner_singular,
    write_phase_field,
)
from . import cosmology as cosmo


# Fraction of the recurrence time up to which dephasing on a finite grid
# is physical.  A uniform grid's profile is periodic with the recurrence
# time, so past half of it the sample at t equals the one at t minus the
# recurrence time, which lies nearer the origin: the decay shown is the
# alias's.
RECURRENCE_WINDOW = 0.5


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
    queued: list = field(default_factory=list)  # (name, write) per artifact
    artifacts: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        except ConfigError as exc:
            raise ConfigError(f"stage '{name}': {exc}") from exc
        except ValueError as exc:
            # the modules refuse bad experiment setups with ValueError;
            # annotate it with the stage (stages do not nest)
            raise StageError(f"stage '{name}': {exc}") from exc
        finally:
            self.stages.append({"name": name, "seconds": time.perf_counter() - t0})

    def record(self, name: str, write) -> None:
        """Queue the artifact ``name``; ``write(path)`` writes it in stage
        ``write``."""
        self.queued.append((name, write))

    def write(self) -> None:
        """Stage ``write``: make the output directory, remove an earlier
        manifest, then write each queued artifact and checksum it, read back
        1 MiB at a time, so no artifact is held whole.  An earlier file (or
        symlink) at an artifact's path is removed first: a new file is
        cheaper to write than a truncated one, and a link is not followed
        out of the output directory."""
        with self.stage("write"):
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "manifest.json").unlink(missing_ok=True)
            for name, writer in self.queued:
                path = self.out_dir / name
                path.unlink(missing_ok=True)
                writer(path)
                digest = hashlib.sha256()
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
                self.artifacts.append(
                    {"path": name, "sha256": digest.hexdigest(), "bytes": path.stat().st_size}
                )


def _dump_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="")


def _write_json(run: _Run, name: str, payload: dict) -> None:
    run.record(name, lambda path: _dump_json(payload, path))


def _write_csv(run: _Run, name: str, header: list[str], columns) -> None:
    run.record(name, lambda path: write_csv(path, header, columns))


def _write_profile(run: _Run, name: str, profile) -> None:
    columns = [profile.times, profile.offdiag_abs, profile.expectations]
    _write_csv(run, name, ["t", "offdiag_abs", "expectation"], columns)


_PHASE_FUNCTIONS = {
    "harmonic": harmonic_field,
    "kinetic": kinetic_field,
    "momentum": momentum_field,
    "coordinate": coordinate_field,
}


def _rng(seed: int | None) -> np.random.Generator:
    if seed is None:
        raise ConfigError(
            "this experiment draws random inputs; provide 'seed' in the config "
            "or pass --seed"
        )
    return np.random.Generator(np.random.Philox(int(seed)))


def run_experiment(config: dict, out_dir, seed: int | None = None) -> RunResult:
    """Execute one experiment config; returns the manifest and any failed
    declared checks.  The output directory is the only write target, and a
    run refused before stage ``write`` leaves it as it found it."""
    seed = config.get("seed") if seed is None else seed
    if seed is not None and seed < 0:
        raise ConfigError(
            f"seed {seed} is negative; pass --seed or set 'seed' in the config to an integer >= 0"
        )
    out_dir = Path(out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(
            f"--out {out_dir}: {existing} exists and is not a directory; name a directory"
        )
    run = _Run(out_dir=out_dir)
    kind = config["kind"]

    runner = {
        "evolve": _run_evolve,
        "weak-limit": _run_weak_limit,
        "wigner": _run_wigner,
        "cosmo": _run_cosmo,
        "validate": _run_validate,
        "oracle": _run_oracle,
    }[kind]
    runner(config, run, seed)
    run.write()

    manifest = {
        "kind": kind,
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "seed": seed,
        "random_generator": RANDOM_GENERATOR if seed is not None else None,
        "stages": run.stages,
        "artifacts": sorted(run.artifacts, key=lambda a: a["path"]),
    }
    _dump_json(manifest, out_dir / "manifest.json")
    return RunResult(manifest=manifest, failures=run.failures)


# ---------------------------------------------------------------------------
# kind runners


def _last_time(span) -> float:
    """The last of the samples np.linspace(**span): start when it is the
    only one."""
    return float(span["stop"] if span["count"] > 1 else span["start"])


def _build_dephasing(config):
    """Grid, state and observable of an evolve or weak-limit run; reversed
    times and times outside the recurrence window are refused before the
    kernels are built."""
    span = config["times"]
    if span["stop"] < span["start"]:
        raise ConfigError(
            f"field 'times/stop' = {span['stop']:g} is before 'times/start' = "
            f"{span['start']:g}; give the times in increasing order"
        )
    grid = make_grid(**config["grid"])
    t_max = max(abs(float(span["start"])), abs(_last_time(span)))
    limit = RECURRENCE_WINDOW * recurrence_time(grid)
    if t_max > limit:
        # the grid block less n: make_grid's other arguments, which
        # grid_size_for_spacing shares
        shape = {key: value for key, value in config["grid"].items() if key != "n"}
        spacing = 2.0 * np.pi * RECURRENCE_WINDOW / t_max
        needed = grid_size_for_spacing(spacing=spacing, **shape)
        raise ConfigError(
            f"times reach t = {t_max:g}, past {RECURRENCE_WINDOW} * recurrence_time "
            f"= {limit:.6g} of the n={grid.size} grid, where the grid's alias of t "
            f"lies nearer the origin than t and the decay is the alias's; use grid "
            f"n >= {needed}"
        )
    state = state_from_descriptors(grid, **config["state"])
    obs = observable_from_descriptors(grid, **config["observable"])
    return grid, state, obs


def _run_evolve(config, run: _Run, seed) -> None:
    with run.stage("build"):
        grid, state, obs = _build_dephasing(config)
    with run.stage("decay-profile"):
        profile = decay_profile(state, obs, **config["times"])
        _write_profile(run, "decay.csv", profile)
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


def _run_weak_limit(config, run: _Run, seed) -> None:
    with run.stage("build"):
        grid, state, obs = _build_dephasing(config)
        t_min = config.get("t_min", float(config["times"]["start"]))
        t_last = _last_time(config["times"])
        if t_min > t_last:
            raise ConfigError(
                f"t_min = {t_min:g} is past the last time sample t = {t_last:g}, "
                f"so the agreement check would cover no sample"
            )
    with run.stage("weak-limit"):
        limit = weak_limit(state)
        columns = [grid.points, limit.singular.values.real]
        _write_csv(run, "limit_state.csv", ["omega", "rho"], columns)
    with run.stage("agreement"):
        profile = decay_profile(state, obs, **config["times"])
        _write_profile(run, "agreement.csv", profile)
        tolerance = config.get("tolerance", 1e-6)
        worst = float(profile.offdiag_abs[profile.times >= t_min].max())
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


def _run_wigner(config, run: _Run, seed) -> None:
    with run.stage("build"):
        grid = make_grid(**config["grid"])
        state = state_from_descriptors(grid, **config["state"])
        pgrid = PhaseGrid(**config["phase_grid"])
        hfield = _PHASE_FUNCTIONS[config["hamiltonian"]["type"]](pgrid)
        policy = (
            MollifierPolicy(config["epsilon"])
            if "epsilon" in config
            else MollifierPolicy.default_for(hfield)
        )
    with run.stage("state-density"):
        density = classical_state_density(state.singular, hfield, policy)
        run.record("density.wpf", lambda p: write_phase_field(density.field, p))
    with run.stage("summary"):
        summary = {
            "epsilon": float(policy.epsilon),
            "h_mass": float(density.h_mass()),
            "edge_fraction": float(density.edge_fraction()),
        }
        if "observable" in config:
            obs = observable_from_descriptors(grid, **config["observable"])
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
    table = read_csv(Path(cfg["path"]), ["a", "V"])
    return cosmo.table_potential(table[:, 0], table[:, 1], cfg["a1"])


def _mode_set_from(cfg: dict) -> cosmo.ModeSet:
    """The modes of a config that ``load_config`` accepted."""
    if "k_values" in cfg:
        k = np.asarray(cfg["k_values"], dtype=float)
    else:
        k = cosmo.sqrt_prime_modes(cfg["count"], cfg.get("scale", 1.0))
    return cosmo.ModeSet(k, cfg["m"], cfg["a_out"])


def _cosmo_state_from(cfg: dict, basis, eps_shell: float, seed) -> cosmo.CosmoState:
    kind = cfg["type"]
    if kind == "uniform":
        return cosmo.uniform_cosmo_state(basis, eps_shell)
    if kind == "random":
        return cosmo.random_cosmo_state(basis, _rng(seed), cfg.get("coherence", 1.0), eps_shell)
    for key in ("re", "im"):
        lengths = sorted({len(row) for row in cfg.get(key, [])})
        if len(lengths) > 1:
            raise ConfigError(f"field 'state/{key}' has rows of lengths {lengths}")
    re = np.asarray(cfg["re"], dtype=float)
    im = np.asarray(cfg.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ConfigError(f"field 'state/im' has shape {im.shape}, 'state/re' has {re.shape}")
    state = cosmo.CosmoState(basis, re + 1j * im, eps_shell)
    # random and uniform states are positive by construction
    lowest = state.min_eigenvalue()
    if lowest < -cosmo.POSITIVITY_TOL:
        raise ConfigError(
            f"field 'state/re' (with 'state/im') is not a density matrix: its "
            f"smallest eigenvalue is {lowest:.6g} < -{cosmo.POSITIVITY_TOL:g}; "
            f"give a positive semidefinite matrix"
        )
    return state


def _run_cosmo(config, run: _Run, seed) -> None:
    with run.stage("inputs"):
        potential = _load_potential(config["potential"])
        mode_set = _mode_set_from(config["modes"])
        if mode_set.a_out <= potential.a1:
            raise ConfigError(
                f"a_out={mode_set.a_out} must exceed the potential support "
                f"a1={potential.a1}"
            )
    with run.stage("fock-basis"):
        basis = cosmo.enumerate_fock(mode_set, config["n_max"], config.get("omega_cut"))
        eps_shell = config.get("eps_shell", cosmo.DEFAULT_EPS_SHELL)
        state = _cosmo_state_from(config["state"], basis, eps_shell, seed)
    with run.stage("scale-factor"):
        solution = cosmo.solve_scale_factor(
            potential,
            config["a0"],
            config["branch"],
            config["eta_max"],
            config.get("samples", 513),
        )
        columns = [solution.eta_samples, solution.a_samples, solution.s_samples]
        _write_csv(run, "scale_factor.csv", ["eta", "a", "S"], columns)
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
            pgrid = PhaseGrid(**tcfg["phase_grid"])
            fields = [_PHASE_FUNCTIONS[f["type"]](pgrid) for f in tcfg["invariants"]]
            policy = MollifierPolicy(tcfg["epsilon"])
            ensemble, density = cosmo.trajectory_ensemble(
                pointers,
                fields,
                policy,
                tcfg["a0_points"],
                l_values=tcfg.get("l_values"),
            )
            # component, l0, ..., l{F-1}, a0, probability: one l column per
            # invariant field, in the order of the fields
            entries = ensemble.entries
            l_columns = np.array([e.l_values for e in entries], dtype=float).T
            header = ["component", *(f"l{f}" for f in range(len(l_columns))), "a0", "probability"]
            a0 = [e.a0 for e in entries]
            probability = [e.probability for e in entries]
            columns = [range(len(entries)), *l_columns, a0, probability]
            _write_csv(run, "ensemble.csv", header, columns)
            run.record("density.wpf", lambda p: write_phase_field(density.field, p))

    with run.stage("summary"):
        summary = {
            "freeze_eta": solution.freeze_eta,
            "basis_size": basis.size,
            "truncated_count": basis.truncated_count,
            "shell_count": len(state.shells),
            "cross_block_magnitude": float(state.cross_block_magnitude()),
        }
        if "trajectory" in config:
            degenerate = [i for i, e in enumerate(ensemble.entries) if e.degenerate]
            summary["components"] = len(ensemble.entries)
            summary["degenerate_components"] = degenerate
            summary["density_h_mass"] = float(density.h_mass())
            summary["density_edge_fraction"] = float(density.edge_fraction())
        _write_json(run, "summary.json", summary)


def _run_validate(config, run: _Run, seed) -> None:
    with run.stage("validate"):
        grid = make_grid(**config["grid"])
        state = state_from_descriptors(grid, **config["state"])
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


def _run_oracle(config, run: _Run, seed) -> None:
    target = config["target"]
    trials = config.get("trials", 100)
    tolerance = config.get("tolerance", 1e-10)
    rng = _rng(seed)
    results = []  # (got, reference) per trial

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
                results.append((pair(state, obs), dense_pair_oracle(state, obs)))
    else:
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
                ref = conjugation_expectation_oracle(
                    state.matrix, state.shell_energies(), obs, t
                )
                results.append((cosmo.cosmo_expectation(state, obs, t), ref))

    with run.stage("report"):
        max_abs = float(max(abs(got - ref) for got, ref in results))
        max_rel = float(max(abs(got - ref) / max(abs(ref), 1e-30) for got, ref in results))
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
