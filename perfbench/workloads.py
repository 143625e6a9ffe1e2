"""Benchmark workloads: seeded config generation and per-run output checks.

Each workload is one ``vanhove <kind>`` invocation.  The seed draws the
profile parameters (centres, widths, the random cosmology state); problem
sizes stay fixed, so the work done per run does not depend on the seed.
Every drawn parameter set satisfies the workload's declared check, so a
failed check is a defect of the program, not of the input.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

H_MASS_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    threads: int
    # (seed, tiny) -> experiment config; tiny shrinks sizes for the self-test
    make_config: Callable[[int, bool], dict]
    # (config, summary) -> list of failed checks, beyond the CLI exit status
    check: Callable[[dict, dict], list]


def _gaussian(mu: float, sigma: float) -> dict:
    return {"type": "gaussian", "mu": mu, "sigma": sigma}


def _dephasing_config(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    sigma = rng.uniform(0.4, 0.6)
    mu_state, mu_obs = rng.uniform(4.5, 5.5), rng.uniform(4.5, 5.5)
    return {
        "kind": "evolve",
        "grid": {"omega_max": 10.0, "n": 128 if tiny else 2048},
        "state": {"singular": _gaussian(mu_state, sigma), "regular": _gaussian(mu_state, sigma)},
        "observable": {"singular": _gaussian(mu_obs, sigma), "regular": _gaussian(mu_obs, sigma)},
        "times": {"start": 0.0, "stop": 30.0, "count": 31 if tiny else 121},
        "threshold": 0.01,
        # equal-width gaussian kernels give |offdiag(t)| ~ exp(-sigma^2 t^2 / 2)
        "expected_rate": sigma**2 / 2.0,
    }


def _equilibrium_config(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    return {
        "kind": "weak-limit",
        "grid": {"omega_max": 10.0, "n": 256 if tiny else 1024, "scheme": "chebyshev"},
        "state": {
            "singular": _gaussian(rng.uniform(4.5, 5.5), rng.uniform(0.4, 0.6)),
            "regular": {
                "type": "lorentzian",
                "center": rng.uniform(4.5, 5.5),
                "gamma": rng.uniform(0.5, 0.7),
            },
        },
        "observable": {
            "singular": _gaussian(rng.uniform(4.5, 5.5), rng.uniform(0.4, 0.6)),
            "regular": _gaussian(rng.uniform(4.5, 5.5), rng.uniform(0.4, 0.6)),
        },
        "times": {"start": 0.0, "stop": 60.0, "count": 81 if tiny else 2001},
        "t_min": 20.0,
        "tolerance": 1e-6,
    }


def _phase_space_config(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    side = 128 if tiny else 256
    return {
        "kind": "wigner",
        "grid": {"omega_max": 10.0, "n": 64 if tiny else 512},
        "phase_grid": {"q_range": [-5.0, 5.0], "p_range": [-5.0, 5.0], "nq": side, "np": side},
        "hamiltonian": {"type": "harmonic"},
        "state": {"singular": _gaussian(rng.uniform(4.0, 6.0), rng.uniform(0.6, 1.0))},
        "observable": {"singular": _gaussian(rng.uniform(4.0, 6.0), rng.uniform(0.8, 1.2))},
        "epsilon": 0.3 if not tiny else 0.6,
        "tolerance": 0.1,
    }


def _cosmology_config(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    modes = 4 if tiny else 9
    return {
        "kind": "cosmo",
        "seed": seed,
        "potential": {"family": "constant", "lambda": rng.uniform(1.5, 2.5), "a1": 1.0},
        "a0": 0.2,
        "branch": 1,
        "eta_max": 1.0,
        # integer moduli with m = 0: frequencies coincide, so shells are degenerate
        "modes": {"k_values": list(range(1, modes + 1)), "m": 0.0, "a_out": 20.0},
        "n_max": 3,
        "omega_cut": 12.0,
        "state": {"type": "random", "coherence": 0.5},
        "trajectory": {
            "phase_grid": {
                "q_range": [-1.0, 1.0],
                "p_range": [-1.0, 13.0],
                "nq": 32 if tiny else 128,
                "np": 40 if tiny else 160,
            },
            "epsilon": 0.3 if not tiny else 0.8,
            "invariants": [{"type": "momentum"}],
            "a0_points": [rng.uniform(-0.5, -0.1), rng.uniform(0.1, 0.5)],
        },
    }


def _check_none(config: dict, summary: dict) -> list:
    return []


def _check_phase_space(config: dict, summary: dict) -> list:
    if abs(summary["h_mass"] - 1.0) > H_MASS_TOL:
        return [f"h_mass {summary['h_mass']!r} is not within {H_MASS_TOL} of 1"]
    return []


def _check_cosmology(config: dict, summary: dict) -> list:
    failures = []
    if abs(summary["density_h_mass"] - 1.0) > H_MASS_TOL:
        failures.append(
            f"density_h_mass {summary['density_h_mass']!r} is not within {H_MASS_TOL} of 1"
        )
    box = (config["n_max"] + 1) ** len(config["modes"]["k_values"])
    if summary["basis_size"] + summary["truncated_count"] != box:
        failures.append(
            f"basis_size {summary['basis_size']} + truncated_count "
            f"{summary['truncated_count']} != {box} occupancy vectors"
        )
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dephasing", "evolve", 1, _dephasing_config, _check_none),
        Workload("equilibrium", "weak-limit", 1, _equilibrium_config, _check_none),
        Workload("phase-space", "wigner", 1, _phase_space_config, _check_phase_space),
        Workload("cosmology", "cosmo", 2, _cosmology_config, _check_cosmology),
    )
}
