"""Refactor gate: artifact sha256s of the four benchmark workloads (seed 1),
two validate configs (one with a rank-1 regular kernel), both oracle
targets, an evolve run whose state has a dense (table) regular kernel,
two small cosmo runs whose potentials are a table and the quadratic cap
(so each closed-form scale factor is byte-checked) and one with two
invariant fields, each run through ``vanhove.cli.main`` in a temporary
directory.

Usage: python3 tools/refactor_gate.py [--against EARLIER_OUTPUT.json]

Prints {config: {artifact: sha256}}; with --against it exits 1 and lists
each artifact that is new (``added:``), gone (``removed:``) or has other
bytes (``changed:``).  The sha256s depend on the numpy/BLAS build.
"""
import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from vanhove.cli import main as vanhove_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = {
    **{name: w.make_config(1, False) for name, w in WORKLOADS.items()},
    "validate": {"kind": "validate", "grid": {"omega_max": 10.0, "n": 32},
                 "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 1.0,
                                        "amplitude": 2.0}, "normalize": False}},
    # a rank-1 regular part, so the factored hermiticity bound is byte-checked;
    # it sets the cutoff amplitude (mu = 8 near omega_max = 10)
    "validate-regular": {"kind": "validate", "grid": {"omega_max": 10.0, "n": 32},
                         "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 1.0,
                                                "amplitude": 2.0},
                                   "regular": {"type": "gaussian", "mu": 8.0, "sigma": 1.0},
                                   "normalize": False}},
    "oracle-pair": {"kind": "oracle", "target": "pair", "n": 16, "trials": 5, "seed": 3},
    "oracle-cosmo-expectation": {
        "kind": "oracle", "target": "cosmo-expectation", "n_max": 5, "trials": 5,
        "t_max": 5.0, "seed": 3, "modes": {"k_values": [1.0], "m": 0.0, "a_out": 5.0},
    },
    # n = 64 on [0, 10]: times up to 15 lie inside half the recurrence time, 19.8
    "evolve-dense-table": {
        "kind": "evolve", "grid": {"omega_max": 10.0, "n": 64},
        "state": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
                  "regular": {"type": "table", "path": "table.csv"}},
        "observable": {"singular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5},
                       "regular": {"type": "gaussian", "mu": 5.0, "sigma": 0.5}},
        "times": {"start": 0.0, "stop": 15.0, "count": 61},
    },
    # the seed-1 tiny cosmology workload with a sampled potential, so both
    # table readers are byte-checked
    "cosmo-table-potential": {
        **WORKLOADS["cosmology"].make_config(1, True),
        "potential": {"family": "table", "path": "potential.csv", "a1": 1.0},
    },
    # the same with the quadratic cap: a0 = 0.2 expanding freezes at
    # (pi/2 - asin 0.2) / 2 = 0.685, inside eta_max = 1
    "cosmo-quadratic-cap": {
        **WORKLOADS["cosmology"].make_config(1, True),
        "potential": {"family": "quadratic-cap", "lambda": 2.0, "a1": 1.0},
    },
    # two invariant fields, momentum and coordinate: a two-column ensemble,
    # and with the a0 pin a second row field in the constraint sums
    "cosmo-two-invariants": {
        "kind": "cosmo", "potential": {"family": "constant", "lambda": 2.0, "a1": 1.0},
        "a0": 0.2, "branch": 1, "eta_max": 1.0,
        "modes": {"k_values": [0.5, 0.5000000000001], "m": 0.0, "a_out": 20.0},
        "n_max": 1,
        "state": {"type": "explicit", "re": [[0.05, 0, 0, 0], [0, 0.45, 0.18, 0],
                                             [0, 0.18, 0.45, 0], [0, 0, 0, 0.05]]},
        "trajectory": {
            "phase_grid": {"q_range": [-2.5, 2.5], "p_range": [-2.5, 2.5],
                           "nq": 121, "np": 121},
            "epsilon": 0.12,
            "invariants": [{"type": "momentum"}, {"type": "coordinate"}],
            "a0_points": [0.0],
            "l_values": [[[0.3, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], [[0.6, 0.0]]],
        },
    },
}


def write_rows(path: Path, header: str, rows: list[str]) -> None:
    """Write LF-ended ``rows`` under ``header`` with a blank line before
    them and the first one ended by CRLF, so the reader's skip of blank
    lines and of carriage returns runs too."""
    rows[0] = rows[0].replace("\n", "\r\n")
    path.write_text(header + "\n\n" + "".join(rows), newline="")


def write_table(path: Path) -> None:
    """A smooth real symmetric kernel that is not separable,
    exp(-((w - 5)^2 + (w' - 5)^2) / 2 - (w - w')^2), on the dense-table
    run's grid; the floats are written as their reprs, so they read back
    exactly."""
    omega = np.linspace(0.0, 10.0, 64)
    w, v = np.meshgrid(omega, omega, indexing="ij")
    values = np.exp(-((w - 5.0) ** 2 + (v - 5.0) ** 2) / 2.0 - (w - v) ** 2)
    columns = (a.ravel().tolist() for a in (w, v, values))
    rows = [f"{a!r},{b!r},{c!r},0.0\n" for a, b, c in zip(*columns)]
    write_rows(path, "omega,omega_prime,re,im", rows)


def write_potential(path: Path) -> None:
    """A smooth nonnegative potential that is not one of the closed-form
    families, V(a) = 2 (1 - a^2) + sin(pi a)^2 / 2 at 33 points of [0, 1],
    written as reprs like the kernel table."""
    a = np.linspace(0.0, 1.0, 33)
    v = 2.0 * (1.0 - a**2) + 0.5 * np.sin(np.pi * a) ** 2
    rows = [f"{x!r},{y!r}\n" for x, y in zip(a.tolist(), v.tolist())]
    write_rows(path, "a,V", rows)


def gate(workdir: Path) -> dict:
    write_table(workdir / "table.csv")
    write_potential(workdir / "potential.csv")
    digests = {}
    for name, config in RUNS.items():
        path, out = workdir / f"{name}.json", workdir / name
        path.write_text(json.dumps(config))
        argv = [config["kind"], "--config", str(path), "--out", str(out)]
        # the validate configs fail their normalization check on purpose
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            vanhove_main(argv)
        manifest = json.loads((out / "manifest.json").read_text())
        digests[name] = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    return digests


def _flat(digests: dict) -> dict:
    return {f"{name}/{a}": sha for name, shas in digests.items() for a, sha in shas.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, help="earlier output to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = gate(Path(tmp))
    print(json.dumps(digests, indent=1, sort_keys=True))
    if args.against is None:
        return 0
    before, after = _flat(json.loads(args.against.read_text())), _flat(digests)
    report = {
        "added": after.keys() - before.keys(),
        "removed": before.keys() - after.keys(),
        "changed": {k for k in before.keys() & after.keys() if before[k] != after[k]},
    }
    for kind, items in report.items():
        for item in sorted(items):
            print(f"{kind}: {item}", file=sys.stderr)
    return 1 if any(report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
