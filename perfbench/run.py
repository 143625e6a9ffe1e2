"""Benchmark of the vanhove CLI: time to a checked result per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's experiment config (``workloads.py``).
Fresh interpreters (``child.py``) each set up once and then run the
experiment through ``vanhove.cli.main`` until their share of the time is
spent; every run's exit status, workload checks and artifact sha256s are
checked, and the sha256s must agree across all runs of one invocation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed /
attempted`` is the failure fraction.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` warm runs alternate untraced and
traced (``spans.py``) and the metrics are the per-layer ones.  The line
before it holds sample counts, spreads and the software environment.
Scratch files go to ``.perfbench_work/`` in the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

PROCESSES_MIN = 3  # fresh interpreters per invocation, at least
PROCESS_SHARE = 8  # each interpreter runs warm for about seconds / PROCESS_SHARE
MIN_WARM = 2  # warm runs per interpreter, at least
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cli_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: self_s is seconds per traced experiment run
_SELF = [
    "config.load_config",
    "descriptors.state_from_descriptors",
    "descriptors.observable_from_descriptors",
    "kernels.validate_state",
    "kernels.pair",
    "kernels.make_grid",
    "evolution.decay_profile",
    "evolution.weak_limit",
    "evolution.fit_gaussian_envelope",
    "wigner.classical_state_density",
    "wigner.wigner_singular",
    "wigner.classical_expectation",
    "wigner.phase_field_to_csv",
    "wigner.write_phase_field",
    "wigner.multi_invariant_density",
    "cosmology.trajectory_ensemble",
    "cosmology.enumerate_fock",
    "cosmology.solve_scale_factor",
    "cosmology.random_cosmo_state",
    "cosmology.cosmo_weak_limit",
    "cosmology.diagonalize_remaining",
    "pointer.pointer_state",
]
_COUNTS = {
    "descriptors.dense_bytes": "bytes",
    "kernels.pair.calls": "count",
    "evolution.decay_profile.cmacs": "count",
    "wigner.phase_field_to_csv.bytes": "bytes",
    "wigner.multi_invariant_density.calls": "count",
    "cosmology.trajectory_ensemble.components": "count",
    "pointer.max_shell_size": "count",
    "harness.artifact_bytes": "bytes",
}
# ratio name -> (numerator counter, denominator counter)
_RATIOS = {
    "wigner.classical_state_density.shells_used_ratio": (
        "wigner.classical_state_density.shells_used",
        "wigner.classical_state_density.shells",
    ),
    "cosmology.trajectory_ensemble.degenerate_ratio": (
        "cosmology.trajectory_ensemble.degenerate",
        "cosmology.trajectory_ensemble.components",
    ),
    "cosmology.enumerate_fock.kept_ratio": (
        "cosmology.enumerate_fock.kept",
        "cosmology.enumerate_fock.box",
    ),
}
# -X importtime module -> metric; cumulative time of the line that first imports it
_IMPORTS = {
    "scipy.linalg": "import.scipy_linalg.s",
    "scipy.integrate": "import.scipy_integrate.s",
    "jsonschema": "import.jsonschema.s",
}

PER_LAYER = {
    **{name: "s" for name in _IMPORTS.values()},
    "import.vanhove.self_s": "s",
    **{f"{name}.self_s": "s" for name in _SELF},
    "harness.self_s": "s",
    **_COUNTS,
    **{name: "ratio" for name in _RATIOS},
    "evolution.decay_profile.gcmacs_per_s": "Gcmac/s",
    "trace.root_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The program cannot be set up at all; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _warm_up() -> None:
    """Import once so byte-code is compiled and files are cached before timing."""
    if not (ROOT / "src" / "vanhove" / "__init__.py").is_file():
        raise SetupError(f"no vanhove package under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-c", "import vanhove.cli"],
        env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"import vanhove failed:\n{proc.stderr}")


def _import_times() -> dict:
    """Median over fresh interpreters of the -X importtime figures."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vanhove.cli"],
            env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        values = {"import.vanhove.self_s": 0.0}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)", line)
            if not match:
                continue
            self_us, cumulative_us, module = int(match[1]), int(match[2]), match[3]
            if module in _IMPORTS:
                values.setdefault(_IMPORTS[module], cumulative_us / 1e6)
            if module.split(".")[0] == "vanhove":
                values["import.vanhove.self_s"] += self_us / 1e6
        samples.append(values)
    return {key: statistics.median(s.get(key, 0.0) for s in samples) for key in samples[0]}


def _spawn(work: Path, index: int, job: dict) -> dict:
    job_path = work / f"job-{index}.json"
    result_path = work / f"result-{index}.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
        env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        # the interpreter died: one attempted run, failed
        return {"crashed": proc.stderr[-2000:], "runs": [{"failures": ["process died"]}]}
    return json.loads(result_path.read_text())


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            mutate=None) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the details line.

    ``tiny`` shrinks the problem sizes and ``mutate(config)`` edits the
    generated config; both exist for ``selftest.py``.
    """
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workload.make_config(seed, tiny)
    if mutate is not None:
        mutate(config)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    _warm_up()

    start = time.perf_counter()
    imports = _import_times() if trace else {}
    deadline = start + seconds
    children, durations = [], []
    while len(children) < PROCESSES_MIN or (
        time.perf_counter() + 0.5 * statistics.mean(durations) < deadline
    ):
        began = time.perf_counter()
        job = {
            "workload": name,
            "config": str(config_path),
            "out": str(work / "out"),
            "budget_s": seconds / PROCESS_SHARE,
            "min_warm": MIN_WARM,
            "trace": trace,
            "spans": str(work / f"spans-{len(children)}.json"),
        }
        children.append(_spawn(work, len(children), job))
        durations.append(time.perf_counter() - began)

    return summarize(children, imports, trace, seed, time.perf_counter() - start)


def summarize(children: list, imports: dict, trace: bool, seed: int, elapsed: float):
    """Count failed runs, including sha256 mismatches, and take the medians."""
    runs = [run for child in children for run in child["runs"]]
    reference = next((run["sha256"] for run in runs if run.get("sha256")), None)
    failed = 0
    for run in runs:
        if run.get("sha256") and run["sha256"] != reference:
            run["failures"].append("artifact sha256s differ from the first run")
        failed += bool(run["failures"])
    whole = [child for child in children if "crashed" not in child]
    if not whole:
        raise SetupError("every benchmark process died:\n" + children[0]["crashed"])

    warm = [run for child in whole for run in child["runs"][1:]]
    plain = [run["wall_s"] for run in warm if not run["traced"]]
    samples = {
        "setup_s": [child["setup_s"] for child in whole],
        "cli_s": [child["cli_s"] for child in whole],
        "run_s": plain,
        "peak_rss_mb": [child["peak_rss_mb"] for child in whole],
    }
    if trace:
        metrics = _layer_metrics(warm, imports, statistics.median(plain))
        units = PER_LAYER
    else:
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        units = END_TO_END
    details = {
        "seed": seed,
        "elapsed_s": elapsed,
        "processes": len(children),
        "samples": {
            key: {"n": len(v), "median": statistics.median(v), "min": min(v), "max": max(v)}
            for key, v in samples.items()
        },
        "failures": sorted({f.splitlines()[0] for run in runs for f in run["failures"]}),
        "env": whole[0]["env"],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, details


def _layer_metrics(warm: list, imports: dict, untraced_run_s: float) -> dict:
    traced = [run for run in warm if run["traced"] and "trace" in run]
    per_run = []
    for run in traced:
        spans, counters = run["trace"]["self_s"], run["trace"]["counters"]
        values = {f"{name}.self_s": spans.get(name, 0.0) for name in _SELF}
        values["harness.self_s"] = spans.get("harness.run_experiment", 0.0)
        values.update({name: counters.get(name, 0) for name in _COUNTS})
        for name, (num, den) in _RATIOS.items():
            values[name] = counters[num] / counters[den] if counters.get(den) else 0.0
        decay_s = spans.get("evolution.decay_profile", 0.0)
        cmacs = counters.get("evolution.decay_profile.cmacs", 0)
        values["evolution.decay_profile.gcmacs_per_s"] = cmacs / decay_s / 1e9 if decay_s else 0.0
        values["trace.root_s"] = run["trace"]["root_s"]
        values["wall_s"] = run["wall_s"]
        per_run.append(values)
    metrics = {key: statistics.median(r[key] for r in per_run) for key in per_run[0]}
    metrics["trace.overhead_s"] = metrics.pop("wall_s") - untraced_run_s
    metrics.update(imports)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
