"""One fresh interpreter of the benchmark.

Usage: python3 child.py JOB.json RESULT.json

Times ``import vanhove`` plus ``load_config`` (set-up), then runs the
experiment through ``vanhove.cli.main`` once cold and again warm until the
job's budget is spent.  Each run's exit status, artifact sha256s and
workload checks go into RESULT.json with the timings, the process's peak
RSS and the software environment.  With tracing on, warm runs alternate
untraced and traced, and the spans are written to the job's spans file.
"""
from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    workload = WORKLOADS[job["workload"]]
    config_path = job["config"]

    start = time.perf_counter()
    import vanhove.cli
    from vanhove.config import load_config

    config = load_config(config_path)
    setup_s = time.perf_counter() - start

    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
    argv = [
        workload.kind, "--config", config_path,
        "--out", job["out"], "--threads", str(workload.threads),
    ]
    deadline = start + job["budget_s"]
    runs = []
    while len(runs) < 1 + job["min_warm"] or time.perf_counter() < deadline:
        # warm runs alternate untraced and traced when tracing is on
        traced = recorder is not None and len(runs) > 0 and len(runs) % 2 == 0
        runs.append(_run_once(vanhove.cli, argv, workload, config, recorder if traced else None,
                              len(runs)))

    result = {
        "setup_s": setup_s,
        "cli_s": setup_s + runs[0]["wall_s"],
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if recorder is not None:
        summaries = recorder.run_summaries()
        for index, run in enumerate(runs):
            if index in summaries:
                run["trace"] = summaries[index]
        Path(job["spans"]).write_text(json.dumps(recorder.spans))
    Path(result_path).write_text(json.dumps(result))
    return 0


def _run_once(cli, argv, workload, config, recorder, index: int) -> dict:
    gc.collect()
    if recorder is not None:
        recorder.install(index)
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except Exception:  # a raising run is counted as failed; later runs still go
        status, error = None, traceback.format_exc()
    else:
        error = None
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.uninstall()

    run = {"wall_s": wall_s, "traced": recorder is not None, "sha256": {}, "failures": []}
    if error is not None:
        run["failures"].append(f"raised:\n{error}")
        return run
    if status != 0:
        run["failures"].append(f"exit status {status}")
        return run
    out = Path(argv[argv.index("--out") + 1])
    manifest = json.loads((out / "manifest.json").read_text())
    run["sha256"] = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    summary = json.loads((out / "summary.json").read_text())
    run["failures"].extend(workload.check(config, summary))
    return run


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpuinfo("model name"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _read(path: str):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpuinfo(key: str):
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return None


_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    libs = sorted({
        line.split()[-1]
        for line in (_read("/proc/self/maps") or "").splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in _THREAD_QUERIES:
            if hasattr(lib, name):
                query = getattr(lib, name)
                query.restype = ctypes.c_int
                query.argtypes = []
                out[Path(path).name] = query()
                break
    return out


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
