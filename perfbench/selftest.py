"""Self-test of the benchmark at tiny problem sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, in both modes; that a deliberately wrong expected value
and a sha256 mismatch are counted as failed runs rather than dropped; and
that the benchmark refuses to run, printing no result, without the
program's sources.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SECONDS = 1.0


def _declared(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_metrics(problems: list) -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        declared = _declared(kind)
        for name in WORKLOADS:
            result, _details = run.measure(name, seed=7, seconds=SECONDS, trace=trace, tiny=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{name} {kind}: emitted {emitted}, declared {declared}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {kind}: a correct program failed: {_details['failures']}")


def check_wrong_expectation(problems: list) -> None:
    def wrong_rate(config):
        config["expected_rate"] *= 2.0

    result, _details = run.measure("dephasing", seed=7, seconds=SECONDS, trace=False,
                                   tiny=True, mutate=wrong_rate)
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"wrong expected_rate not counted as failed: {result}")


def check_sha_mismatch(problems: list) -> None:
    def child(sha):
        runs = [{"wall_s": 1.0, "traced": False, "sha256": {"a.csv": sha}, "failures": []}
                for _ in range(2)]
        return {"setup_s": 1.0, "cli_s": 2.0, "peak_rss_mb": 1.0, "env": {}, "runs": runs}

    result, _details = run.summarize([child("x"), child("y")], {}, False, 0, 0.0)
    if (result["attempted"], result["failed"]) != (4, 2):
        problems.append(f"sha256 mismatch not counted as failed: {result}")


def check_refuses_without_sources(problems: list) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dephasing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    problems: list = []
    check_metrics(problems)
    check_wrong_expectation(problems)
    check_sha_mismatch(problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
