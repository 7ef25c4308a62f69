"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:

* BENCHMARK.json lists exactly the metrics run.py and spans.py define, with
  the same units and directions;
* every workload runs with ``--trace 0`` and ``--trace 1`` and emits every
  listed metric with its unit, and every verdict is right;
* a deliberately wrong expected verdict is counted as failed and lowers
  ``pass_frac``;
* without the polyrel sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"SELF-TEST FAILED: {what}")
    print(f"ok  {what}")


def bench_lists() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {
        key: [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        for key in ("end_to_end", "per_layer")
    }
    check(listed["end_to_end"] == list(run.END_TO_END), "end_to_end metrics match run.END_TO_END")
    check(listed["per_layer"] == list(PER_LAYER), "per_layer metrics match spans.PER_LAYER")
    check(
        [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
        "workloads match workloads.WORKLOADS",
    )
    return listed


def run_tiny(workload: str, trace: int, expected: list) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        print(proc.stderr.strip()[-2000:])
    check(proc.returncode == 0, f"{label} exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label} verdicts right")
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    check(emitted == {n: u for n, u, _ in expected}, f"{label} emits every listed metric with its unit")


def wrong_expectation() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tasks = workloads.build("weight4", 7, tiny=True)
    flipped = dataclasses.replace(tasks[0], expect="fail")
    records = worker.execute([flipped] + tasks[1:])
    rep = {"tasks": records, "setup_s": 1.0, "wall_s": 1.0, "cpu_s": 1.0, "slowdown": 1.0,
           "peak_rss_mb": 1.0, "margin_digits": None}
    attempted, failed, metrics = run.summarize([rep], [rep])
    check(failed == 1 and not records[0]["ok"], "a wrong expected verdict counts as failed")
    check(metrics["pass_frac"] == (attempted - 1) / attempted, "pass_frac counts the wrong verdict")


def bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "xi7", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "without sources: non-zero exit, no result")


def main() -> None:
    listed = bench_lists()
    for workload in workloads.WORKLOADS:
        run_tiny(workload, 0, listed["end_to_end"])
        run_tiny(workload, 1, listed["per_layer"])
    wrong_expectation()
    bare_directory()
    print("self-test passed")


if __name__ == "__main__":
    main()
