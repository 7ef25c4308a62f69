"""polyrel benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload xi7 --seed 1 --seconds 25 --trace 0

Run it from anywhere; it uses the ``src`` tree of the checkout it sits in.
Every repetition is a fresh single-threaded interpreter (perfbench/worker.py)
that builds the workload's inputs, as a ``polyrel`` command does, and then
runs its tasks once.  Repetitions run one after another, never in parallel.

``--trace 0`` starts repetitions until ``--seconds`` have passed (so the
last one ends after that), adds set-up-only processes until there are enough
set-up samples, and reports the end-to-end metrics as medians over the
repetitions.  Times are scaled by the slowdown each process measured with
its speed probe (worker.py), so a phase in which the machine runs slower does
not read as a slower program; the raw times are printed per repetition.

``--trace 1`` runs repetition 0 once untraced and twice traced, checks that
every per-layer count and ratio repeats exactly between the two traced runs,
and reports the per-layer metrics.  The spans of the first traced run are
written to ``.perfbench/``.

Every task's verdict is checked against its expected status; a wrong verdict
or an exception counts as failed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 when every verdict is right, 1 when one is wrong, and 2 when the
benchmark could not run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import DETERMINISTIC, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (name, unit, better) of every end-to-end metric, reported with --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "ratio", "higher"),
    ("margin_digits", "digits", "higher"),
)

MIN_SETUP_SAMPLES = 5
# each child must end this long after the run started; the run ends by 180 s
RUN_DEADLINE_S = 170.0
SPANS_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def task_seed(workload: str, seed: int, rep: int) -> int:
    """Seed of one repetition's inputs, split from the workload seed.

    Derived here, not with polyrel's own generator, so that a change to the
    program cannot change the benchmark's inputs.
    """
    digest = hashlib.sha256(f"{workload}/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set iteration order of strings must not differ between repetitions
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = child_env()

    def child(self, mode: str, rep: int, spans_out: str | None = None) -> dict:
        a = self.args
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", a.workload,
            "--task-seed", str(task_seed(a.workload, a.seed, rep)),
            "--mode", mode,
        ]
        if a.tiny:
            cmd.append("--tiny")
        if spans_out:
            cmd += ["--spans-out", spans_out]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the next process could start")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process for rep {rep} ran out of time") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"{mode} process for rep {rep} exited {proc.returncode}:\n{tail}")
        out = json.loads(lines[-1])
        if mode != "setup":
            report_rep(rep, mode, out)
        return out


def report_rep(rep: int, mode: str, out: dict) -> None:
    tasks = out["tasks"]
    ok = sum(t["ok"] for t in tasks)
    slowdown = out.get("slowdown")
    speed = f", slowdown {slowdown:.3f}" if slowdown else ""
    print(
        f"# {mode} rep {rep}: raw setup {out['setup_s']:.3f} s, wall {out['wall_s']:.3f} s, "
        f"cpu {out['cpu_s']:.3f} s{speed}, rss {out['peak_rss_mb']:.1f} MB, "
        f"margin {out['margin_digits']}, {ok}/{len(tasks)} verdicts right"
    )
    for t in tasks:
        if not t["ok"]:
            print(f"#   WRONG {t['task']}: {t.get('error')}")


def environment() -> dict:
    import mpmath.libmp

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "mpmath": importlib.metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "sympy": importlib.metadata.version("sympy"),
    }


def tally(reps: list) -> tuple:
    records = [t for r in reps for t in r["tasks"]]
    return len(records), sum(not t["ok"] for t in records)


def timed_run(runner: Runner) -> tuple:
    seconds = runner.args.seconds
    start = time.perf_counter()
    reps = []
    while not reps or time.perf_counter() - start < seconds:
        reps.append(runner.child("run", len(reps)))
    setups = list(reps)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.child("setup", len(setups)))
    print(f"# {len(reps)} timed reps, {len(setups)} set-up samples")
    attempted, failed, metrics = summarize(reps, setups)
    return attempted, failed, True, metrics, END_TO_END


def summarize(reps: list, setups: list) -> tuple:
    """Attempted and failed task counts and the end-to-end metrics of a run.

    Times are scaled by each process's measured slowdown (see worker.py), so
    they read as seconds at the reference speed.
    """
    attempted, failed = tally(reps)
    margins = [r["margin_digits"] for r in reps if r["margin_digits"] is not None]
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] / r["slowdown"] for r in reps),
        "cpu_s": med(r["cpu_s"] / r["slowdown"] for r in reps),
        "setup_s": med(r["setup_s"] / r["slowdown"] for r in setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "pass_frac": (attempted - failed) / attempted,
        "margin_digits": med(margins) if margins else 0.0,
    }
    return attempted, failed, metrics


def traced_run(runner: Runner) -> tuple:
    a = runner.args
    os.makedirs(SPANS_DIR, exist_ok=True)
    base = runner.child("run", 0)
    spans_out = os.path.join(SPANS_DIR, f"spans-{a.workload}-seed{a.seed}.jsonl")
    # the second traced process only repeats the first, for the determinism check
    traced = [runner.child("trace", 0, spans_out), runner.child("trace", 0)]
    attempted, failed = tally([base] + traced)
    first, second = (t["layers"] for t in traced)
    drift = [n for n in DETERMINISTIC if first[n] != second[n]]
    for n in drift:
        print(f"# NOT DETERMINISTIC {n}: {first[n]} then {second[n]}")
    metrics = {n: v if n in DETERMINISTIC else (v + second[n]) / 2 for n, v in first.items()}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace_overhead_frac"] = traced_wall / base["wall_s"] - 1
    print(f"# spans per traced run: {traced[0]['spans']}")
    return attempted, failed, not drift, metrics, PER_LAYER


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cut-down tasks (self-test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polyrel", "__init__.py")):
        print(f"no polyrel sources under {ROOT}/src; nothing to benchmark", file=sys.stderr)
        return 2
    print("# environment " + json.dumps(environment(), sort_keys=True))
    runner = Runner(args)
    try:
        attempted, failed, consistent, values, spec = (traced_run if args.trace else timed_run)(runner)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and consistent
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
