"""One fresh process of the benchmark: set up a workload, run its tasks, report.

Started by run.py with the repository's ``src`` on PYTHONPATH.  Modes:

* ``setup``: build the inputs and stop (an extra set-up sample);
* ``run``: build the inputs, then time every task once;
* ``trace``: as ``run``, with spans recorded around every measured function.

The last line of standard output is one JSON object with the timings, the
machine's slowdown while they were taken, the peak resident set size and one
record per task.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import time

# exact verdicts have no residual; they sit at this margin
MARGIN_CAP_DIGITS = 100.0

# The speed of a shared VM drifts (by up to 1.5x for minutes at a time on a
# 2-vCPU cloud VM), so untraced processes sample it: every PROBE_EVERY_S of
# process CPU time a fixed pure-Python loop runs and records its duration.
# run.py divides times by slowdown = median loop duration / PROBE_REF_S.
PROBE_EVERY_S = 0.02
PROBE_LOOP = 3000
PROBE_REF_S = 2.0e-4
MIN_PROBES = 25


class SpeedProbe:
    """Samples the machine's speed on SIGPROF while the process runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds the loop itself took, to subtract from timings

    def sample(self, *_):
        t = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i % 7
        took = time.perf_counter() - t
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> float:
        """Stop sampling and return the slowdown against PROBE_REF_S."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        while len(self.samples) < MIN_PROBES:
            self.sample()
        return statistics.median(self.samples) / PROBE_REF_S


def check(task, outcome) -> str | None:
    """None if the outcome matches the task's expectation, else the reason."""
    if outcome.status != task.expect:
        return f"status {outcome.status}, expected {task.expect}"
    if task.expect == "fail":
        if not outcome.witness:
            return "failed without a witness"
        if task.fails_on and task.fails_on not in outcome.witness:
            return f"failed on {list(outcome.witness)}, expected {task.fails_on}"
    elif outcome.residual is not None and not outcome.residual < outcome.tolerance:
        return f"residual {outcome.residual} not below tolerance {outcome.tolerance}"
    return None


def margin_digits(outcome) -> float:
    """Digits between a passing verdict's residual and its tolerance."""
    if outcome.residual is None or outcome.residual == 0:
        return MARGIN_CAP_DIGITS
    return min(MARGIN_CAP_DIGITS, math.log10(outcome.tolerance / outcome.residual))


def execute(tasks) -> list:
    """Run every task once; an exception or a wrong verdict marks it failed."""
    records = []
    for task in tasks:
        record = {"task": task.name, "expect": task.expect}
        try:
            outcome = task.run()
        except Exception as exc:  # counted as a failed task, never fatal
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        else:
            reason = check(task, outcome)
            record.update(ok=reason is None, status=outcome.status)
            if reason:
                record["error"] = reason
            if task.expect == "pass" and reason is None:
                record["margin_digits"] = margin_digits(outcome)
        records.append(record)
    return records


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--task-seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    tracer = probe = None
    if args.mode == "trace":
        import spans

        tracer = spans.install()
    else:
        probe = SpeedProbe()
        probe.start()
    import workloads

    t0 = time.perf_counter()
    tasks = workloads.build(args.workload, args.task_seed, args.tiny)
    setup_s = time.perf_counter() - t0
    probed = probe.spent if probe else 0.0
    result = {"setup_s": setup_s - probed}
    if args.mode != "setup":
        w0, c0 = time.perf_counter(), time.process_time()
        records = execute(tasks)
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
        if probe:
            probed = probe.spent - probed
        margins = [r["margin_digits"] for r in records if "margin_digits" in r]
        result.update(
            wall_s=wall_s - probed,
            cpu_s=cpu_s - probed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            margin_digits=min(margins) if margins else None,
            tasks=records,
        )
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, w0, wall_s)
            result["spans"] = len(tracer.start)
            if args.spans_out:
                meta = {"workload": args.workload, "task_seed": args.task_seed, "timed_start": w0}
                tracer.write(args.spans_out, meta)
    if probe is not None:
        result["slowdown"] = probe.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
