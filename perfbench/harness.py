"""Timed rounds, their checks, and the metrics a run reports."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing

SETUP_SPAWNS = 11

# Outside every span, a traced round only runs the benchmark's own loop;
# more than this share of its wall time means the spans miss solver work.
UNATTRIBUTED_SHARE = 0.01

# Timed inside a fresh interpreter: import the package (numpy included)
# and build every registry problem.
SETUP_CODE = ("import sys, time; started = time.perf_counter(); "
              "sys.path.insert(0, sys.argv[1]); import cohortopt; "
              "from cohortopt import suite; "
              "[suite.get_problem(r.suite_id) for r in suite.list_problems()]; "
              "print(time.perf_counter() - started)")

# spans whose call counts are reported; the counts repeat exactly per seed
COUNTED = ("problem.evaluate", "problem.round_integers", "problem.clip_to_bounds",
           "suite.fn", "penalty.score", "cohort.learning_attempt",
           "cohort.roulette_select", "collision.collision_state")


def setup_seconds(src: Path) -> float:
    """Median import time of fresh interpreters, after one warm-up that
    fills the bytecode cache."""
    command = [sys.executable, "-c", SETUP_CODE, str(src)]
    times = [float(subprocess.run(command, check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(SETUP_SPAWNS + 1)]
    return statistics.median(times[1:])


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def same_results(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        (x is None and y is None)
        or (x is not None and y is not None and checks.same_result(x, y))
        for x, y in zip(a, b))


class Runner:
    """Runs and checks rounds of one workload, keeping the tally."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.inputs = workload.prepare(seed)
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []     # failed checks: the run is not correct
        self.faults: list[str] = []     # operations that raised: counted in failed
        self.first = None

    def round(self, tracer):
        """One timed round with ``tracer`` installed, then its checks outside
        the timing and the tracer. Returns (round, wall s, CPU s)."""
        with tracer.installed():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            rnd = self.workload.run_round(self.inputs, tracer, self.workdir)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        self.faults += rnd.faults
        self.errors += self.workload.check(self.inputs, rnd)
        if self.first is None:
            self.first = rnd.results
        elif not same_results(rnd.results, self.first):
            self.errors.append("a repeated round gave different results")
        return rnd, wall, cpu


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def upper_decile(values: list) -> float:
    return (statistics.quantiles(values, n=10, method="inclusive")[-1]
            if len(values) > 1 else values[0])


def round_estimate(rounds: list, clock: int) -> float:
    """Wall (``clock`` 0) or CPU (``clock`` 1) seconds of one round at the
    host's steady speed.

    On the shared 2-vCPU VM it was tuned on, a solver run goes at a steady
    speed, broken by bursts up to 1.7 times faster that last seconds and
    cover a share of a run that changes from run to run; a round's mean or
    median cost follows that share, its upper decile does not.

    ``rounds`` holds ((wall, CPU) of the round, op_times) per round, every
    round the same operations. Each group of solver runs counts its FE
    times the upper decile of seconds per FE over its runs in every round;
    the time a round spends outside solver runs (statistics, reports, the
    CLI, the benchmark's loop) counts at its median over rounds.
    """
    per_fe, group_fe = {}, {}
    for _, op_times in rounds:
        for group, fe, *seconds in op_times:
            per_fe.setdefault(group, []).append(seconds[clock] / fe)
    for group, fe, *_ in rounds[0][1]:
        group_fe[group] = group_fe.get(group, 0) + fe
    outside = statistics.median(
        totals[clock] - sum(op[2 + clock] for op in op_times)
        for totals, op_times in rounds)
    return outside + sum(fe * upper_decile(per_fe[group])
                         for group, fe in group_fe.items())


def measure(runner: Runner, seconds: float, src: Path) -> dict:
    """End-to-end metrics over untraced rounds."""
    setup = setup_seconds(src)
    rounds = []
    started = time.perf_counter()
    while True:
        rnd, wall, cpu = runner.round(tracing.NullTracer())
        if rnd.report_dir is not None:
            shutil.rmtree(rnd.report_dir)
        rounds.append(((wall, cpu), rnd.op_times))
        fe = rnd.function_evaluations
        del rnd
        if time.perf_counter() - started >= seconds:
            break
    wall_s, cpu_s = round_estimate(rounds, 0), round_estimate(rounds, 1)
    print(f"perfbench: {len(rounds)} rounds, measured wall "
          f"{[totals[0] for totals, _ in rounds]} s, estimate {wall_s} s",
          file=sys.stderr)
    return {
        "wall_s": metric(wall_s, "s"),
        "cpu_s": metric(cpu_s, "s"),
        "us_per_fe": metric(1e6 * wall_s / fe, "us"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(runner: Runner, seconds: float, trace_file: Path) -> dict:
    """Per-layer metrics from pairs of an untraced and a traced round."""
    self_s, overheads, remainders, counts = [], [], [], None
    started = time.perf_counter()
    while True:
        plain, plain_wall, _ = runner.round(tracing.NullTracer())
        tr = tracing.Tracer()
        traced, traced_wall, _ = runner.round(tr)
        if not same_results(plain.results, traced.results):
            runner.errors.append("traced results differ from the untraced round")
        round_counts = dict(tr.calls)
        if traced.report_dir is not None:
            round_counts["bench.emit_report.files"], round_counts["bench.emit_report.bytes"] = \
                tree_size(traced.report_dir)
            shutil.rmtree(plain.report_dir)
            shutil.rmtree(traced.report_dir)
        if counts is None:
            counts = round_counts
        elif counts != round_counts:
            runner.errors.append("per-layer counts differ between rounds")
        remainder = traced_wall - sum(tr.self_s.values())
        if remainder > UNATTRIBUTED_SHARE * traced_wall:
            runner.errors.append(f"spans miss {remainder:.3f} s of a {traced_wall:.3f} s "
                                 "traced round")
        self_s.append(dict(tr.self_s))
        overheads.append(traced_wall - plain_wall)
        remainders.append(remainder)
        del plain, traced
        if time.perf_counter() - started >= seconds:
            break

    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps({"spans": tr.spans(), "counts": counts}, indent=1))
    print(f"perfbench: {len(self_s)} traced rounds, overhead {overheads} s, "
          f"spans in {trace_file}", file=sys.stderr)

    metrics = {}
    for name in tracing.SPAN_NAMES:
        if name in COUNTED:
            metrics[f"{name}.calls"] = metric(counts.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(
            statistics.median(s.get(name, 0.0) for s in self_s), "s")
    metrics["bench.emit_report.files"] = metric(
        counts.get("bench.emit_report.files", 0), "count")
    metrics["bench.emit_report.bytes"] = metric(
        counts.get("bench.emit_report.bytes", 0), "bytes")
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    metrics["trace.unattributed_s"] = metric(statistics.median(remainders), "s")
    return metrics
