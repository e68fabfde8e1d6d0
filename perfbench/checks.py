"""Correctness checks computed by the benchmark itself.

Nothing here reads a stored copy of the program's output or the program's
own statistics: violations are re-summed from the problem's callables,
published best-known values are written out below, the gear-train optimum
comes from an exhaustive enumeration and the custom problem's bound from
its continuous relaxation.
"""

from __future__ import annotations

import csv
import json
import math
import statistics

import numpy as np

from cohortopt import CiConfig, VarKind

# Published best-known values (Kumar et al., SWEVO 56, 2020, and the
# formulations' classic sources); RC19's is below its classical optimum.
PUBLISHED_BEST = {
    "RC08": 2.0, "RC10": 1.0765430833, "RC15": 2994.4244658,
    "RC17": 0.012665232788, "RC18": 5885.3327736, "RC19": 1.6702177263,
    "RC20": 263.89584338, "RC21": 0.2352424579, "RC31": 0.0,
    "RC32": -30665.538672,
}
BEST_KNOWN_RTOL = 1e-6


def expected_fe(solver, attempts: int) -> int:
    """FE of a run from its configuration and attempt count alone."""
    c = solver.cohort_size
    if isinstance(solver, CiConfig):
        return c + attempts * c * solver.variations_per_attempt
    return c * (1 + attempts)


def recomputed(problem, x) -> tuple[float, float]:
    """Objective and aggregate violation at ``x`` from the raw callables."""
    f = float(problem.objective_fn(x))
    violation = 0.0
    for fn in problem.inequality_fns:
        violation += max(0.0, float(fn(x)))
    for fn in problem.equality_fns:
        violation += max(0.0, abs(float(fn(x))) - problem.equality_tolerance)
    return f, violation


def check_run(label: str, problem, solver, result, floor=None) -> list[str]:
    """Method properties every finished run must have.

    ``floor`` is a value no feasible objective may lie below (a published
    best-known value or a relaxation bound).
    """
    errors = []
    where = f"{label} seed={solver.seed}"
    attempts = result.learning_attempts
    fe = result.function_evaluations
    if fe != expected_fe(solver, attempts):
        errors.append(f"{where}: FE {fe} != {expected_fe(solver, attempts)} "
                      f"for {attempts} attempts")
    if fe > solver.max_function_evaluations or attempts > solver.max_learning_attempts:
        errors.append(f"{where}: budget exceeded (FE {fe}, attempts {attempts})")
    if len(result.trace) != attempts or any(
            rec.attempt != i + 1 for i, rec in enumerate(result.trace)):
        errors.append(f"{where}: trace does not hold one record per attempt")

    x = np.asarray(result.best_position, dtype=float)
    lower, upper = problem.bounds.lower, problem.bounds.upper
    if x.shape != (problem.dimension,) or (x < lower).any() or (x > upper).any():
        errors.append(f"{where}: best_position {x.tolist()} outside the box")
        return errors
    for i, kind in enumerate(problem.kinds):
        if kind is VarKind.INTEGER and not float(x[i]).is_integer():
            errors.append(f"{where}: integer dimension {i} holds {x[i]!r}")

    f, violation = recomputed(problem, x)
    if f != result.best_objective or violation != result.best_violation:
        errors.append(f"{where}: re-evaluation gives f={f!r} V={violation!r}, "
                      f"run reports f={result.best_objective!r} "
                      f"V={result.best_violation!r}")
    if result.feasible != (violation == 0.0):
        errors.append(f"{where}: feasible={result.feasible} with V={violation!r}")
    if attempts and (result.trace[-1].best_f, result.trace[-1].best_violation) \
            != (result.best_objective, result.best_violation):
        errors.append(f"{where}: last trace record is not the incumbent")
    if result.feasible and floor is not None:
        if f < floor - BEST_KNOWN_RTOL * max(abs(floor), 1e-300):
            errors.append(f"{where}: feasible f={f!r} below the floor {floor!r}")
    return errors


def gear_train_oracle() -> float:
    """Minimum of RC31's objective over all 49**4 integral tooth counts.

    Enumerated one first-gear slice at a time to keep memory small.
    """
    teeth = np.arange(12, 61, dtype=float)
    x2, x3, x4 = np.meshgrid(teeth, teeth, teeth, indexing="ij", sparse=True)
    target = 1.0 / 6.931
    return min(float(((target - (x2 * x4) / (x1 * x3)) ** 2).min())
               for x1 in teeth)


def batch_figures(results) -> tuple[float, list[float]]:
    """Feasibility rate in percent and the feasible objectives of a batch."""
    feasible = [r.best_objective for r in results if r.feasible]
    return 100.0 * len(feasible) / len(results), feasible


# Published A1-A7 conditions that fail at some base seed other than the
# tests' seed 0 are held at a wider tolerance: a few times the widest miss
# measured over base seeds 0-59 (published value -> widest miss -> held).
A1_MIN_FR = 90.0            # fr = 100 -> 96.7 % (seed 46) -> 90 %
A2_MEAN_RTOL = 5e-3         # 0.1 % -> 0.23 % (seed 10 ci-sapf, seed 47 ci-sapf-cbo) -> 0.5 %
A4_MAX_BEST = 1e-8          # 1e-9 -> 1.26e-9 (seed 31) -> 1e-8
A5_MAX_BEST = 1.10 * 5885.3327736   # 1.04x -> 1.056x (seed 24) -> 1.10x
A7_RTOL = 5e-3              # 0.1 % -> 0.102 % (seed 11) -> 0.5 %


def acceptance(criterion: str, results, oracle: float | None = None) -> list[str]:
    """A1-A7 as ``tests/test_acceptance.py`` publishes them, over one
    configuration's batch of runs, with the tolerances widened above."""
    fr, objectives = batch_figures(results)
    best = min(objectives) if objectives else math.inf
    mean = sum(objectives) / len(objectives) if objectives else math.inf
    if criterion == "A1":
        ok = fr >= A1_MIN_FR and abs(best - 2.0) <= 1e-3
    elif criterion == "A2":
        target = 263.8959
        ok = (fr == 100.0 and abs(best - target) <= 5e-4 * target
              and abs(mean - target) <= A2_MEAN_RTOL * target)
    elif criterion == "A3":
        ok = fr == 100.0 and abs(best - 0.235242458) <= 1e-6
    elif criterion == "A4":
        ok = (abs(oracle - 2.7009e-12) <= 1e-4 * 2.7009e-12
              and oracle - 1e-16 <= best <= A4_MAX_BEST)
    elif criterion == "A5":
        ok = fr == 100.0 and best <= A5_MAX_BEST
    elif criterion == "A6":
        target = 0.012665232788
        ok = fr == 100.0 and abs(best - target) <= 0.02 * target
    elif criterion == "A7":
        target = -30665.538672
        ok = fr == 100.0 and abs(best - target) <= A7_RTOL * abs(target)
    else:
        raise ValueError(f"unknown criterion {criterion}")
    if ok:
        return []
    return [f"{criterion}: fr={fr}% best={best!r} mean={mean!r}"
            + (f" oracle={oracle!r}" if oracle is not None else "")]


def _close(a: float, b: float) -> bool:
    """Equal up to the 10 significant digits reports are written with."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def check_reports(out_dir, results_by_problem: dict, runs: int) -> list[str]:
    """summary.csv, summary.json and trace CSVs against the captured runs."""
    errors = []
    files = sorted(p.name for p in out_dir.iterdir())
    expected = {"summary.csv", "summary.json"} | {
        f"trace_{pid}_{i}.csv" for pid in results_by_problem for i in range(runs)}
    if set(files) != expected:
        errors.append(f"{out_dir.name}: wrote {len(files)} files, expected {len(expected)}")
        return errors

    lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if sorted(r["problem"] for r in rows) != sorted(results_by_problem) or \
            sorted(p["problem"] for p in summary["problems"]) != sorted(results_by_problem):
        return errors + [f"{out_dir.name}: summaries do not hold one row per problem"]
    per_run = {p["problem"]: p["per_run"] for p in summary["problems"]}

    for row in rows:
        pid = row["problem"]
        where = f"{out_dir.name}/{pid}"
        results = results_by_problem[pid]
        fr, objectives = batch_figures(results)
        stats = ("best", "median", "mean", "worst", "std")
        if int(row["runs"]) != runs or int(row["feasible_runs"]) != len(objectives):
            errors.append(f"{where}: runs/feasible_runs disagree with the runs made")
        if not _close(float(row["fr"]), fr):
            errors.append(f"{where}: fr {row['fr']} != {fr}")
        if (float(row["fr"]) == 100.0) != (float(row["mcv"]) == 0.0):
            errors.append(f"{where}: fr={row['fr']} but mcv={row['mcv']}")
        infeasible = [row[k] == "infeasible" for k in stats]
        if any(infeasible) != (len(objectives) == 0) or any(infeasible) != all(infeasible):
            errors.append(f"{where}: objective statistics misreport feasibility")
        if objectives:
            best, median, worst = (float(row[k]) for k in ("best", "median", "worst"))
            if not best <= median <= worst:
                errors.append(f"{where}: best {best} <= median {median} <= worst {worst} fails")
            if not (_close(best, min(objectives)) and _close(worst, max(objectives))
                    and _close(median, statistics.median(objectives))):
                errors.append(f"{where}: best/median/worst disagree with the runs made")
        fes = [r.function_evaluations for r in results]
        if [p["function_evaluations"] for p in per_run[pid]] != fes:
            errors.append(f"{where}: per-run FE in summary.json disagree with the runs")
        if not _close(float(row["avg_fe"]), sum(fes) / len(fes)):
            errors.append(f"{where}: avg_fe {row['avg_fe']} != mean FE {sum(fes) / len(fes)}")
        for i, result in enumerate(results):
            trace_path = out_dir / f"trace_{pid}_{i}.csv"
            with trace_path.open(encoding="utf-8") as fh:
                data_rows = sum(1 for _ in fh) - 1
            if data_rows != result.learning_attempts \
                    or per_run[pid][i]["learning_attempts"] != result.learning_attempts:
                errors.append(f"{trace_path.name}: {data_rows} rows for "
                              f"{result.learning_attempts} attempts")
    return errors


def same_result(a, b) -> bool:
    """Bit-identical search outcome; wall time is excluded."""
    return (np.array_equal(a.best_position, b.best_position)
            and a.best_objective == b.best_objective
            and a.best_phi == b.best_phi
            and a.best_violation == b.best_violation
            and a.feasible == b.feasible
            and a.function_evaluations == b.function_evaluations
            and a.learning_attempts == b.learning_attempts
            and a.trace == b.trace)

