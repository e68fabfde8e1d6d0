"""Batch experiment driver: seeded multi-run experiments, summary
statistics and machine-readable reports.

Each problem is solved ``runs`` times with per-run seeds ``base_seed + i``
so a rerun with the same configuration reproduces every number exactly.
Objective statistics follow the feasible-only convention: best, median,
mean, worst and the population standard deviation are taken over the runs
whose final incumbent is feasible. The mean constraint violation (mcv)
averages the final incumbent's violation over all runs, so a 100 percent
feasibility rate is equivalent to mcv == 0.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .cohort import CiConfig, RunResult, ci_sapf_run
from .collision import CboConfig, ci_sapf_cbo_run
from .problem import ProblemDefinition
from . import suite

SolverConfig = Union[CiConfig, CboConfig]

SUMMARY_NOTE = ("# objective statistics (best/median/mean/worst/std) are over "
                "feasible runs only; mcv is the mean of each run's final "
                "incumbent constraint violation over all runs")

_COLUMNS = ("problem", "algorithm", "runs", "feasible_runs", "fr", "best",
            "median", "mean", "worst", "std", "mcv", "avg_fe", "avg_time",
            "violation_best", "violation_mean", "violation_worst")


class Algorithm(enum.Enum):
    CI_SAPF = "ci-sapf"
    CI_SAPF_CBO = "ci-sapf-cbo"


# Config types only: solve_once calls each engine by its module-level name,
# which perfbench's tracer rebinds; a function held here would bypass that.
CONFIG_TYPES = {Algorithm.CI_SAPF: CiConfig, Algorithm.CI_SAPF_CBO: CboConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: Algorithm
    problem_ids: tuple[str, ...]
    solver: SolverConfig
    runs: int = 30
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "problem_ids", tuple(self.problem_ids))
        if not self.problem_ids:
            raise ValueError("problem_ids must not be empty")
        if len(set(self.problem_ids)) != len(self.problem_ids):
            raise ValueError(f"problem_ids repeat a problem: {self.problem_ids}")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        config_type = CONFIG_TYPES[self.algorithm]
        if not isinstance(self.solver, config_type):
            raise ValueError(f"{self.algorithm.value} needs a {config_type.__name__}")


@dataclass
class RunStatistics:
    problem_id: str
    algorithm: str
    runs: int
    feasible_runs: int
    fr: float
    best: Optional[float]
    median: Optional[float]
    mean: Optional[float]
    worst: Optional[float]
    std: Optional[float]
    mcv: float
    avg_fe: float
    avg_time: float
    violation_best: float
    violation_mean: float
    violation_worst: float


@dataclass
class ExperimentOutcome:
    """One problem's runs; run i used seed ``base_seed + i``."""

    problem_id: str
    algorithm: Algorithm
    statistics: RunStatistics
    results: list[RunResult]
    base_seed: int


def solve_once(problem: ProblemDefinition, algorithm: Algorithm,
               solver: SolverConfig, seed: int) -> RunResult:
    cfg = replace(solver, seed=seed)
    if algorithm is Algorithm.CI_SAPF:
        return ci_sapf_run(problem, cfg)
    return ci_sapf_cbo_run(problem, cfg)


def compute_statistics(results: Sequence[RunResult], problem_id: str,
                       algorithm: str) -> RunStatistics:
    """Aggregate a batch of runs into one summary row.

    With zero feasible runs the objective fields are None (reported as
    "infeasible") and only the violation statistics carry information.
    """
    if not results:
        raise ValueError("need at least one run result")
    feasible = [r for r in results if r.feasible]
    violations = np.array([r.best_violation for r in results])

    if feasible:
        objectives = np.array([r.best_objective for r in feasible])
        best = float(objectives.min())
        median = float(np.median(objectives))
        mean = float(objectives.mean())
        worst = float(objectives.max())
        std = float(objectives.std())          # population std
    else:
        best = median = mean = worst = std = None

    return RunStatistics(
        problem_id=problem_id, algorithm=algorithm, runs=len(results),
        feasible_runs=len(feasible),
        fr=100.0 * len(feasible) / len(results),
        best=best, median=median, mean=mean, worst=worst, std=std,
        mcv=float(violations.mean()),
        avg_fe=float(np.mean([r.function_evaluations for r in results])),
        avg_time=float(np.mean([r.wall_time for r in results])),
        violation_best=float(violations.min()),
        violation_mean=float(violations.mean()),
        violation_worst=float(violations.max()))


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentOutcome]:
    """Run every configured problem ``cfg.runs`` times and aggregate.

    Runs are independent (seed base_seed + i each), so executing them in
    any order or in parallel cannot change the numbers; this driver runs
    them sequentially.
    """
    outcomes = []
    for pid in cfg.problem_ids:
        problem = suite.get_problem(pid)
        results = [solve_once(problem, cfg.algorithm, cfg.solver,
                              cfg.base_seed + i)
                   for i in range(cfg.runs)]
        stats = compute_statistics(results, pid, cfg.algorithm.value)
        outcomes.append(ExperimentOutcome(problem_id=pid,
                                          algorithm=cfg.algorithm,
                                          statistics=stats, results=results,
                                          base_seed=cfg.base_seed))
    return outcomes


def _fmt(value) -> str:
    if value is None:
        return "infeasible"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _stats_row(s: RunStatistics) -> dict:
    # every column but the first is the RunStatistics field of its name
    return {"problem": s.problem_id, **{col: getattr(s, col) for col in _COLUMNS[1:]}}


def emit_report(outcomes: Sequence[ExperimentOutcome],
                out_dir: str | Path) -> list[Path]:
    """Write summary.csv, summary.json and one trace CSV per run.

    File bodies contain no timestamps, so a rerun with the same
    configuration reproduces every byte but the measured times
    (``avg_time``, ``wall_time``). Numbers have 10 significant digits.
    Trace files are named by problem id and run, so two outcomes of one
    problem (say, of both engines) are rejected before anything is
    written: report them to separate directories.
    """
    if not outcomes:
        raise ValueError("no experiment outcomes to report")
    seen = set()
    for outcome in outcomes:
        if outcome.problem_id in seen:
            raise ValueError(f"two outcomes for problem {outcome.problem_id!r}: their "
                             f"trace files would overwrite each other")
        seen.add(outcome.problem_id)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create report directory {out_dir}: {exc}") from exc

    written = []
    ordered = sorted(outcomes, key=lambda o: (o.problem_id, o.algorithm.value))

    csv_path = out_dir / "summary.csv"
    lines = [SUMMARY_NOTE, ",".join(_COLUMNS)]
    for outcome in ordered:
        row = _stats_row(outcome.statistics)
        lines.append(",".join(_fmt(row[col]) for col in _COLUMNS))
    _write_text(csv_path, "\n".join(lines) + "\n")
    written.append(csv_path)

    json_path = out_dir / "summary.json"
    payload = {
        "note": SUMMARY_NOTE.lstrip("# "),
        "problems": [
            {**{k: (v if not isinstance(v, float) else float(_fmt(v)))
                for k, v in _stats_row(o.statistics).items()},
             "per_run": [
                 {"run": i, "seed": o.base_seed + i,
                  "objective": float(_fmt(r.best_objective)),
                  "violation": float(_fmt(r.best_violation)),
                  "feasible": r.feasible,
                  "function_evaluations": r.function_evaluations,
                  "learning_attempts": r.learning_attempts,
                  "wall_time": float(_fmt(r.wall_time))}
                 for i, r in enumerate(o.results)]}
            for o in ordered],
    }
    _write_text(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(json_path)

    for outcome in ordered:
        for run_index, result in enumerate(outcome.results):
            trace_path = out_dir / f"trace_{outcome.problem_id}_{run_index}.csv"
            trace = result.trace
            rows = ["attempt,best_phi,best_f,best_violation"]
            # _fmt's float format, straight from the trace's columns
            rows.extend(f"{i},{phi:.10g},{f:.10g},{v:.10g}" for i, (phi, f, v) in enumerate(
                zip(trace.best_phi, trace.best_f, trace.best_violation), 1))
            _write_text(trace_path, "\n".join(rows) + "\n")
            written.append(trace_path)
    return written


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot write report file {path}: {exc}") from exc
