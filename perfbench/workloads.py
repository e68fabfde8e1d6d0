"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed list of operations (seeded
solver runs), runs them as one round through the public API or the CLI,
and checks the round's outputs with ``checks``. A run of the benchmark
repeats the same round, so the work per round and the share of failed
operations do not depend on how long the run lasts.

Seed ``n`` gives solver seeds ``30n .. 30n+29`` (``10n .. 10n+9`` for
``custom-wide``), so ``--seed 0`` is exactly the acceptance experiment of
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from cohortopt import (
    Algorithm,
    Bounds,
    CboConfig,
    CiConfig,
    NegativeMode,
    PenaltyConfig,
    ProblemDefinition,
    VarKind,
    bench,
    cli,
    suite,
)

RUNS = 30
CBO_PRECISE = CboConfig(cohort_size=20, max_learning_attempts=200,
                        saturation_tolerance=1e-8)
CUSTOM_RUNS = 10
CUSTOM_DIM = 30
CUSTOM_SUM = 10.0


@dataclass(frozen=True)
class Op:
    """One seeded solver run; ``floor`` bounds its feasible objective below
    and ``criterion`` names the acceptance criterion its batch must meet."""

    group: str
    problem: ProblemDefinition
    algorithm: Algorithm
    solver: object
    floor: float | None
    criterion: str | None = None


@dataclass
class Round:
    results: list               # RunResult per solver run, None where it raised
    ops: list                   # Op per solver run
    function_evaluations: int
    attempted: int
    failed: int
    faults: list = field(default_factory=list)   # messages of failed operations
    report_dir: Path | None = None
    # (group, FE, wall s, CPU s) per solver run that returned, in run order
    op_times: list = field(default_factory=list)


def timed(fn):
    """``fn`` and the list it appends (wall s, CPU s) of each call to."""
    times = []

    def call(*args, **kwargs):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = fn(*args, **kwargs)
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        return result

    return call, times


def interleave(*batches) -> list:
    """One run of each batch in turn, so that every batch's runs spread
    over the whole round rather than one stretch of it."""
    return [op for ops in itertools.zip_longest(*batches) for op in ops
            if op is not None]


def _batch(criterion, problem_id, algorithm, solver, base_seed):
    problem = suite.get_problem(problem_id)
    return [Op(f"{criterion} {problem_id} {algorithm.value}", problem, algorithm,
               replace(solver, seed=base_seed + i),
               checks.PUBLISHED_BEST[problem_id], criterion)
            for i in range(RUNS)]


class SolveWorkload:
    """Operations are ``solve_once`` calls through the public API."""

    def run_round(self, inputs, tracer, workdir) -> Round:
        ops = inputs["ops"]
        results, faults, op_times = [], [], []
        solve, times = timed(bench.solve_once)
        for op in ops:
            try:
                result = solve(tracer.problem(op.problem), op.algorithm, op.solver,
                               op.solver.seed)
            except Exception as exc:  # a faulted run is counted, the rest go on
                results.append(None)
                faults.append(f"{op.group} seed={op.solver.seed}: "
                              f"{type(exc).__name__}: {exc}")
                continue
            results.append(result)
            op_times.append((op.group, result.function_evaluations) + times[-1])
        fe = sum(r.function_evaluations for r in results if r is not None)
        return Round(results=results, ops=ops, function_evaluations=fe,
                     attempted=len(ops), failed=len(faults), faults=faults,
                     op_times=op_times)

    def check(self, inputs, rnd: Round) -> list[str]:
        errors = []
        batches: dict[str, list] = {}
        for op, result in zip(rnd.ops, rnd.results):
            if result is None:
                continue
            errors += checks.check_run(op.group, op.problem, op.solver, result, op.floor)
            if op.criterion:
                batches.setdefault(op.criterion, []).append(result)
        for criterion, results in batches.items():
            errors += checks.acceptance(criterion, results, inputs.get("oracle"))
        return errors


class AcceptCi(SolveWorkload):
    name = "accept-ci"

    def prepare(self, seed: int):
        base = RUNS * seed
        ops = interleave(
            _batch("A1", "RC08", Algorithm.CI_SAPF, CiConfig(
                cohort_size=5, variations_per_attempt=3,
                penalty=PenaltyConfig(near_zero_threshold=5.0, int_offset=5.0)), base),
            _batch("A2", "RC20", Algorithm.CI_SAPF,
                   CiConfig(variations_per_attempt=5), base),
            _batch("A4", "RC31", Algorithm.CI_SAPF, CiConfig(), base),
            _batch("A6", "RC17", Algorithm.CI_SAPF,
                   CiConfig(variations_per_attempt=5), base),
            _batch("A7", "RC32", Algorithm.CI_SAPF, CiConfig(
                variations_per_attempt=3, reduction_factor=0.98,
                penalty=PenaltyConfig(negative_mode=NegativeMode.SHIFT)), base))
        return {"ops": ops, "oracle": checks.gear_train_oracle()}


class AcceptCbo(SolveWorkload):
    name = "accept-cbo"

    def prepare(self, seed: int):
        base = RUNS * seed
        return {"ops": interleave(*(
            _batch(criterion, pid, Algorithm.CI_SAPF_CBO, CBO_PRECISE, base)
            for criterion, pid in (("A2", "RC20"), ("A3", "RC21"), ("A5", "RC18"))))}


def custom_problem(seed: int) -> tuple[ProblemDefinition, float]:
    """The user-defined ``custom-wide`` problem and its relaxation bound.

    minimize sum((x - c)**2) s.t. sum(x) >= 10 and
    sum(x[::2]) - sum(x[1::2]) <= 5, x in [-5, 5]**30, every third
    dimension integral, with the shift ``c`` drawn from the seed.
    Dropping the box, the integrality and the second constraint only
    lowers the optimum; what is left is a projection onto a half-space,
    whose value is D * lam**2 with lam = max(0, (10 - sum(c)) / D).
    """
    shift = np.random.default_rng(seed).uniform(-1.0, 1.0, CUSTOM_DIM)
    kinds = tuple(VarKind.INTEGER if i % 3 == 0 else VarKind.CONTINUOUS
                  for i in range(CUSTOM_DIM))
    problem = ProblemDefinition(
        id="CUSTOM30", name="shifted sphere above a hyperplane",
        dimension=CUSTOM_DIM,
        bounds=Bounds(np.full(CUSTOM_DIM, -5.0), np.full(CUSTOM_DIM, 5.0)),
        kinds=kinds,
        objective_fn=lambda x: float(np.sum((x - shift) ** 2)),
        inequality_fns=(
            lambda x: CUSTOM_SUM - float(np.sum(x)),
            lambda x: float(np.sum(x[::2]) - np.sum(x[1::2])) - 5.0,
        ))
    lam = max(0.0, (CUSTOM_SUM - float(shift.sum())) / CUSTOM_DIM)
    return problem, CUSTOM_DIM * lam * lam


class CustomWide(SolveWorkload):
    name = "custom-wide"

    def prepare(self, seed: int):
        problem, bound = custom_problem(seed)
        base = CUSTOM_RUNS * seed
        return {"ops": interleave(*(
            [Op(f"CUSTOM30 {algorithm.value}", problem, algorithm,
                replace(solver, seed=base + i), bound)
             for i in range(CUSTOM_RUNS)]
            for algorithm, solver in (
                (Algorithm.CI_SAPF, CiConfig()),
                (Algorithm.CI_SAPF_CBO, CboConfig(cohort_size=20,
                                                  max_learning_attempts=200)))))}


class SuiteCli:
    """``cohortopt suite`` for both engines at their CLI defaults.

    An operation is one seeded run, plus one for each report the CLI writes.
    """

    name = "suite-cli"
    ENGINES = ("ci-sapf", "ci-sapf-cbo")

    def prepare(self, seed: int):
        return {"base": RUNS * seed}

    def run_round(self, inputs, tracer, workdir) -> Round:
        main = tracer.wrap("cli.main", cli.main)
        captured = {}
        results, ops, failed, faults = [], [], 0, []
        run_experiment, solve_once = cli.run_experiment, bench.solve_once
        # run_experiment calls solve_once through cohortopt.bench
        bench.solve_once, times = timed(solve_once)

        def capture(cfg):
            outcomes = run_experiment(cfg)
            captured[cfg.algorithm.value] = (cfg, outcomes)
            return outcomes

        out_root = Path(tempfile.mkdtemp(prefix="suite-", dir=workdir))
        cli.run_experiment = capture
        try:
            for algo in self.ENGINES:
                argv = ["suite", "--algo", algo, "--runs", str(RUNS),
                        "--seed", str(inputs["base"]), "--out", str(out_root / algo)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    failed += len(checks.PUBLISHED_BEST) * RUNS + 1
                    faults.append(f"cohortopt {' '.join(argv)} exited {code}")
        finally:
            cli.run_experiment, bench.solve_once = run_experiment, solve_once
        for algo, (cfg, outcomes) in captured.items():
            for outcome in outcomes:
                for i, result in enumerate(outcome.results):
                    results.append(result)
                    # the record's definition: get_problem may be traced
                    ops.append(Op(f"{outcome.problem_id} {algo}",
                                  suite.get_record(outcome.problem_id).definition,
                                  outcome.algorithm,
                                  replace(cfg.solver, seed=cfg.base_seed + i),
                                  checks.PUBLISHED_BEST[outcome.problem_id]))
        fe = sum(r.function_evaluations for r in results)
        attempted = len(self.ENGINES) * (len(checks.PUBLISHED_BEST) * RUNS + 1)
        # the CLI runs engine by engine, problem by problem, seed by seed:
        # the order in which the captured results are listed
        op_times = [(op.group, result.function_evaluations) + t
                    for op, result, t in zip(ops, results, times)]
        return Round(results=results, ops=ops, function_evaluations=fe,
                     attempted=attempted, failed=failed, faults=faults,
                     report_dir=out_root, op_times=op_times)

    def check(self, inputs, rnd: Round) -> list[str]:
        errors = []
        if len(rnd.op_times) != len(rnd.results):
            errors.append(f"{len(rnd.op_times)} timed solver runs "
                          f"for {len(rnd.results)} results")
        for op, result in zip(rnd.ops, rnd.results):
            errors += checks.check_run(op.group, op.problem, op.solver, result, op.floor)
        for algo in self.ENGINES:
            by_problem = {}
            for op, result in zip(rnd.ops, rnd.results):
                if op.algorithm.value == algo:
                    by_problem.setdefault(op.problem.id, []).append(result)
            if sorted(by_problem) != sorted(checks.PUBLISHED_BEST):
                errors.append(f"{algo}: runs cover {sorted(by_problem)}")
                continue
            errors += checks.check_reports(rnd.report_dir / algo, by_problem, RUNS)
        return errors


WORKLOADS = {w.name: w for w in (AcceptCi(), AcceptCbo(), SuiteCli(), CustomWide())}
