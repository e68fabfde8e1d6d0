"""Golden outputs: seeded runs of both engines pinned bit for bit.

Every case is a (problem, engine, config) triple whose RunResult is
recorded in ``golden_runs.json``: the incumbent's position, objective,
violation and phi as float hex strings, the feasibility flag, the FE and
attempt counts, and a SHA-256 digest of the whole trace. A refactor that
keeps a seeded run a pure function of (problem, config, seed) leaves
every entry unchanged.

Regenerate (only when a change of results is intended, and name every
changed case in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cohortopt import (
    Algorithm,
    Bounds,
    CboConfig,
    CiConfig,
    NegativeMode,
    PenaltyConfig,
    VarKind,
    suite,
)
from cohortopt.bench import solve_once
from conftest import make_problem

GOLDEN = Path(__file__).with_name("golden_runs.json")
SEEDS = (0, 1, 2)
SMALL_CI = CiConfig(max_function_evaluations=400)
SMALL_CBO = CboConfig(max_function_evaluations=400)


def _zero_width_integer():
    # dimension 0 is an integer pinned at 2; dimension 2 is an integer range
    problem = make_problem(
        dim=3, kinds=(VarKind.INTEGER, VarKind.CONTINUOUS, VarKind.INTEGER),
        objective=lambda x: float((x[0] - 1.0) ** 2 + x[1] ** 2 + (x[2] - 0.4) ** 2),
        inequality=(lambda x: 0.5 - x[1] - x[2],), pid="ZW")
    lower = problem.bounds.lower.copy()
    upper = problem.bounds.upper.copy()
    lower[0] = upper[0] = 2.0
    return replace(problem, bounds=Bounds(lower, upper))


def _infinite_outputs():
    def objective(x):
        if x[0] > 2.0:
            return math.inf
        if x[0] < -4.0:
            return -math.inf
        return float(np.sum(x ** 2))

    def constraint(x):
        return math.inf if x[1] > 3.0 else 1.0 - x[0] - x[1]

    return make_problem(dim=2, objective=objective, inequality=(constraint,),
                        pid="INF")


def _equality_only():
    return make_problem(
        dim=2, equality=(lambda x: x[0] + x[1] - 1.0, lambda x: x[0] - x[1] ** 2),
        pid="EQ")


def cases():
    """(name, problem, algorithm, solver config with its seed)."""
    out = []
    for record in suite.list_problems():
        problem = suite.get_problem(record.suite_id)
        for seed in SEEDS:
            out.append((f"{problem.id}-ci-{seed}", problem, Algorithm.CI_SAPF,
                        SMALL_CI, seed))
            out.append((f"{problem.id}-cbo-{seed}", problem, Algorithm.CI_SAPF_CBO,
                        SMALL_CBO, seed))
    floor = make_problem(dim=1, inequality=(lambda x: 1.0 - x[0],), pid="floor")
    shift = PenaltyConfig(negative_mode=NegativeMode.SHIFT)
    edges = [
        ("restart", floor, Algorithm.CI_SAPF,
         CiConfig(max_function_evaluations=600, max_learning_attempts=500,
                  restart_on_saturation=True, saturation_window=5,
                  saturation_tolerance=5e-2), 3),
        ("t4-RC15", suite.get_problem("RC15"), Algorithm.CI_SAPF,
         CiConfig(cohort_size=7, variations_per_attempt=4,
                  max_function_evaluations=600), 4),
        ("cbo20-RC19", suite.get_problem("RC19"), Algorithm.CI_SAPF_CBO,
         CboConfig(cohort_size=20, max_learning_attempts=200,
                   max_function_evaluations=800), 5),
        ("shift-RC32-ci", suite.get_problem("RC32"), Algorithm.CI_SAPF,
         CiConfig(variations_per_attempt=3, reduction_factor=0.98, penalty=shift,
                  max_function_evaluations=600), 6),
        ("shift-RC32-cbo", suite.get_problem("RC32"), Algorithm.CI_SAPF_CBO,
         CboConfig(penalty=shift, max_function_evaluations=600), 6),
    ]
    for name, problem in (("zero-width", _zero_width_integer()),
                          ("inf", _infinite_outputs()),
                          ("equality", _equality_only())):
        edges.append((f"{name}-ci", problem, Algorithm.CI_SAPF,
                      CiConfig(variations_per_attempt=2, max_learning_attempts=150), 7))
        edges.append((f"{name}-cbo", problem, Algorithm.CI_SAPF_CBO,
                      CboConfig(max_learning_attempts=150), 7))
    return out + edges


def _hex(value) -> str:
    return float(value).hex()


def fingerprint(result) -> dict:
    trace = "\n".join(f"{r.attempt},{_hex(r.best_phi)},{_hex(r.best_f)},"
                      f"{_hex(r.best_violation)}" for r in result.trace)
    return {
        "best_position": [_hex(v) for v in result.best_position],
        "best_objective": _hex(result.best_objective),
        "best_violation": _hex(result.best_violation),
        "best_phi": _hex(result.best_phi),
        "feasible": bool(result.feasible),
        "function_evaluations": result.function_evaluations,
        "learning_attempts": result.learning_attempts,
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
    }


def run_case(problem, algorithm, solver, seed) -> dict:
    return fingerprint(solve_once(problem, algorithm, solver, seed))


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name,problem,algorithm,solver,seed", CASES,
                         ids=[case[0] for case in CASES])
def test_run_matches_golden(golden, name, problem, algorithm, solver, seed):
    assert run_case(problem, algorithm, solver, seed) == golden[name]


if __name__ == "__main__":
    pinned = {name: run_case(problem, algorithm, solver, seed)
              for name, problem, algorithm, solver, seed in CASES}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} runs in {GOLDEN}")
