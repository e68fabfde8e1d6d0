"""Guard for the benchmark's external tracer (``perfbench/tracer.py``).

The tracer rebinds names in the package's modules where the engines look
them up. A refactor that renames one of those names, or binds it so that
the engines no longer look it up at call time, breaks ``--trace 1``
without failing any other test.
"""

import importlib.util
from pathlib import Path

import pytest

from cohortopt import Algorithm, CboConfig, CiConfig, suite
from cohortopt.bench import solve_once
from conftest import make_problem
from test_golden import fingerprint

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_patch_point_resolves():
    for module, attr, _ in tracing.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


ENGINES = pytest.mark.parametrize("algorithm, solver, step_span", [
    (Algorithm.CI_SAPF, CiConfig(max_function_evaluations=300), "cohort.learning_attempt"),
    (Algorithm.CI_SAPF_CBO, CboConfig(max_function_evaluations=300),
     "collision.collision_state"),
], ids=["ci-sapf", "ci-sapf-cbo"])


def traced_and_plain(problem, algorithm, solver):
    plain = solve_once(problem, algorithm, solver, 0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = solve_once(tracer.problem(problem), algorithm, solver, 0)
    assert fingerprint(traced) == fingerprint(plain)
    return tracer, plain


def assert_spans_per_attempt(tracer, plain, step_span, initialisations=1):
    """The engines looked up every rebound name at call time: one step,
    saturation test and selection span per attempt, and one clip per
    attempt and per cohort initialisation."""
    attempts = plain.learning_attempts
    assert tracer.calls[step_span] == attempts
    assert tracer.calls["cohort.run_saturated"] == attempts
    assert tracer.calls["cohort.selection_probabilities"] == attempts
    assert tracer.calls["cohort.initialize_cohort"] == initialisations
    assert tracer.calls["problem.clip_to_bounds"] == attempts + initialisations


@ENGINES
def test_traced_run_is_bit_identical(algorithm, solver, step_span):
    tracer, plain = traced_and_plain(suite.get_problem("RC20"), algorithm, solver)
    assert_spans_per_attempt(tracer, plain, step_span)
    # registry problems are evaluated through point_fn, which is not wrapped
    assert tracer.calls["suite.fn"] == 0


@ENGINES
def test_scalar_callables_traced_once_per_evaluation(algorithm, solver, step_span):
    problem = make_problem(dim=2, inequality=(
        lambda x: x[0] - 1.0, lambda x: -x[1], lambda x: x[0] + x[1] - 3.0))
    tracer, plain = traced_and_plain(problem, algorithm, solver)
    assert_spans_per_attempt(tracer, plain, step_span)
    assert tracer.calls["suite.fn"] == 4 * plain.function_evaluations


def test_restarts_clip_once_per_initialisation(floor_problem):
    solver = CiConfig(max_function_evaluations=600, restart_on_saturation=True,
                      saturation_window=5, saturation_tolerance=5e-2)
    tracer, plain = traced_and_plain(floor_problem, Algorithm.CI_SAPF, solver)
    restarts = (plain.function_evaluations - solver.cohort_size) // solver.cohort_size \
        - plain.learning_attempts
    assert restarts >= 1
    assert_spans_per_attempt(tracer, plain, "cohort.learning_attempt", 1 + restarts)
