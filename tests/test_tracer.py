"""Guard for the benchmark's external tracer (``perfbench/tracer.py``).

The tracer rebinds names in the package's modules where the engines look
them up. A refactor that renames one of those names, or binds it so that
the engines no longer look it up at call time, breaks ``--trace 1``
without failing any other test.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cohortopt import Algorithm, CboConfig, CiConfig, cli, suite
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


RUN_SPANS = {"ci-sapf": "cohort.ci_sapf_run", "ci-sapf-cbo": "collision.ci_sapf_cbo_run"}


def assert_spans_per_attempt(tracer, plain, step_span, initialisations=1):
    """The engines looked up every rebound name at call time: one run span
    for the one ``solve_once``, one step, saturation test and selection
    span per attempt (and one role assignment and position update for
    ci-sapf-cbo), and one clip per attempt and per cohort initialisation."""
    attempts = plain.learning_attempts
    cbo = step_span.startswith("collision.")
    assert tracer.calls[RUN_SPANS["ci-sapf-cbo" if cbo else "ci-sapf"]] == 1
    assert sum(tracer.calls[span] for span in RUN_SPANS.values()) == 1
    assert tracer.calls["collision.assign_roles"] == (attempts if cbo else 0)
    assert tracer.calls["collision.update_positions"] == (attempts if cbo else 0)
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


@pytest.mark.parametrize("algo", ["ci-sapf", "ci-sapf-cbo"])
def test_traced_cli_suite_matches_untraced(algo, tmp_path):
    """The benchmark's traced ``suite-cli`` path. ``cli.main`` turns an
    error into exit 1, so a traced run that fails inside the CLI shows
    only in its exit code and its reports."""
    def suite_run(out, tracer):
        argv = ["suite", "--algo", algo, "--runs", "2", "--max-fe", "60", "--out", str(out)]
        with tracer.installed():
            assert tracer.wrap("cli.main", cli.main)(argv) == 0
        problems = json.loads((out / "summary.json").read_text())["problems"]
        per_run = [(p["problem"], r["seed"], r["objective"], r["violation"],
                    r["function_evaluations"], r["learning_attempts"])
                   for p in problems for r in p["per_run"]]
        return per_run, len(list(out.iterdir()))

    plain = suite_run(tmp_path / "plain", tracing.NullTracer())
    first, second = tracing.Tracer(), tracing.Tracer()
    assert suite_run(tmp_path / "first", first) == plain
    assert suite_run(tmp_path / "second", second) == plain
    assert plain[1] == 2 + 2 * len(suite.list_problems())
    assert first.calls["cli.main"] == 1 and first.calls["bench.emit_report"] == 1
    assert dict(first.calls) == dict(second.calls)
    # one engine run per solve_once, and one summary per problem
    problems = len(suite.list_problems())
    assert first.calls[RUN_SPANS[algo]] == 2 * problems
    assert first.calls["bench.compute_statistics"] == problems
