"""Whole runs of both engines over generated problems.

Hypothesis builds adversarial problems: infinite and huge objective and
constraint values, zero-width (``lower == upper``) dimensions, integer
dimensions and equality-only constraint sets, evaluated through scalar
callables or through a ``point_fn``. Every run at a small budget must
keep the method's invariants: the best position lies in the box with
integral integer dimensions, FE follows the engine's formula exactly,
``best_phi`` is never NaN, ``feasible`` is ``best_violation == 0`` and the
trace holds one record per attempt.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cohortopt import (
    Algorithm,
    Bounds,
    CboConfig,
    CiConfig,
    NegativeMode,
    PenaltyConfig,
    ProblemDefinition,
    VarKind,
)
from cohortopt.bench import solve_once
from cohortopt.problem import integer_index

SCALES = [1.0, 1e-300, 1e150, 1e300, 1e308]
EXTREMES = [math.inf, -math.inf, 1e308, -1e308]


# Evaluators read x[k] as Python floats, so huge products overflow to inf
# without a numpy warning and no term combines +inf with -inf (no NaN).
def sphere(scale, centre):
    def fn(x):
        return scale * sum((float(v) - c) * (float(v) - c) for v, c in zip(x, centre))
    return fn


def linear(scale, k, t):
    return lambda x: scale * (float(x[k]) - t)


def cliff(k, t, value):
    return lambda x: value if float(x[k]) > t else float(x[k]) - t


@st.composite
def boxes(draw):
    """(bounds, kinds) of 1 to 4 dimensions, each possibly zero-width."""
    lower, upper, kinds = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lo = float(draw(st.integers(-50, 50)))
            width = float(draw(st.sampled_from([0, 1, 7, 20])))
            kinds.append(VarKind.INTEGER)
        else:
            lo = draw(st.floats(-1e3, 1e3))
            width = draw(st.sampled_from([0.0, 1e-9, 1.0, 1e3]))
            kinds.append(VarKind.CONTINUOUS)
        lower.append(lo)
        upper.append(lo + width)
    return Bounds(np.array(lower), np.array(upper)), tuple(kinds)


@st.composite
def problems(draw):
    bounds, kinds = draw(boxes())
    dim = len(kinds)

    def inside(k):
        return float(bounds.lower[k] + draw(st.floats(0.0, 1.0)) * bounds.width[k])

    def term(shapes):
        k = draw(st.integers(0, dim - 1))
        shape = draw(st.sampled_from(shapes))
        if shape == "sphere":
            return sphere(draw(st.sampled_from(SCALES)), [inside(j) for j in range(dim)])
        if shape == "linear":
            return linear(draw(st.sampled_from(SCALES)), k, inside(k))
        return cliff(k, inside(k), draw(st.sampled_from(EXTREMES)))

    objective = term(["sphere", "linear", "cliff"])
    equality_only = draw(st.booleans())
    inequality = () if equality_only else tuple(
        term(["linear", "cliff"]) for _ in range(draw(st.integers(0, 2))))
    equality = tuple(term(["linear", "cliff"])
                     for _ in range(draw(st.integers(int(equality_only), 2))))
    point_fn = None
    if draw(st.booleans()):
        def point_fn(x):
            return (objective(x), [fn(x) for fn in inequality],
                    [fn(x) for fn in equality])
    return ProblemDefinition(
        id="fuzz", name="fuzz", dimension=dim, bounds=bounds, kinds=kinds,
        objective_fn=objective, inequality_fns=inequality, equality_fns=equality,
        point_fn=point_fn)


@st.composite
def solvers(draw):
    penalty = PenaltyConfig(negative_mode=draw(st.sampled_from(list(NegativeMode))))
    ci = draw(st.booleans())
    cohort_size = draw(st.integers(2, 6)) if ci else 2 * draw(st.integers(1, 4))
    # a budget below cohort_size cannot pay for the first cohort: the
    # configs reject it
    budgets = dict(cohort_size=cohort_size,
                   max_learning_attempts=draw(st.integers(1, 12)),
                   max_function_evaluations=draw(st.integers(cohort_size, 150)),
                   saturation_window=draw(st.integers(2, 6)), penalty=penalty)
    if ci:
        return Algorithm.CI_SAPF, CiConfig(
            variations_per_attempt=draw(st.integers(1, 3)),
            reduction_factor=draw(st.sampled_from([0.5, 0.9, 0.99])), **budgets)
    return Algorithm.CI_SAPF_CBO, CboConfig(**budgets)


@settings(max_examples=300, deadline=None)
@given(problems(), solvers(), st.integers(0, 2 ** 32 - 1))
def test_run_invariants(problem, solver, seed):
    algorithm, cfg = solver
    result = solve_once(problem, algorithm, cfg, seed)

    x = np.asarray(result.best_position, dtype=float)
    assert problem.bounds.contains(x)
    integers = x[integer_index(problem.kinds)]
    assert np.array_equal(integers, np.rint(integers))

    c, attempts = cfg.cohort_size, result.learning_attempts
    per_attempt = c * cfg.variations_per_attempt if algorithm is Algorithm.CI_SAPF else c
    assert result.function_evaluations == c + attempts * per_attempt

    assert not math.isnan(result.best_phi)
    assert result.feasible == (result.best_violation == 0.0)
    assert [rec.attempt for rec in result.trace] == list(range(1, attempts + 1))
