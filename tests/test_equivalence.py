"""The array paths of the engines against their scalar references.

Each array step must give, element by element and bit for bit (signed
zeros included), what the scalar function gives one value at a time:
``phi_values`` vs ``score``, ``roulette_indices`` vs ``roulette_select``,
``evaluate_rows`` vs ``evaluate``, array ``shrink_interval`` vs Python's
``max``/``min`` and row-wise ``clip_to_bounds`` vs one point at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortopt import (
    EvalCounter,
    EvaluationFaultError,
    NegativeMode,
    PenaltyConfig,
    VarKind,
    clip_to_bounds,
    evaluate,
    evaluate_rows,
    phi_values,
    score,
    selection_probabilities,
    shrink_interval,
    suite,
)
from cohortopt.cohort import roulette_indices, roulette_select
from conftest import make_problem

INF = math.inf


def bits(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


@st.composite
def penalty_configs(draw):
    threshold = draw(st.sampled_from([1.0, 5.0, 1e-9, 0.5, 1e6]))
    return PenaltyConfig(
        near_zero_threshold=threshold,
        int_offset=threshold * draw(st.sampled_from([1.0, 2.0, 10.0])),
        infinity_substitute=draw(st.sampled_from([1.0, 1e-3, 1e9])),
        negative_mode=draw(st.sampled_from(list(NegativeMode))))


def objectives(threshold):
    near = [threshold, math.nextafter(threshold, -INF), math.nextafter(threshold, INF),
            threshold / 2]
    return st.one_of(
        st.sampled_from([INF, -INF, 0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324] + near),
        st.floats(allow_nan=False, allow_infinity=False))


violations = st.one_of(
    st.sampled_from([0.0, INF, 1e308, 5e-324, 1e-4]),
    st.floats(min_value=0.0, allow_nan=False))


class TestPhiValues:
    @settings(max_examples=300)
    @given(st.data())
    def test_equals_score_elementwise(self, data):
        cfg = data.draw(penalty_configs())
        pairs = data.draw(st.lists(
            st.tuples(objectives(cfg.near_zero_threshold), violations),
            min_size=1, max_size=12))
        f = np.array([p[0] for p in pairs])
        v = np.array([p[1] for p in pairs])
        expected = [score(fi, vi, cfg).phi for fi, vi in pairs]
        assert bits(phi_values(f, v, cfg)) == bits(expected)

    def test_every_branch_and_mode(self):
        f = np.array([INF, -INF, -3.0, 0.0, 0.5, 2.0, 1e308])
        v = np.array([2.0, INF, 0.5, INF, 1.0, 0.0, 1e308])
        for mode in NegativeMode:
            cfg = PenaltyConfig(negative_mode=mode)
            expected = [score(fi, vi, cfg).phi for fi, vi in zip(f.tolist(), v.tolist())]
            assert bits(phi_values(f, v, cfg)) == bits(expected)
            assert not np.isnan(phi_values(f, v, cfg)).any()


class TestRouletteIndices:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=25),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
    def test_equals_roulette_select(self, phis, draws):
        probs = selection_probabilities(phis)
        u = np.array(draws)
        expected = [roulette_select(probs, float(uk)) for uk in u]
        assert roulette_indices(probs, u).tolist() == expected

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=25))
    def test_draws_on_cumulative_boundaries(self, phis):
        probs = selection_probabilities(phis)
        # every partial sum exactly, as Python accumulates it, and just below
        edges, acc = [], 0.0
        for p in probs:
            acc += p
            edges += [acc, math.nextafter(acc, -INF)]
        u = np.array([e for e in edges if e < 1.0] + [0.0])
        expected = [roulette_select(probs, float(uk)) for uk in u]
        assert roulette_indices(probs, u).tolist() == expected

    def test_shortfall_returns_last(self):
        probs = np.array([0.3, 0.3, 0.3999999999])
        assert roulette_indices(probs, np.array([0.9999999999])).tolist() == [2]


def unit_rows(dimension):
    # k / 2**53 like the engines' uniform draws; 0 is left out because
    # some registry callables divide by zero at their lower bounds
    unit = st.integers(1, 2 ** 53 - 1).map(lambda k: k / 2 ** 53)
    return st.lists(st.lists(unit, min_size=dimension, max_size=dimension),
                    min_size=1, max_size=6)


class TestEvaluateRows:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([r.suite_id for r in suite.list_problems()]), st.data())
    def test_registry_rows_equal_evaluate(self, suite_id, data):
        problem = suite.get_problem(suite_id)
        unit = np.array(data.draw(unit_rows(problem.dimension)))
        bounds = problem.bounds
        points = clip_to_bounds(bounds.lower + unit * bounds.width, bounds,
                                problem.integer_index)
        f, v = evaluate_rows(problem, points)
        reference = [evaluate(problem, x) for x in points]
        assert bits(f) == bits([ev.objective for ev in reference])
        assert bits(v) == bits([ev.violation for ev in reference])

    @pytest.mark.parametrize("where", ["objective", "inequality", "equality"])
    def test_nan_fault_message_matches(self, where):
        nan_past_one = lambda x: math.nan if x[0] > 1.0 else 0.0  # noqa: E731
        problem = make_problem(
            dim=2,
            objective=nan_past_one if where == "objective" else None,
            inequality=(lambda x: -1.0, nan_past_one) if where == "inequality" else (),
            equality=(nan_past_one,) if where == "equality" else ())
        points = np.array([[0.5, 0.0], [1.5, 2.0]])
        with pytest.raises(EvaluationFaultError) as scalar:
            evaluate(problem, points[1])
        with pytest.raises(EvaluationFaultError) as rows:
            evaluate_rows(problem, points)
        assert str(rows.value) == str(scalar.value)

    def test_mutating_callable_cannot_alter_points(self):
        def scribble(x):
            value = float(x[0] + x[1])
            x[:] = 99.0
            return value

        problem = make_problem(dim=2, objective=scribble,
                               inequality=(lambda x: x[0] - 50.0,))
        points = np.array([[1.0, 2.0], [3.0, -4.0]])
        kept = points.copy()
        f, v = evaluate_rows(problem, points)
        assert np.array_equal(points, kept)
        reference = [evaluate(problem, x) for x in kept]
        assert f.tolist() == [ev.objective for ev in reference] == [3.0, -1.0]
        # the constraint sees the row the objective wrote into, as in evaluate
        assert v.tolist() == [ev.violation for ev in reference] == [49.0, 49.0]

    def test_counts_one_evaluation_per_row(self, sphere_problem):
        counter = EvalCounter()
        evaluate_rows(sphere_problem, np.zeros((4, 3)), counter)
        assert counter.count == 4


signed = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-10, 10))


class TestArrayShrinkAndClip:
    @given(st.lists(st.tuples(signed, st.sampled_from([0.0, 1.0, 2.5]),
                              st.sampled_from([0.0, -0.0, -3.0]),
                              st.sampled_from([0.0, -0.0, 4.0])),
                    min_size=1, max_size=20))
    def test_shrink_matches_python_max_min(self, rows):
        followed, width, lower, upper = (np.array(col) for col in zip(*rows))
        lo, hi = shrink_interval(followed, width, 0.9, lower, upper)
        expected_lo, expected_hi = [], []
        for fv, w, lb, ub in rows:
            half = 0.5 * w * 0.9
            expected_lo.append(max(lb, fv - half))
            expected_hi.append(min(ub, fv + half))
        assert bits(lo) == bits(expected_lo)
        assert bits(hi) == bits(expected_hi)

    @given(st.lists(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, -0.4, 0.5]),
                                       st.floats(-20, 20)),
                             min_size=3, max_size=3), min_size=1, max_size=8))
    def test_rows_clip_like_single_points(self, rows):
        problem = make_problem(
            dim=3, lower=-5.0, upper=0.0,
            kinds=(VarKind.INTEGER, VarKind.CONTINUOUS, VarKind.INTEGER))
        points = np.array(rows)
        together = clip_to_bounds(points, problem.bounds, problem.integer_index)
        one_by_one = []
        for x in points:   # the per-point, per-dimension reference
            out = np.clip(x, problem.bounds.lower, problem.bounds.upper)
            for i, kind in enumerate(problem.kinds):
                if kind is VarKind.INTEGER:
                    out[i] = np.rint(out[i])
            one_by_one.append(out)
        assert bits(together) == bits(one_by_one)
