"""The engines' list and array steps against their references.

Each step must give, element by element and bit for bit (signed zeros
included), what its reference gives: ``score_phis`` vs ``score`` and the
array ``phi_values``; ``selection_probabilities``, ``roulette_picks``,
``assign_roles``, ``collision_state`` and ``learning_attempt`` vs their
numpy twins in ``array_twins.py`` (and ``roulette_select``);
``pairwise_sum`` vs ``np.add.reduce``; ``evaluate_rows`` vs the raw
callables' sums ``array_twins.evaluation`` (and ``evaluate``); array
``shrink_interval`` vs Python's ``max``/``min``; and row-wise
``clip_to_bounds`` vs one point at a time.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import array_twins
from cohortopt import (
    CiConfig,
    EvaluationFaultError,
    NegativeMode,
    PenaltyConfig,
    VarKind,
    suite,
)
from cohortopt.problem import (
    EvalCounter,
    clip_to_bounds,
    evaluate,
    evaluate_rows,
    integer_index,
    make_rng,
)
from cohortopt.penalty import score, score_phis
from cohortopt.cohort import (
    Cohort,
    incumbent_key,
    initialize_cohort,
    learning_attempt,
    offer,
    pairwise_sum,
    roulette_picks,
    roulette_select,
    selection_probabilities,
    shrink_interval,
)
from cohortopt.collision import CboConfig, assign_roles, collision_attempt, collision_state
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
            min_size=1, max_size=40))
        f = [p[0] for p in pairs]
        v = [p[1] for p in pairs]
        phis = score_phis(f, v, cfg)
        assert all(type(phi) is float for phi in phis)
        assert bits(phis) == bits([score(fi, vi, cfg).phi for fi, vi in pairs])
        assert bits(phis) == bits(array_twins.phi_values(np.array(f), np.array(v), cfg))

    def test_every_branch_and_mode(self):
        f = [INF, -INF, -3.0, 0.0, -0.0, 0.5, 2.0, 1e308, -1e308]
        v = [2.0, INF, 0.5, INF, 1.0, 1.0, 0.0, 1e308, 1e308]
        for mode in NegativeMode:
            cfg = PenaltyConfig(negative_mode=mode)
            phis = score_phis(f, v, cfg)
            assert bits(phis) == bits([score(fi, vi, cfg).phi for fi, vi in zip(f, v)])
            assert bits(phis) == bits(array_twins.phi_values(np.array(f), np.array(v), cfg))
            assert not any(math.isnan(phi) for phi in phis)


# phis as the penalty produces them: finite of either sign, zeros, +inf,
# subnormals whose inverse overflows, tiny normals whose inverses
# overflow only their sum, and huge magnitudes
phi_floats = st.one_of(
    st.sampled_from([0.0, -0.0, INF, 5e-324, 1e-310, 1.1125369292536007e-308,
                     1e308, -1e308, 1.0, 2.0]),
    st.floats(-1e12, 1e12, allow_nan=False),
    st.floats(min_value=0.0, allow_nan=False))


class TestSelectionProbabilities:
    @settings(max_examples=400)
    @given(st.lists(phi_floats, min_size=1, max_size=40))
    def test_equals_array_twin(self, phis):
        probs = selection_probabilities(phis)
        assert all(type(p) is float for p in probs)
        assert bits(probs) == bits(array_twins.selection_probabilities(phis))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_pairwise_sum_regime(self, seed):
        # numpy adds under 8 terms left to right, up to 128 in eight
        # interleaved accumulators and more in halves: sizes 1-300 cross
        # the 8, 128 and 256-term boundaries
        rng = make_rng(seed)
        for size in range(1, 301):
            phis = rng.uniform(1e-3, 1e3, size).tolist()
            assert bits(selection_probabilities(phis)) == bits(
                array_twins.selection_probabilities(phis)), size
            # magnitudes over 40 decades, where every grouping rounds apart
            values = (10.0 ** rng.uniform(-20.0, 20.0, size)).tolist()
            assert pairwise_sum(values).hex() == float(np.add.reduce(values)).hex(), size

    @pytest.mark.parametrize("phis", [
        [INF] * 4, [1e-310, 5.0, 1e-310], [1.1125369292536007e-308] * 2,
        [-1.0, 1.0], [0.0, -0.0, 3.0],
        # 1/phi sums that overflow in the eight accumulators and in halves
        [1.1125369292536007e-308] * 8, [1.1125369292536007e-308] * 2 + [1.0] * 9,
        [4e-307] * 129, [1.0] * 200 + [1.1125369292536007e-308] * 2 + [3.0] * 60])
    def test_special_regimes(self, phis):
        assert bits(selection_probabilities(phis)) == bits(
            array_twins.selection_probabilities(phis))


class TestRouletteIndices:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
    def test_equals_roulette_select(self, phis, draws):
        probs = selection_probabilities(phis)
        expected = [roulette_select(probs, u) for u in draws]
        assert roulette_picks(probs, draws) == expected
        assert array_twins.roulette_indices(np.array(probs), np.array(draws)).tolist() \
            == expected

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40))
    def test_draws_on_cumulative_boundaries(self, phis):
        probs = selection_probabilities(phis)
        # every partial sum exactly, as numpy's cumsum gives it, and just below
        edges = []
        for acc in np.cumsum(probs).tolist():
            edges += [acc, math.nextafter(acc, -INF)]
        u = [e for e in edges if e < 1.0] + [0.0]
        expected = [roulette_select(probs, uk) for uk in u]
        assert roulette_picks(probs, u) == expected
        assert array_twins.roulette_indices(np.array(probs), np.array(u)).tolist() \
            == expected

    def test_shortfall_returns_last(self):
        probs = [0.3, 0.3, 0.3999999999]
        assert roulette_picks(probs, [0.9999999999]) == [2]


def cohort_of(objective, violation, phi):
    n = len(phi)
    positions = np.arange(float(n))[:, None]
    return Cohort(positions, list(objective), list(violation), list(phi),
                  interval_width=np.zeros_like(positions))


tie_values = st.sampled_from([0.0, -0.0, INF, -INF, 1.0, -1.0, 2.0])


class TestRankOrder:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(tie_values, st.sampled_from([0.0, 1.0, 2.0, INF]),
                              tie_values), min_size=2, max_size=40))
    def test_equals_lexsort_on_ties(self, rows):
        # assign_roles ranks even cohorts only
        rows = rows[:len(rows) - len(rows) % 2]
        objective, violation, phi = (list(col) for col in zip(*rows))
        cohort = cohort_of(objective, violation, phi)
        expected = array_twins.rank_order(objective, violation, phi).tolist()
        assert assign_roles(cohort) == expected
        best = offer(None, cohort)
        assert best.position.tolist() == [float(expected[0])]
        assert bits([best.objective, best.violation, best.phi]) == bits(
            [objective[expected[0]], violation[expected[0]], phi[expected[0]]])


class TestCollisionState:
    @settings(max_examples=200)
    @given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1), st.data())
    def test_equals_array_twin(self, pairs, seed, data):
        rng = make_rng(seed)
        ranked = rng.uniform(-2.0, 2.0, (2 * pairs, 3))
        # signed zeros in the offsets, and pairs with both masses zero
        ranked[rng.random(ranked.shape) < 0.2] = -0.0
        masses = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1e-300, 0.5]),
                                    min_size=2 * pairs, max_size=2 * pairs))
        eps = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        assert bits(collision_state(ranked, masses, eps)) == bits(
            array_twins.collision_state(ranked, np.array(masses), eps))


class TestLearningAttempt:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(list(NegativeMode)))
    def test_equals_array_twin_with_ties(self, cohort_size, variations, seed, mode):
        # a coarse objective and constraint make equal phis common
        problem = make_problem(
            dim=2, lower=-2.0, upper=2.0,
            kinds=(VarKind.INTEGER, VarKind.CONTINUOUS),
            objective=lambda x: float(x[0]) * 0.0 if x[1] > 0 else float(x[0]),
            inequality=(lambda x: float(round(x[1])),))
        cfg = CiConfig(cohort_size=cohort_size, variations_per_attempt=variations,
                       penalty=PenaltyConfig(negative_mode=mode))
        cohort = initialize_cohort(problem, cfg, make_rng(seed), EvalCounter())
        new = learning_attempt(cohort, problem, cfg, make_rng(seed + 1), EvalCounter())
        twin = array_twins.learning_attempt(
            cohort.positions, cohort.interval_width,
            np.array(cohort.phi), problem, cfg, make_rng(seed + 1), EvalCounter())
        ours = (new.positions, new.objective, new.violation, new.phi, new.interval_width)
        for mine, theirs in zip(ours, twin):
            assert bits(mine) == bits(theirs)


class TestCohortKeys:
    @pytest.mark.parametrize("engine", ["ci-sapf", "ci-sapf-cbo"])
    def test_cached_keys_equal_incumbent_key_after_every_step(self, engine):
        # a coarse objective and constraint: equal, feasible, infeasible
        # and signed-zero values all occur
        problem = make_problem(
            dim=2, lower=-2.0, upper=2.0, kinds=(VarKind.INTEGER, VarKind.CONTINUOUS),
            objective=lambda x: -0.0 if x[1] > 0 else float(x[0]),
            inequality=(lambda x: float(round(x[1])),))
        if engine == "ci-sapf":
            cfg, step = CiConfig(cohort_size=6, variations_per_attempt=2), learning_attempt
        else:
            cfg, step = CboConfig(cohort_size=6), collision_attempt
        rng, counter = make_rng(7), EvalCounter()
        cohort = initialize_cohort(problem, cfg, rng, counter)
        for attempt in range(30):
            expected = list(map(incumbent_key, cohort.objective, cohort.violation, cohort.phi))
            assert cohort.keys == expected and repr(cohort.keys) == repr(expected)
            cohort = step(cohort, problem, cfg, rng, counter, attempt)


def unit_rows(dimension):
    # k / 2**53 like the engines' uniform draws; 0 is left out because
    # some registry callables divide by zero at their lower bounds
    unit = st.integers(1, 2 ** 53 - 1).map(lambda k: k / 2 ** 53)
    return st.lists(st.lists(unit, min_size=dimension, max_size=dimension),
                    min_size=1, max_size=6)


def assert_raw_sums(problem, points, objective, violation):
    """``evaluate_rows``' lists equal the raw callables' sums bit for bit."""
    raw_f, raw_v = zip(*(array_twins.evaluation(problem, x) for x in points))
    assert bits(objective) == bits(raw_f)
    assert bits(violation) == bits(raw_v)


constraint_values = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-4, -1e-4]),
                                      st.floats(-10, 10)), max_size=5)


class TestEvaluateRows:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([r.suite_id for r in suite.list_problems()]), st.data())
    def test_registry_rows_equal_evaluate(self, suite_id, data):
        problem = suite.get_problem(suite_id)
        unit = np.array(data.draw(unit_rows(problem.dimension)))
        bounds = problem.bounds
        points = clip_to_bounds(bounds.lower + unit * bounds.width, bounds,
                                integer_index(problem.kinds))
        f, v = evaluate_rows(problem, points)
        assert all(type(value) is float for value in f + v)
        reference = [evaluate(problem, x) for x in points]
        assert bits(f) == bits([ev.objective for ev in reference])
        assert bits(v) == bits([ev.violation for ev in reference])
        # the registry's point_fn against its own scalar callables
        assert_raw_sums(problem, points, f, v)

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

    @pytest.mark.parametrize("where, message", [
        ("objective", "objective of 'toy'"),
        ("inequality", "inequality constraint 1 of 'toy'"),
        ("equality", "equality constraint 0 of 'toy'"),
    ])
    def test_point_fn_nan_fault_message_matches(self, where, message):
        def point(x):
            nan = math.nan if x[0] > 1.0 else 0.0
            # f = inf and g0 = -inf flag a row's NaN screen without any NaN
            return (nan if where == "objective" else math.inf,
                    (-math.inf, nan if where == "inequality" else 0.0),
                    (nan if where == "equality" else 0.0,))

        zero = lambda x: 0.0  # noqa: E731
        problem = replace(make_problem(dim=2, inequality=(zero, zero), equality=(zero,)),
                          point_fn=point)
        points = np.array([[0.5, 0.0], [1.5, 2.0]])
        assert evaluate_rows(problem, points[:1])[1] == [0.0]
        with pytest.raises(EvaluationFaultError) as scalar:
            evaluate(problem, points[1])
        with pytest.raises(EvaluationFaultError) as rows:
            evaluate_rows(problem, points)
        assert str(rows.value) == str(scalar.value) == f"{message} returned NaN at [1.5, 2.0]"

    @pytest.mark.parametrize("f, g_values, h_values", [
        # numpy scalars and ints come back as Python floats
        (np.float64(2.5), (np.float64(-1.0), np.float64(0.25)), (np.float64(0.5),)),
        (3, (2, -1), (0, 1)),
        # a -0.0 g and |h| == eps exactly add nothing
        (1.0, (-0.0, 0.0, -1.0), (1e-4, -1e-4)),
        # inf and -inf together are not a NaN
        (math.inf, (-math.inf, math.inf), (-math.inf,)),
        (-math.inf, (-math.inf, 1.0), (math.inf, 2.0)),
    ])
    @pytest.mark.parametrize("path", ["point_fn", "callables"])
    def test_edge_values_equal_evaluate(self, f, g_values, h_values, path):
        problem = make_problem(
            dim=2, objective=lambda x: f,
            inequality=[lambda x, g=g: g for g in g_values],
            equality=[lambda x, h=h: h for h in h_values])
        if path == "point_fn":
            problem = replace(problem, point_fn=lambda x: (f, g_values, h_values))
        points = np.array([[0.5, 0.0], [1.5, 2.0]])
        objective, violation = evaluate_rows(problem, points)
        assert all(type(value) is float for value in objective + violation)
        reference = [evaluate(problem, x) for x in points]
        assert bits(objective) == bits([ev.objective for ev in reference])
        assert bits(violation) == bits([ev.violation for ev in reference])
        assert_raw_sums(problem, points, objective, violation)
        if f == 1.0:
            assert bits(violation) == bits([0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(constraint_values, constraint_values, st.sampled_from([1e-4, 0.5]),
           st.sampled_from(["point_fn", "callables"]))
    def test_random_values_equal_raw_sum(self, g_values, h_values, eps, path):
        # each value scaled by the row's first coordinate, so rows differ
        problem = replace(make_problem(
            dim=2, objective=lambda x: 2.0 * x[0],
            inequality=[lambda x, g=g: g * x[0] for g in g_values],
            equality=[lambda x, h=h: h * x[0] for h in h_values]), equality_tolerance=eps)
        if path == "point_fn":
            problem = replace(problem, point_fn=lambda x: (
                2.0 * x[0], [g * x[0] for g in g_values], [h * x[0] for h in h_values]))
        points = np.array([[0.5, 0.0], [1.5, 2.0], [-3.0, 1.0]])
        objective, violation = evaluate_rows(problem, points)
        assert_raw_sums(problem, points, objective, violation)

    def test_point_fn_nan_message_names_the_first_nan(self):
        # NaN in an equality and in a later inequality: the inequality is
        # named, as evaluate names it
        problem = replace(make_problem(dim=2), point_fn=lambda x: (
            1.0, (2.0, -math.inf, math.nan), (math.nan,)))
        with pytest.raises(EvaluationFaultError) as scalar:
            evaluate(problem, np.zeros(2))
        with pytest.raises(EvaluationFaultError) as rows:
            evaluate_rows(problem, np.zeros((1, 2)))
        assert str(rows.value) == str(scalar.value) == (
            "inequality constraint 2 of 'toy' returned NaN at [0.0, 0.0]")

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
        assert f == [ev.objective for ev in reference] == [3.0, -1.0]
        # the constraint sees the row the objective wrote into, as in evaluate
        assert v == [ev.violation for ev in reference] == [49.0, 49.0]

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
        together = clip_to_bounds(points, problem.bounds, integer_index(problem.kinds))
        one_by_one = []
        for x in points:   # the per-point, per-dimension reference
            out = np.clip(x, problem.bounds.lower, problem.bounds.upper)
            for i, kind in enumerate(problem.kinds):
                if kind is VarKind.INTEGER:
                    out[i] = np.rint(out[i])
            one_by_one.append(out)
        assert bits(together) == bits(one_by_one)
