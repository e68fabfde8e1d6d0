import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortopt import (
    Bounds,
    ConstraintEvaluation,
    DimensionMismatchError,
    EvalCounter,
    EvaluationFaultError,
    VarKind,
    clip_to_bounds,
    equality_violation,
    evaluate,
    integer_index,
    make_rng,
    suite,
    total_violation,
)
from conftest import make_problem


class TestEvaluate:
    def test_himmelblau_known_optimum(self):
        problem = suite.get_problem("RC32")
        x = np.array([78.0, 33.0, 29.9952560256815985, 45.0, 36.7758129057882073])
        ev = evaluate(problem, x)
        assert ev.objective == pytest.approx(-30665.538672, abs=1e-5)
        assert ev.feasible

    def test_three_bar_truss_oversized_is_feasible(self):
        problem = suite.get_problem("RC20")
        ev = evaluate(problem, np.array([1.0, 1.0]))
        assert ev.feasible
        assert ev.objective > 263.896

    def test_gear_train_known_best(self):
        problem = suite.get_problem("RC31")
        ev = evaluate(problem, np.array([49.0, 19.0, 43.0, 16.0]))
        assert ev.objective == pytest.approx(2.7009e-12, rel=1e-4)

    def test_counter_increments_once_per_call(self, sphere_problem):
        counter = EvalCounter()
        evaluate(sphere_problem, np.zeros(3), counter)
        evaluate(sphere_problem, np.ones(3), counter)
        assert counter.count == 2

    def test_dimension_mismatch(self, sphere_problem):
        with pytest.raises(DimensionMismatchError):
            evaluate(sphere_problem, np.zeros(2))

    def test_nan_objective_is_a_fault(self):
        problem = make_problem(dim=1, objective=lambda x: float("nan"))
        with pytest.raises(EvaluationFaultError):
            evaluate(problem, np.zeros(1))

    def test_nan_constraint_is_a_fault(self):
        problem = make_problem(dim=1, inequality=(lambda x: float("nan"),))
        with pytest.raises(EvaluationFaultError):
            evaluate(problem, np.zeros(1))

    def test_infinite_objective_passes_through(self):
        problem = make_problem(dim=1, objective=lambda x: float("inf"))
        ev = evaluate(problem, np.zeros(1))
        assert math.isinf(ev.objective)

    def test_integer_dims_rounded_before_evaluators(self):
        seen = []
        problem = make_problem(dim=1, lower=0, upper=10,
                               kinds=(VarKind.INTEGER,),
                               objective=lambda x: seen.append(x[0]) or float(x[0]))
        evaluate(problem, np.array([3.6]))
        assert seen == [4.0]

    def test_feasible_iff_zero_violation(self, floor_problem):
        rng = make_rng(7)
        for _ in range(300):
            x = rng.uniform(-5, 5, 1)
            ev = evaluate(floor_problem, x)
            assert ev.feasible == (ev.violation == 0.0)


class TestEqualityViolation:
    def test_inside_relaxation_band(self):
        assert equality_violation(5e-5, 1e-4) == 0.0

    def test_above_band(self):
        assert equality_violation(2e-4, 1e-4) == pytest.approx(1e-4)

    def test_negative_h_uses_magnitude(self):
        assert equality_violation(-3e-4, 1e-4) == pytest.approx(2e-4)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            equality_violation(0.1, 0.0)

    @given(st.floats(-1e6, 1e6), st.floats(1e-10, 10.0))
    def test_even_in_h(self, h, eps):
        assert equality_violation(h, eps) == equality_violation(-h, eps)


class TestTotalViolation:
    def test_satisfied_inequalities(self):
        c = ConstraintEvaluation((-1.0, -0.5), ())
        assert total_violation(c, 1e-4) == 0.0

    def test_mixed(self):
        c = ConstraintEvaluation((0.3, -2.0), (1.5e-4,))
        assert total_violation(c, 1e-4) == pytest.approx(0.30005, rel=1e-12)

    def test_exact_equalities(self):
        c = ConstraintEvaluation((), (0.0, 0.0))
        assert total_violation(c, 1e-4) == 0.0

    @given(st.floats(0.001, 100.0), st.floats(0.001, 10.0))
    def test_monotone_in_a_positive_g(self, g, bump):
        base = ConstraintEvaluation((g, -1.0), ())
        bigger = ConstraintEvaluation((g + bump, -1.0), ())
        assert total_violation(bigger, 1e-4) > total_violation(base, 1e-4)


class TestClipToBounds:
    BOUNDS = Bounds(np.array([0.0]), np.array([1.0]))

    def test_clamp_to_upper(self):
        out = clip_to_bounds(np.array([1.5]), self.BOUNDS, integer_index((VarKind.CONTINUOUS,)))
        assert out[0] == 1.0

    def test_identity_inside(self):
        out = clip_to_bounds(np.array([0.4]), self.BOUNDS, integer_index((VarKind.CONTINUOUS,)))
        assert out[0] == 0.4

    def test_integer_rounding(self):
        bounds = Bounds(np.array([12.0]), np.array([60.0]))
        out = clip_to_bounds(np.array([14.6]), bounds, integer_index((VarKind.INTEGER,)))
        assert out[0] == 15.0

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=2))
    def test_idempotent(self, values):
        bounds = Bounds(np.array([-3.0, 10.0]), np.array([3.0, 20.0]))
        kinds = integer_index((VarKind.CONTINUOUS, VarKind.INTEGER))
        once = clip_to_bounds(np.array(values), bounds, kinds)
        twice = clip_to_bounds(once, bounds, kinds)
        assert np.array_equal(once, twice)


class TestRandomSource:
    def test_equal_seeds_give_equal_streams(self):
        a = make_rng(123456789)
        b = make_rng(123456789)
        assert np.array_equal(a.random(1000), b.random(1000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))

    def test_integer_draws_deterministic(self):
        a = make_rng(5)
        b = make_rng(5)
        assert np.array_equal(a.integers(0, 50, 200), b.integers(0, 50, 200))


class TestValidation:
    def test_bounds_must_not_cross(self):
        with pytest.raises(ValueError):
            Bounds(np.array([1.0]), np.array([0.0]))

    def test_integer_dims_need_integral_bounds(self):
        with pytest.raises(ValueError):
            make_problem(dim=1, lower=0.5, upper=9.5, kinds=(VarKind.INTEGER,))

    def test_kind_length_checked(self):
        with pytest.raises(ValueError):
            make_problem(dim=2, kinds=(VarKind.CONTINUOUS,))
