import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, strategies as st

from cohortopt import CboConfig, CiConfig, VarKind, ci_sapf_run
from cohortopt.problem import EvalCounter, make_rng
from cohortopt.cohort import (
    Cohort,
    Trace,
    TraceRecord,
    incumbent_key,
    initialize_cohort,
    learning_attempt,
    roulette_select,
    run_saturated,
    selection_probabilities,
    shrink_interval,
)
from conftest import make_problem


class TestSelectionProbabilities:
    def test_uniform_for_equal_phis(self):
        p = selection_probabilities([2.0, 2.0, 2.0])
        assert p == pytest.approx([1 / 3] * 3)

    def test_inverse_weighting(self):
        p = selection_probabilities([1.0, 2.0, 4.0])
        assert p == pytest.approx([4 / 7, 2 / 7, 1 / 7])

    def test_non_positive_phis_shifted(self):
        # re-derive the documented shift: delta = 1e-9 * max(1, |min|)
        phis = np.array([-1.0, 1.0])
        delta = 1e-9 * max(1.0, abs(phis.min()))
        shifted = phis + (-phis.min() + delta)
        expected = (1.0 / shifted) / (1.0 / shifted).sum()
        p = selection_probabilities(phis)
        assert p == pytest.approx(expected)
        assert p[0] > p[1]

    def test_all_infinite_falls_back_to_uniform(self):
        p = selection_probabilities([float("inf")] * 4)
        assert p == pytest.approx([0.25] * 4)

    def test_subnormal_phi_takes_all_weight(self):
        p = selection_probabilities([1e-310, 5.0])
        assert p[0] == 1.0 and p[1] == 0.0

    def test_tiny_phis_whose_inverses_overflow_the_sum(self):
        # each 1/phi is finite (8.99e307) but their sum is not
        p = selection_probabilities([1.1125369292536007e-308] * 2)
        assert p == [0.5, 0.5]

    @given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=30))
    def test_sums_to_one_and_ranks_align(self, phis):
        p = selection_probabilities(phis)
        assert abs(math.fsum(p) - 1.0) <= 1e-12
        # the phi-minimizer attains the maximal probability (ties allowed
        # when the shift makes near-identical phis float-indistinguishable)
        assert p[phis.index(min(phis))] == max(p)


class TestRouletteSelect:
    def test_single_candidate(self):
        assert roulette_select([1.0], 0.0) == 0
        assert roulette_select([1.0], 0.999999) == 0

    def test_two_way_split(self):
        assert roulette_select([0.5, 0.5], 0.49) == 0
        assert roulette_select([0.5, 0.5], 0.51) == 1

    def test_three_way(self):
        assert roulette_select([4 / 7, 2 / 7, 1 / 7], 0.60) == 1

    def test_u_at_cumulative_edge_goes_right(self):
        # strict exceedance: u equal to a cumulative sum selects the next slot
        assert roulette_select([0.5, 0.5], 0.5) == 1

    def test_float_shortfall_returns_last(self):
        assert roulette_select([0.3, 0.3, 0.3999999999], 0.9999999999) == 2


class TestShrinkInterval:
    def test_contract_around_center(self):
        lo, hi = shrink_interval(0.5, 1.0, 0.95, 0.0, 1.0)
        assert (lo, hi) == pytest.approx((0.025, 0.975))

    def test_clipped_at_lower_bound(self):
        lo, hi = shrink_interval(0.0, 0.5, 0.9, 0.0, 1.0)
        assert lo == 0.0
        assert hi == pytest.approx(0.225)

    def test_geometric_contraction(self):
        width = 1.0
        for k in range(1, 30):
            lo, hi = shrink_interval(0.5, width, 0.95, 0.0, 1.0)
            width = hi - lo
            assert width == pytest.approx(0.95 ** k)


class TestInitializeCohort:
    def test_contract(self, sphere_problem):
        cfg = CiConfig(cohort_size=5)
        counter = EvalCounter()
        cohort = initialize_cohort(sphere_problem, cfg, make_rng(1), counter)
        assert cohort.positions.shape == (5, 3)
        for values in (cohort.objective, cohort.violation, cohort.phi):
            assert len(values) == 5 and all(type(v) is float for v in values)
        assert counter.count == 5
        for i in range(5):
            assert sphere_problem.bounds.contains(cohort.positions[i])
            assert np.array_equal(cohort.interval_width[i], sphere_problem.bounds.width)
            # the positions were sampled in [lower, lower + width]
            lower = sphere_problem.bounds.lower
            assert np.all(lower <= cohort.positions[i])
            assert np.all(cohort.positions[i] <= lower + cohort.interval_width[i])

    def test_deterministic(self, sphere_problem):
        cfg = CiConfig()
        a = initialize_cohort(sphere_problem, cfg, make_rng(42), EvalCounter())
        b = initialize_cohort(sphere_problem, cfg, make_rng(42), EvalCounter())
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.phi, b.phi)

    def test_degenerate_bound_dimension_is_constant(self):
        problem = make_problem(dim=2)
        squeezed = replace(problem, bounds=type(problem.bounds)(
            np.array([2.0, -5.0]), np.array([2.0, 5.0])))
        cohort = initialize_cohort(squeezed, CiConfig(), make_rng(3), EvalCounter())
        assert np.all(cohort.positions[:, 0] == 2.0)


class TestLearningAttempt:
    def test_evaluation_count(self, sphere_problem):
        cfg = CiConfig(cohort_size=5, variations_per_attempt=1)
        counter = EvalCounter()
        cohort = initialize_cohort(sphere_problem, cfg, make_rng(1), counter)
        before = counter.count
        learning_attempt(cohort, sphere_problem, cfg, make_rng(2), counter)
        assert counter.count - before == 5

    def test_evaluation_count_with_variations(self, sphere_problem):
        cfg = CiConfig(cohort_size=4, variations_per_attempt=3)
        counter = EvalCounter()
        cohort = initialize_cohort(sphere_problem, cfg, make_rng(1), counter)
        before = counter.count
        learning_attempt(cohort, sphere_problem, cfg, make_rng(2), counter)
        assert counter.count - before == 12

    def test_widths_contract_by_reduction_factor(self, sphere_problem):
        cfg = CiConfig(cohort_size=3, reduction_factor=0.9)
        cohort = initialize_cohort(sphere_problem, cfg, make_rng(1), EvalCounter())
        new = learning_attempt(cohort, sphere_problem, cfg, make_rng(2), EvalCounter())
        full = sphere_problem.bounds.width
        widths = new.interval_width
        assert widths.shape == (3, 3)
        assert np.all(widths <= 0.9 * full + 1e-12)

    def test_identical_cohort_contracts_exactly_around_common_point(self):
        # centered samples never clip, so the contraction is exact
        problem = make_problem(dim=2, lower=-5.0, upper=5.0)
        cfg = CiConfig(cohort_size=3, reduction_factor=0.9)
        cohort = initialize_cohort(problem, cfg, make_rng(1), EvalCounter())
        cohort.positions = np.zeros((3, 2))
        new = learning_attempt(cohort, problem, cfg, make_rng(2), EvalCounter())
        for i in range(3):
            widths = new.interval_width[i]
            assert widths == pytest.approx(0.9 * problem.bounds.width)
            lower, _ = shrink_interval(cohort.positions[i], cohort.interval_width[i], 0.9,
                                       problem.bounds.lower, problem.bounds.upper)
            assert lower == pytest.approx([-4.5, -4.5])
            assert np.all(new.positions[i] >= lower)
            assert np.all(new.positions[i] <= lower + widths)

    def test_deterministic(self, sphere_problem):
        cfg = CiConfig()
        cohort = initialize_cohort(sphere_problem, cfg, make_rng(1), EvalCounter())
        a = learning_attempt(cohort, sphere_problem, cfg, make_rng(9), EvalCounter())
        b = learning_attempt(cohort, sphere_problem, cfg, make_rng(9), EvalCounter())
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.interval_width, b.interval_width)


class TestCiConfig:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_saturation_tolerance_must_be_finite_and_non_negative(self, tol):
        # a NaN tolerance was accepted, so such a run could never saturate
        with pytest.raises(ValueError, match="saturation_tolerance"):
            CiConfig(saturation_tolerance=tol)

    def test_budget_must_pay_for_the_first_cohort(self):
        # a run of this config spent 5 evaluations against a budget of 3
        with pytest.raises(ValueError, match="max_function_evaluations"):
            CiConfig(cohort_size=5, max_function_evaluations=3)
        CiConfig(cohort_size=5, max_function_evaluations=5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CiConfig(seed=-1)


def trace_saturated(phis, window=20, tol=1e-6) -> bool:
    """``run_saturated`` on a trace of incumbent ``phis`` and a cohort in
    consensus, so that only the trace decides."""
    trace = Trace()
    for phi in phis:
        trace.append(phi, phi, 0.0)
    cohort = Cohort(np.zeros((2, 1)), [5.0, 5.0], [0.0, 0.0], [5.0, 5.0], np.ones((2, 1)))
    return run_saturated(cohort, trace, window, tol)


class TestCheckSaturation:
    def test_constant_trace_saturates(self):
        assert trace_saturated([5.0] * 20)

    def test_improving_trace_does_not(self):
        phis = [10.0 - 0.01 * i for i in range(20)]
        assert not trace_saturated(phis)

    def test_short_trace_does_not(self):
        assert not trace_saturated([5.0] * 19)

    def test_window_validation(self):
        # run_saturated relies on the configs for a window of at least 2
        for config in (CiConfig, CboConfig):
            with pytest.raises(ValueError, match="saturation_window"):
                config(saturation_window=1)


class TestTrace:
    @staticmethod
    def trace_of(*rows):
        trace = Trace()
        for row in rows:
            trace.append(*row)
        return trace

    def test_records_number_attempts_from_one(self):
        trace = self.trace_of((3.0, 2.0, 1.0), (-0.0, math.inf, 0.0))
        assert list(trace) == [TraceRecord(1, 3.0, 2.0, 1.0),
                               TraceRecord(2, -0.0, math.inf, 0.0)]
        assert trace[-1] == trace[1] == TraceRecord(2, -0.0, math.inf, 0.0)
        assert trace[:1] == [TraceRecord(1, 3.0, 2.0, 1.0)]
        assert math.copysign(1.0, trace[1].best_phi) == -1.0
        with pytest.raises(IndexError):
            trace[2]

    def test_equality(self):
        a = self.trace_of((1.0, 1.0, 0.0), (0.5, 0.5, 0.0))
        assert a == self.trace_of((1.0, 1.0, 0.0), (0.5, 0.5, 0.0))
        assert a != self.trace_of((1.0, 1.0, 0.0))
        assert a != self.trace_of((1.0, 1.0, 0.0), (0.5, 0.5, 1e-300))
        assert a == list(a) and list(a) == a
        assert Trace() == [] and Trace() != [TraceRecord(1, 1.0, 1.0, 0.0)]


class TestCiSapfRun:
    def test_budget_exhaustion_returns_initial_best(self, sphere_problem):
        cfg = CiConfig(cohort_size=5, max_function_evaluations=5)
        result = ci_sapf_run(sphere_problem, cfg)
        assert result.learning_attempts == 0
        assert result.function_evaluations == 5
        assert result.trace == []

    def test_fe_accounting_exact(self, sphere_problem):
        cfg = CiConfig(cohort_size=4, variations_per_attempt=2,
                       max_learning_attempts=7,
                       max_function_evaluations=10_000,
                       saturation_tolerance=0.0)
        result = ci_sapf_run(sphere_problem, cfg)
        assert result.learning_attempts == 7
        assert result.function_evaluations == 4 + 7 * 4 * 2

    def test_trace_length_equals_attempts(self, sphere_problem):
        cfg = CiConfig(max_learning_attempts=9, saturation_tolerance=0.0)
        result = ci_sapf_run(sphere_problem, cfg)
        assert len(result.trace) == result.learning_attempts

    def test_bit_identical_reruns(self, floor_problem):
        cfg = CiConfig(max_learning_attempts=50, seed=1234)
        a = ci_sapf_run(floor_problem, cfg)
        b = ci_sapf_run(floor_problem, cfg)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_objective == b.best_objective
        assert a.trace == b.trace
        assert a.function_evaluations == b.function_evaluations

    def test_incumbent_trace_non_worsening(self, floor_problem):
        result = ci_sapf_run(floor_problem, CiConfig(max_learning_attempts=80))
        keys = [((0, r.best_f, r.best_phi) if r.best_violation == 0.0
                 else (1, r.best_violation, r.best_phi)) for r in result.trace]
        assert all(keys[i + 1] <= keys[i] for i in range(len(keys) - 1))

    def test_every_evaluated_point_in_bounds(self):
        seen = []
        problem = make_problem(
            dim=2, lower=-2.0, upper=3.0,
            kinds=(VarKind.CONTINUOUS, VarKind.INTEGER),
            objective=lambda x: seen.append(x.copy()) or float(np.sum(x ** 2)))
        ci_sapf_run(problem, CiConfig(max_learning_attempts=60, seed=5))
        assert len(seen) > 100
        for x in seen:
            assert problem.bounds.contains(x)

    def test_restart_on_saturation_respects_budget(self, floor_problem):
        cfg = CiConfig(max_function_evaluations=600, max_learning_attempts=500,
                       restart_on_saturation=True, saturation_window=5,
                       saturation_tolerance=5e-2)
        result = ci_sapf_run(floor_problem, cfg)
        # each restart spends C evaluations beyond C * (1 + t * attempts)
        assert result.function_evaluations > cfg.cohort_size * (
            1 + cfg.variations_per_attempt * result.learning_attempts)
        assert result.function_evaluations <= 600

    def test_solves_floor_problem(self, floor_problem):
        cfg = CiConfig(variations_per_attempt=5, reduction_factor=0.98, seed=3)
        result = ci_sapf_run(floor_problem, cfg)
        assert result.feasible
        assert result.best_objective == pytest.approx(1.0, abs=0.05)


class TestIncumbentOrdering:
    # incumbent_key(objective, violation, phi)
    def test_feasible_beats_infeasible(self):
        good = incumbent_key(100.0, 0.0, 100.0)
        bad = incumbent_key(-5.0, 0.001, -5.0)
        assert good < bad

    def test_lower_objective_wins_among_feasible(self):
        a = incumbent_key(1.0, 0.0, 1.0)
        b = incumbent_key(2.0, 0.0, 2.0)
        assert a < b

    def test_lower_violation_wins_among_infeasible(self):
        a = incumbent_key(50.0, 0.1, 55.0)
        b = incumbent_key(1.0, 0.2, 1.2)
        assert a < b


def test_cohort_spread(sphere_problem):
    # with a stalled incumbent, the cohort's phi range alone decides
    cohort = initialize_cohort(sphere_problem, CiConfig(), make_rng(0), EvalCounter())
    phis = sorted(cohort.phi)
    spread = phis[-1] - phis[0]
    assert spread > 0.0
    trace = Trace()
    for _ in range(20):
        trace.append(1.0, 1.0, 0.0)
    assert run_saturated(cohort, trace, 20, spread)
    assert not run_saturated(cohort, trace, 20, math.nextafter(spread, 0.0))
