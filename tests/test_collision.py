import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cohortopt import CboConfig, ci_sapf_cbo_run
from cohortopt.problem import make_rng
from cohortopt.cohort import Cohort
from cohortopt.collision import (
    assign_roles,
    collision_state,
    cor_epsilon,
    update_positions,
    velocity_after_moving,
    velocity_after_stationary,
)
from conftest import make_problem


def feasible_cohort(phis):
    """A feasible 1-D cohort whose objectives equal its phis."""
    phi = [float(p) for p in phis]
    positions = np.zeros((len(phi), 1))
    return Cohort(positions, list(phi), [0.0] * len(phi), phi,
                  interval_width=np.zeros_like(positions))


class TestAssignRoles:
    # assign_roles returns cohort indices by rank: the first half is
    # stationary, and rank C/2 + k (moving) pairs with rank k (stationary)
    def test_sort_and_split_pairing(self):
        order = assign_roles(feasible_cohort([3.0, 1.0, 4.0, 2.0]))
        stationary, moving = order[:2], order[2:]
        assert stationary == [1, 3]     # phi 1, phi 2
        assert moving == [0, 2]         # phi 3 pairs with phi 1, phi 4 with phi 2

    def test_ties_use_stable_order(self):
        order = assign_roles(feasible_cohort([1.0] * 4))
        assert order == [0, 1, 2, 3]

    def test_minimal_cohort(self):
        order = assign_roles(feasible_cohort([2.0, 1.0]))
        assert order == [1, 0]     # 1 stationary, 0 moving, paired

    def test_halves_are_equal_size(self):
        order = assign_roles(feasible_cohort([float(i) for i in range(8)]))
        assert sorted(order[:4]) == [0, 1, 2, 3]
        assert sorted(order[4:]) == [4, 5, 6, 7]

    def test_odd_cohort_rejected(self):
        with pytest.raises(ValueError):
            assign_roles(feasible_cohort([1.0, 2.0, 3.0]))


class TestVelocities:
    def test_before_is_offset_from_partner(self):
        # an elastic equal-mass collision hands the mover's pre-collision
        # velocity, its offset from its partner, to the stationary body
        after = collision_state(np.array([[1.0, 1.0], [2.0, 2.0]]), np.full(2, 0.5), 1.0)
        assert np.array_equal(after[0], np.array([1.0, 1.0]))

    def test_before_coincident_pair_is_zero(self):
        after = collision_state(np.array([[1.0], [1.0]]), np.array([0.7, 0.3]), 0.5)
        assert np.array_equal(after, np.zeros((2, 1)))

    def test_moving_equal_masses_elastic_halt(self):
        v = velocity_after_moving(0.5, 0.5, np.array([3.0, -2.0]), 1.0)
        assert np.array_equal(v, np.zeros(2))

    def test_moving_equal_masses_plastic_half(self):
        v = velocity_after_moving(0.5, 0.5, np.array([3.0]), 0.0)
        assert v == pytest.approx([1.5])

    def test_moving_massless_obstacle(self):
        v0 = np.array([1.0, 2.0])
        v = velocity_after_moving(0.4, 0.0, v0, 0.7)
        assert v == pytest.approx(v0)

    def test_stationary_equal_masses_elastic_swap(self):
        v0 = np.array([3.0, -2.0])
        v = velocity_after_stationary(0.5, 0.5, v0, 1.0)
        assert np.array_equal(v, v0)

    def test_stationary_equal_masses_plastic_half(self):
        v = velocity_after_stationary(0.5, 0.5, np.array([3.0]), 0.0)
        assert v == pytest.approx([1.5])

    def test_stationary_zero_partner_velocity(self):
        v = velocity_after_stationary(0.3, 0.7, np.zeros(3), 0.5)
        assert np.array_equal(v, np.zeros(3))

    def test_zero_mass_sum_rejected(self):
        with pytest.raises(ValueError):
            velocity_after_moving(0.0, 0.0, np.ones(1), 0.5)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(0.0, 1.0))
    def test_factor_bounds(self, m_mov, m_stat, eps):
        v = np.array([1.0])
        factor_mov = velocity_after_moving(m_mov, m_stat, v, eps)[0]
        factor_stat = velocity_after_stationary(m_mov, m_stat, v, eps)[0]
        assert abs(factor_mov) <= 1.0 + 1e-12
        assert 0.0 <= factor_stat <= 2.0 * m_mov / (m_stat + m_mov) + 1e-12


class TestCorEpsilon:
    def test_starts_fully_elastic(self):
        assert cor_epsilon(0, 100) == 1.0

    def test_ends_fully_damped(self):
        assert cor_epsilon(100, 100) == 0.0

    def test_midpoint(self):
        assert cor_epsilon(50, 100) == pytest.approx(0.5)

    def test_strictly_decreasing(self):
        values = [cor_epsilon(k, 10) for k in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cor_epsilon(5, 0)
        with pytest.raises(ValueError):
            cor_epsilon(11, 10)


class TestCollisionState:
    def test_stationary_pre_velocities_are_zero(self):
        # elastic equal masses swap the pair's pre-collision velocities:
        # the stationary bodies take the movers' offsets and the movers
        # take the stationary bodies' own velocities, which are zero
        ranked = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (4.0, 0.0)])
        after = collision_state(ranked, np.full(4, 0.25), 1.0)
        assert np.array_equal(after, [(2.0, 2.0), (3.0, -1.0), (0.0, 0.0), (0.0, 0.0)])

    def test_zero_mass_pair_exchanges_nothing(self):
        ranked = np.array([[0.0], [1.0], [5.0], [9.0]])
        after = collision_state(ranked, np.array([0.6, 0.0, 0.4, 0.0]), 1.0)
        assert np.array_equal(after[1], np.zeros(1))
        assert np.array_equal(after[3], np.zeros(1))
        # the live pair still collides
        assert after[0] == pytest.approx([4.0])
        assert after[2] == pytest.approx([-1.0])

    def test_pairs_match_the_scalar_formulas(self):
        rng = make_rng(3)
        ranked = rng.uniform(-5, 5, (6, 3))
        probs = rng.random(6)
        probs /= probs.sum()
        after = collision_state(ranked, probs, 0.3)
        for k in range(3):
            v = ranked[k + 3] - ranked[k]
            assert np.array_equal(after[k],
                                  velocity_after_stationary(probs[k + 3], probs[k], v, 0.3))
            assert np.array_equal(after[k + 3],
                                  velocity_after_moving(probs[k + 3], probs[k], v, 0.3))


class TestUpdatePositions:
    def test_zero_velocity_keeps_positions(self, sphere_problem):
        ranked = np.array([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        out = update_positions(ranked, np.zeros((2, 3)), sphere_problem, make_rng(0))
        assert np.array_equal(out[0], ranked[0])
        # the moving body relocates relative to its stationary partner
        assert np.array_equal(out[1], ranked[0])

    def test_matches_manual_formula(self, sphere_problem):
        ranked = np.array([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])
        velocities = np.array([(1.0, 0.0, 2.0), (0.5, 0.5, 0.5)])
        reference = make_rng(7)
        expected_r0 = reference.uniform(-1, 1, 3)
        expected_r1 = reference.uniform(-1, 1, 3)
        out = update_positions(ranked, velocities, sphere_problem, make_rng(7))
        assert out[0] == pytest.approx(ranked[0] + expected_r0 * velocities[0])
        assert out[1] == pytest.approx(ranked[0] + expected_r1 * velocities[1])

    def test_results_clipped(self):
        problem = make_problem(dim=1, lower=0.0, upper=1.0)
        ranked = np.array([[0.1], [0.9]])
        out = update_positions(ranked, np.full((2, 1), 100.0), problem, make_rng(1))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestCboConfig:
    def test_odd_cohort_rejected_before_any_evaluation(self):
        with pytest.raises(ValueError):
            CboConfig(cohort_size=5)

    def test_even_ok(self):
        CboConfig(cohort_size=6)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_saturation_tolerance_must_be_finite_and_non_negative(self, tol):
        # a NaN tolerance was accepted, so such a run could never saturate
        with pytest.raises(ValueError, match="saturation_tolerance"):
            CboConfig(saturation_tolerance=tol)

    def test_budget_must_pay_for_the_first_cohort(self):
        with pytest.raises(ValueError, match="max_function_evaluations"):
            CboConfig(cohort_size=6, max_function_evaluations=5)
        CboConfig(cohort_size=6, max_function_evaluations=6)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CboConfig(seed=-1)


class TestCboRun:
    def test_fe_accounting(self, sphere_problem):
        cfg = CboConfig(cohort_size=6, max_learning_attempts=11,
                        saturation_tolerance=0.0)
        result = ci_sapf_cbo_run(sphere_problem, cfg)
        assert result.function_evaluations == 6 * (1 + result.learning_attempts)
        assert result.learning_attempts == 11

    def test_budget_exhaustion(self, sphere_problem):
        cfg = CboConfig(cohort_size=6, max_function_evaluations=6)
        result = ci_sapf_cbo_run(sphere_problem, cfg)
        assert result.learning_attempts == 0
        assert result.function_evaluations == 6

    def test_bit_identical_reruns(self, floor_problem):
        cfg = CboConfig(max_learning_attempts=60, seed=99)
        a = ci_sapf_cbo_run(floor_problem, cfg)
        b = ci_sapf_cbo_run(floor_problem, cfg)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.trace == b.trace

    def test_points_stay_in_bounds(self):
        seen = []
        problem = make_problem(
            dim=2, lower=-1.0, upper=2.0,
            objective=lambda x: seen.append(x.copy()) or float(np.sum(x ** 2)))
        ci_sapf_cbo_run(problem, CboConfig(max_learning_attempts=50, seed=11))
        assert len(seen) > 50
        for x in seen:
            assert problem.bounds.contains(x)

    def test_solves_floor_problem(self, floor_problem):
        cfg = CboConfig(cohort_size=12, max_learning_attempts=200, seed=1)
        result = ci_sapf_cbo_run(floor_problem, cfg)
        assert result.feasible
        assert result.best_objective == pytest.approx(1.0, abs=1e-2)
