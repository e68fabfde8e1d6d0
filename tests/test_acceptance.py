"""Acceptance gate: every criterion below runs its full seeded experiment
at the stated tolerance and prints one PASS/FAIL line (run with ``pytest
-s tests/test_acceptance.py`` to see them as they complete).

Experiment parameters (cohort size, resamples per attempt, reduction
factor, penalty regime) are chosen per problem, mirroring how these
solvers are operated in practice; every run stays within the shared
30,000-evaluation budget and each experiment finishes well inside five
minutes on a desktop CPU.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cohortopt import (
    Algorithm,
    Bounds,
    CboConfig,
    CiConfig,
    NegativeMode,
    PenaltyConfig,
    ProblemDefinition,
    VarKind,
    ci_sapf_cbo_run,
    ci_sapf_run,
    suite,
)
from cohortopt.problem import EvalCounter, make_rng
from cohortopt.penalty import Branch, score
from cohortopt.cohort import (
    initialize_cohort,
    learning_attempt,
    selection_probabilities,
    shrink_interval,
)
from cohortopt.collision import velocity_after_moving, velocity_after_stationary
from cohortopt.bench import compute_statistics, solve_once
from conftest import make_problem

MAX_FE_PER_RUN = 30_000
MAX_SECONDS = 300.0
RUNS = 30
BASE_SEED = 0

SYNTHETIC_1D = ProblemDefinition(
    id="SYN1", name="quadratic above a floor", dimension=1,
    bounds=Bounds(np.array([-5.0]), np.array([5.0])),
    kinds=(VarKind.CONTINUOUS,),
    objective_fn=lambda x: float(x[0] ** 2),
    inequality_fns=(lambda x: 1.0 - x[0],))

CBO_PRECISE = CboConfig(cohort_size=20, max_learning_attempts=200,
                        saturation_tolerance=1e-8)


def run_batch(problem, algorithm, solver):
    started = time.perf_counter()
    results = [solve_once(problem, algorithm, solver, BASE_SEED + i)
               for i in range(RUNS)]
    elapsed = time.perf_counter() - started
    assert elapsed < MAX_SECONDS, f"experiment exceeded {MAX_SECONDS}s"
    assert max(r.function_evaluations for r in results) <= MAX_FE_PER_RUN
    return compute_statistics(results, problem.id, algorithm.value)


def verdict(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_process_synthesis_ci_sapf():
    solver = CiConfig(cohort_size=5, variations_per_attempt=3,
                      penalty=PenaltyConfig(near_zero_threshold=5.0, int_offset=5.0))
    stats = run_batch(suite.get_problem("RC08"), Algorithm.CI_SAPF, solver)
    ok = stats.fr == 100.0 and abs(stats.best - 2.0) <= 1e-3
    verdict("A1", ok, f"RC08 ci-sapf fr={stats.fr:.1f}% best={stats.best:.6f} "
                      f"(need fr=100, best within 1e-3 of 2.0)")


def test_a2_three_bar_truss_both_algorithms():
    target = 263.8959
    problem = suite.get_problem("RC20")
    ci = run_batch(problem, Algorithm.CI_SAPF,
                   CiConfig(variations_per_attempt=5))
    cbo = run_batch(problem, Algorithm.CI_SAPF_CBO, CBO_PRECISE)
    checks = []
    for label, stats in (("ci-sapf", ci), ("ci-sapf-cbo", cbo)):
        ok = (stats.fr == 100.0
              and abs(stats.best - target) <= 5e-4 * target
              and abs(stats.mean - target) <= 1e-3 * target)
        checks.append(ok)
        verdict(f"A2[{label}]", ok,
                f"RC20 fr={stats.fr:.1f}% best={stats.best:.6f} "
                f"mean={stats.mean:.6f} (need best within 0.05%, mean within "
                f"0.1% of {target})")
    assert all(checks)


def test_a3_clutch_brake_cbo():
    target = 0.235242458
    stats = run_batch(suite.get_problem("RC21"), Algorithm.CI_SAPF_CBO, CBO_PRECISE)
    ok = stats.fr == 100.0 and abs(stats.best - target) <= 1e-6
    verdict("A3", ok, f"RC21 ci-sapf-cbo fr={stats.fr:.1f}% "
                      f"best={stats.best:.9f} (need within 1e-6 of {target})")


def test_a4_gear_train_ci_sapf_and_oracle():
    # independent exhaustive oracle over every integral tooth combination
    teeth = np.arange(12, 61, dtype=float)
    x1, x2, x3, x4 = np.meshgrid(teeth, teeth, teeth, teeth,
                                 indexing="ij", sparse=True)
    oracle = float(((1.0 / 6.931 - (x2 * x4) / (x1 * x3)) ** 2).min())
    stats = run_batch(suite.get_problem("RC31"), Algorithm.CI_SAPF, CiConfig())
    ok = (abs(oracle - 2.7009e-12) <= 1e-4 * 2.7009e-12
          and stats.best <= 1e-9
          and stats.best >= oracle - 1e-16)
    verdict("A4", ok, f"RC31 ci-sapf best={stats.best:.4e} "
                      f"oracle={oracle:.4e} (need best <= 1e-9 and >= oracle)")


def test_a5_pressure_vessel_cbo():
    bound = 1.04 * 5885.3327736
    stats = run_batch(suite.get_problem("RC18"), Algorithm.CI_SAPF_CBO, CBO_PRECISE)
    ok = stats.fr == 100.0 and stats.best <= bound
    verdict("A5", ok, f"RC18 ci-sapf-cbo fr={stats.fr:.1f}% "
                      f"best={stats.best:.4f} (need fr=100 and best <= {bound:.4f})")


def test_a6_spring_ci_sapf():
    target = 0.012665232788
    stats = run_batch(suite.get_problem("RC17"), Algorithm.CI_SAPF,
                      CiConfig(variations_per_attempt=5))
    ok = stats.fr == 100.0 and abs(stats.best - target) <= 0.02 * target
    verdict("A6", ok, f"RC17 ci-sapf fr={stats.fr:.1f}% best={stats.best:.8f} "
                      f"(need fr=100 and best within 2% of {target})")


def test_a7_himmelblau_ci_sapf():
    target = -30665.538672
    solver = CiConfig(variations_per_attempt=3, reduction_factor=0.98,
                      penalty=PenaltyConfig(negative_mode=NegativeMode.SHIFT))
    stats = run_batch(suite.get_problem("RC32"), Algorithm.CI_SAPF, solver)
    ok = stats.fr == 100.0 and abs(stats.best - target) <= 1e-3 * abs(target)
    verdict("A7", ok, f"RC32 ci-sapf fr={stats.fr:.1f}% best={stats.best:.4f} "
                      f"(need fr=100 and best within 0.1% of {target})")


def test_a9_synthetic_smoke_both_algorithms():
    ci = run_batch(SYNTHETIC_1D, Algorithm.CI_SAPF,
                   CiConfig(variations_per_attempt=5, reduction_factor=0.98))
    cbo = run_batch(SYNTHETIC_1D, Algorithm.CI_SAPF_CBO, CBO_PRECISE)
    checks = []
    for label, stats in (("ci-sapf", ci), ("ci-sapf-cbo", cbo)):
        ok = stats.best is not None and abs(stats.best - 1.0) <= 1e-4
        checks.append(ok)
        verdict(f"A9[{label}]", ok,
                f"synthetic 1-D best={stats.best:.8f} (need within 1e-4 of 1.0)")
    assert all(checks)


# ---------------------------------------------------------------------------
# A8: randomized property suite, >= 1000 cases per property
# ---------------------------------------------------------------------------

class TestA8Properties:
    CASES = 1000

    def test_probability_normalization_and_ranking(self):
        rng = make_rng(101)
        for _ in range(self.CASES):
            n = int(rng.integers(1, 40))
            phis = rng.uniform(-1e6, 1e6, n).tolist()
            p = selection_probabilities(phis)
            assert abs(math.fsum(p) - 1.0) <= 1e-12
            assert p[phis.index(min(phis))] == max(p)
        verdict("A8[probabilities]", True,
                f"{self.CASES} random cohorts: sum(p)=1 within 1e-12 and "
                "argmin-phi receives argmax-p")

    def test_penalty_zero_iff_violation_zero_per_branch(self):
        rng = make_rng(102)
        cfg = PenaltyConfig()
        samples = {
            Branch.STANDARD: lambda: rng.uniform(1.0, 1e6),
            Branch.NEGATIVE: lambda: -rng.uniform(1e-6, 1e6),
            Branch.NEAR_ZERO: lambda: rng.uniform(0.0, 1.0 - 1e-12),
            Branch.INFINITY_GUARD: lambda: float("inf"),
        }
        per_branch = self.CASES
        for branch, draw in samples.items():
            for _ in range(per_branch):
                f = draw()
                assert score(f, 0.0, cfg).penalty == 0.0
                out = score(f, rng.uniform(1e-9, 1e3), cfg)
                assert out.branch_used is branch and out.penalty > 0.0
        verdict("A8[penalty-zero]", True,
                "penalty == 0 iff violation == 0 in every branch "
                f"({per_branch} cases per branch)")

    def test_equal_mass_elastic_collision_identities(self):
        rng = make_rng(103)
        for _ in range(self.CASES):
            m = rng.uniform(1e-6, 1.0)
            v = rng.uniform(-10, 10, int(rng.integers(1, 8)))
            halted = velocity_after_moving(m, m, v, 1.0)
            inherited = velocity_after_stationary(m, m, v, 1.0)
            assert np.array_equal(halted, np.zeros_like(v))
            assert np.array_equal(inherited, v)
        verdict("A8[collision]", True,
                f"{self.CASES} equal-mass elastic collisions: mover halts, "
                "stationary inherits the velocity exactly")

    def test_interval_width_geometric_contraction(self):
        rng = make_rng(104)
        for _ in range(self.CASES):
            r = rng.uniform(0.5, 0.999)
            width = rng.uniform(0.1, 1.0)
            k = int(rng.integers(1, 40))
            expected = width * r ** k
            for _ in range(k):
                lo, hi = shrink_interval(0.5, width, r, 0.0, 1.0)
                width = hi - lo
            assert width == pytest.approx(expected, rel=1e-9)
        verdict("A8[contraction]", True,
                f"{self.CASES} random (width, R, k): width after k attempts "
                "is width*R^k")

    def test_every_evaluated_point_is_in_bounds(self):
        seen = []
        problem = make_problem(
            dim=3, lower=-2.0, upper=2.0,
            kinds=(VarKind.CONTINUOUS, VarKind.INTEGER, VarKind.CONTINUOUS),
            objective=lambda x: seen.append(x.copy()) or float(np.sum(x ** 2)))
        ci_sapf_run(problem, CiConfig(max_learning_attempts=100, seed=1,
                                      saturation_tolerance=0.0))
        ci_sapf_cbo_run(problem, CboConfig(max_learning_attempts=100, seed=2,
                                           saturation_tolerance=0.0))
        assert len(seen) >= 1000
        for x in seen:
            assert problem.bounds.contains(x)
        verdict("A8[bounds]", True,
                f"{len(seen)} evaluated points from both engines all inside "
                "the box")

    def test_bit_identical_reruns_across_seeds(self):
        problem = make_problem(dim=2)
        checked = 0
        for seed in range(500):
            ci_cfg = CiConfig(max_function_evaluations=60, seed=seed)
            a = ci_sapf_run(problem, ci_cfg)
            b = ci_sapf_run(problem, ci_cfg)
            assert np.array_equal(a.best_position, b.best_position)
            assert a.trace == b.trace
            cbo_cfg = CboConfig(max_function_evaluations=60, seed=seed)
            c = ci_sapf_cbo_run(problem, cbo_cfg)
            d = ci_sapf_cbo_run(problem, cbo_cfg)
            assert np.array_equal(c.best_position, d.best_position)
            assert c.trace == d.trace
            checked += 2
        verdict("A8[determinism]", True,
                f"{checked} seeded reruns produced bit-identical results")

    def test_fe_accounting_formulas_exact(self):
        rng = make_rng(107)
        problem = make_problem(dim=2)
        for _ in range(self.CASES):
            c = int(rng.integers(2, 7))
            t = int(rng.integers(1, 4))
            attempts = int(rng.integers(1, 6))
            ci_cfg = CiConfig(cohort_size=c, variations_per_attempt=t,
                              max_learning_attempts=attempts,
                              saturation_tolerance=0.0,
                              seed=int(rng.integers(0, 2 ** 32)))
            res = ci_sapf_run(problem, ci_cfg)
            assert res.function_evaluations == c + res.learning_attempts * c * t
            c2 = 2 * int(rng.integers(1, 4))
            cbo_cfg = CboConfig(cohort_size=c2, max_learning_attempts=attempts,
                                saturation_tolerance=0.0,
                                seed=int(rng.integers(0, 2 ** 32)))
            res2 = ci_sapf_cbo_run(problem, cbo_cfg)
            assert res2.function_evaluations == c2 * (1 + res2.learning_attempts)
        verdict("A8[fe-accounting]", True,
                f"{self.CASES} random configs: FE == C + attempts*C*t and "
                "FE == C*(1 + attempts) exactly")
