"""Collision-driven hybrid engine.

Keeps the cohort selection machinery (pseudo-objectives, follow
probabilities, roulette selection) but replaces interval reduction with a
physics-style position update: the cohort is split into a better,
stationary half and a worse, moving half; paired bodies exchange
momentum-like velocities weighted by their selection probabilities
(masses) and a coefficient of restitution that decays linearly over the
run, shifting the search from exploration to exploitation. No sampling
reduction factor exists anywhere in this engine.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cohort import (
    Cohort,
    RunResult,
    TraceRecord,
    initialize_cohort,
    offer,
    rank_order,
    run_result,
    run_saturated,
    selection_probabilities,
)
from .cohort import roulette_select  # noqa: F401  rebound by perfbench's tracer
from .penalty import PenaltyConfig, phi_values
from .problem import (
    EvalCounter,
    ProblemDefinition,
    RandomSource,
    Vector,
    clip_to_bounds,
    evaluate_rows,
    make_rng,
)


class CorSchedule(enum.Enum):
    LINEAR_DECAY = "linear_decay"


@dataclass(frozen=True)
class CollisionState:
    """One attempt's collision quantities over the rank-sorted cohort.

    Row i of each velocity array belongs to the body at rank i. Stationary
    bodies (first half) always have zero velocity before the collision. A
    pair whose masses are both zero (both behaviors infinitely bad)
    exchanges nothing: its post-collision velocities are zero.
    """

    masses: np.ndarray
    velocities_before: np.ndarray   # (C, D)
    velocities_after: np.ndarray    # (C, D)
    epsilon: float


@dataclass(frozen=True)
class CboConfig:
    cohort_size: int = 6
    cor_schedule: CorSchedule = CorSchedule.LINEAR_DECAY
    max_learning_attempts: int = 2000
    max_function_evaluations: int = 30000
    saturation_window: int = 20
    saturation_tolerance: float = 1e-6
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0

    def __post_init__(self):
        if self.cohort_size < 2 or self.cohort_size % 2 != 0:
            raise ValueError("cohort_size must be an even integer >= 2")
        if self.max_learning_attempts < 1 or self.max_function_evaluations < 1:
            raise ValueError("budgets must be positive")
        if self.saturation_window < 2:
            raise ValueError("saturation_window must be at least 2")
        if self.saturation_tolerance < 0.0:
            raise ValueError("saturation_tolerance must be non-negative")
        if not isinstance(self.cor_schedule, CorSchedule):
            raise ValueError("unknown restitution schedule")


def assign_roles(cohort: Cohort) -> np.ndarray:
    """Rank the cohort and split it by rank: better half stationary.

    Returns the cohort indices in ascending incumbent order (stable, so
    ties keep index order). The first C/2 ranks are the stationary
    bodies, the rest the moving ones; the moving body at rank C/2 + k
    pairs with the stationary body at rank k.
    """
    n = len(cohort.phi)
    if n < 2 or n % 2 != 0:
        raise ValueError("cohort size must be even and >= 2")
    return rank_order(cohort)


def masses(probs: Sequence[float]) -> np.ndarray:
    """Body masses are the selection probabilities: better is heavier."""
    return np.asarray(probs, dtype=float).copy()


def velocity_before(moving_position: Vector, partner_position: Vector) -> Vector:
    """Pre-collision velocity of a moving body: offset from its partner.
    Stationary bodies have zero velocity before collision."""
    return moving_position - partner_position


def velocity_after_moving(m_mov, m_stat, velocity: Vector, eps: float) -> Vector:
    """Post-collision velocity of a moving body:
    (m_mov - eps * m_stat) / (m_mov + m_stat) times its own velocity.
    Masses may be arrays of shape (k, 1) for k pairs at once."""
    if np.any(m_mov + m_stat <= 0.0):
        raise ValueError("mass sum must be positive")
    return (m_mov - eps * m_stat) / (m_mov + m_stat) * velocity


def velocity_after_stationary(m_mov, m_stat, partner_velocity: Vector,
                              eps: float) -> Vector:
    """Post-collision velocity of a stationary body:
    m_mov * (1 + eps) / (m_stat + m_mov) times the partner's velocity.
    Masses may be arrays of shape (k, 1) for k pairs at once."""
    if np.any(m_mov + m_stat <= 0.0):
        raise ValueError("mass sum must be positive")
    return m_mov * (1.0 + eps) / (m_stat + m_mov) * partner_velocity


def cor_epsilon(attempt: int, max_attempts: int) -> float:
    """Linearly decaying coefficient of restitution, 1 at the first
    attempt down to 0 at the attempt budget."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if not 0 <= attempt <= max_attempts:
        raise ValueError("attempt must lie in [0, max_attempts]")
    return 1.0 - attempt / max_attempts


def collision_state(ranked_positions: np.ndarray, ranked_masses: np.ndarray,
                    eps: float) -> CollisionState:
    """Velocities before and after collision for a rank-sorted cohort,
    every pair at once."""
    half = len(ranked_positions) // 2
    m_stat, m_mov = ranked_masses[:half, None], ranked_masses[half:, None]
    before = np.zeros_like(ranked_positions)
    before[half:] = velocity_before(ranked_positions[half:], ranked_positions[:half])
    after = np.zeros_like(ranked_positions)
    live = (m_mov + m_stat > 0.0)[:, 0]
    m_mov, m_stat, v = m_mov[live], m_stat[live], before[half:][live]
    after[:half][live] = velocity_after_stationary(m_mov, m_stat, v, eps)
    after[half:][live] = velocity_after_moving(m_mov, m_stat, v, eps)
    return CollisionState(masses=ranked_masses, velocities_before=before,
                          velocities_after=after, epsilon=eps)


def update_positions(ranked_positions: np.ndarray, velocities_after: np.ndarray,
                     problem: ProblemDefinition, rng: RandomSource) -> np.ndarray:
    """New positions of the rank-sorted cohort from post-collision
    velocities, clipped to bounds.

    Each body draws a fresh uniform [-1, 1] vector, one component per
    dimension, in rank order (one draw of C rows). A stationary body moves
    from its own position; a moving body relocates relative to its
    partner's old position, so every body moves from a stationary one.
    """
    stationary = ranked_positions[:len(ranked_positions) // 2]
    base = np.concatenate((stationary, stationary))
    rand = rng.uniform(-1.0, 1.0, ranked_positions.shape)
    return clip_to_bounds(base + rand * velocities_after, problem.bounds,
                          problem.integer_index)


def ci_sapf_cbo_run(problem: ProblemDefinition, cfg: CboConfig) -> RunResult:
    """Full hybrid run; costs C * (1 + attempts) function evaluations.

    Per attempt the random stream is consumed in a fixed order: C follow
    draws (each candidate's roulette number; the collision formulas
    themselves drive the position updates, so the draws select nothing),
    then C uniform [-1, 1] vectors in sorted order, stationary bodies
    first.
    """
    rng = make_rng(cfg.seed)
    counter = EvalCounter()
    started = time.perf_counter()
    c = cfg.cohort_size

    cohort = initialize_cohort(problem, cfg, rng, counter)
    best = offer(None, cohort)

    trace: list[TraceRecord] = []
    attempts = 0
    while (attempts < cfg.max_learning_attempts
           and counter.count + c <= cfg.max_function_evaluations):
        probs = selection_probabilities(cohort.phi)
        rng.random(c)   # the C follow draws; the collision picks no one to follow
        order = assign_roles(cohort)
        ranked = cohort.positions[order]
        eps = cor_epsilon(attempts, cfg.max_learning_attempts)
        state = collision_state(ranked, masses(probs[order]), eps)
        points = update_positions(ranked, state.velocities_after, problem, rng)
        objective, violation = evaluate_rows(problem, points, counter)
        cohort = Cohort(points, objective, violation,
                        phi_values(objective, violation, cfg.penalty),
                        cohort.interval_lower, cohort.interval_upper)
        attempts += 1
        best = offer(best, cohort)
        trace.append(TraceRecord(attempt=attempts, best_phi=best.phi,
                                 best_f=best.objective,
                                 best_violation=best.violation))
        if run_saturated(cohort, trace, cfg.saturation_window,
                         cfg.saturation_tolerance):
            break

    return run_result(best, counter, attempts, started, trace)
