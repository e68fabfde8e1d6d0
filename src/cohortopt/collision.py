"""Collision-driven hybrid engine.

Keeps the cohort selection machinery (pseudo-objectives, follow
probabilities, roulette selection) but replaces interval reduction with a
physics-style position update: the cohort is split into a better,
stationary half and a worse, moving half; paired bodies exchange
momentum-like velocities weighted by their selection probabilities
(masses) and a coefficient of restitution that decays linearly over the
run, shifting the search from exploration to exploitation. No sampling
reduction factor exists anywhere in this engine. The run loop is
``cohort.run_cohort``; this module supplies its learning attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cohort import (
    Cohort,
    RunResult,
    check_run_limits,
    run_cohort,
    selection_probabilities,
)
# not called here; perfbench's tracer rebinds these names in this module
from .cohort import roulette_select, run_saturated  # noqa: F401
from .penalty import PenaltyConfig, score_phis
from .problem import (
    EvalCounter,
    ProblemDefinition,
    RandomSource,
    Vector,
    clip_to_bounds,
    evaluate_rows,
)


@dataclass(frozen=True)
class CboConfig:
    cohort_size: int = 6
    max_learning_attempts: int = 2000
    max_function_evaluations: int = 30000
    saturation_window: int = 20
    saturation_tolerance: float = 1e-6
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0

    def __post_init__(self):
        if self.cohort_size < 2 or self.cohort_size % 2 != 0:
            raise ValueError("cohort_size must be an even integer >= 2")
        check_run_limits(self)


def assign_roles(cohort: Cohort) -> list[int]:
    """Rank the cohort and split it by rank: better half stationary.

    Returns the cohort indices sorted ascending under
    :func:`cohort.incumbent_key` (stable, so ties keep index order). The
    first C/2 ranks are the stationary bodies, the rest the moving ones;
    the moving body at rank C/2 + k pairs with the stationary body at
    rank k.
    """
    keys = cohort.keys
    if len(keys) < 2 or len(keys) % 2 != 0:
        raise ValueError("cohort size must be even and >= 2")
    return sorted(range(len(keys)), key=keys.__getitem__)


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


def collision_state(ranked_positions: np.ndarray, ranked_masses: Sequence[float],
                    eps: float) -> np.ndarray:
    """Post-collision velocities ``(C, D)`` of a rank-sorted cohort, every
    pair at once; row i belongs to the body at rank i.

    Before the collision a moving body's velocity is its offset from its
    stationary partner, and stationary bodies are at rest. A pair whose
    masses are both zero (both behaviors infinitely bad) exchanges
    nothing: its post-collision velocities are zero.

    Each pair's two factors are those of :func:`velocity_after_stationary`
    and :func:`velocity_after_moving`, computed on Python floats with the
    same operations in the same order; only the ``(C, D)`` products use
    numpy.
    """
    half = len(ranked_positions) // 2
    stationary, moving, dead = [], [], []
    for k, (m_stat, m_mov) in enumerate(zip(ranked_masses[:half], ranked_masses[half:])):
        if m_mov + m_stat > 0.0:
            stationary.append(m_mov * (1.0 + eps) / (m_stat + m_mov))
            moving.append((m_mov - eps * m_stat) / (m_mov + m_stat))
        else:
            stationary.append(0.0)
            moving.append(0.0)
            dead += [k, half + k]
    v = ranked_positions[half:] - ranked_positions[:half]
    # (2, C/2, D): the stationary then the moving factors times each offset
    after = (np.array(stationary + moving).reshape(2, half, 1) * v).reshape(
        ranked_positions.shape)
    if dead:
        after[dead] = 0.0   # 0.0 * v would be -0.0 where v < 0
    return after


def update_positions(ranked_positions: np.ndarray, velocities_after: np.ndarray,
                     problem: ProblemDefinition, rng: RandomSource) -> np.ndarray:
    """New positions of the rank-sorted cohort from post-collision
    velocities, clipped to bounds.

    Each body draws a fresh uniform [-1, 1] vector, one component per
    dimension, in rank order (one draw of C rows). A stationary body moves
    from its own position; a moving body relocates relative to its
    partner's old position, so every body moves from a stationary one.
    """
    c, dim = ranked_positions.shape
    stationary = ranked_positions[:c // 2]
    rand = rng.uniform(-1.0, 1.0, (c, dim))
    # every body moves from a stationary one: (2, C/2, D) over the pairs
    moved = stationary + (rand * velocities_after).reshape(2, c // 2, dim)
    return clip_to_bounds(moved.reshape(c, dim), problem.bounds,
                          problem.rounding_index)


def collision_attempt(cohort: Cohort, problem: ProblemDefinition,
                      cfg: CboConfig, rng: RandomSource, counter: EvalCounter,
                      attempt: int) -> Cohort:
    """One collision update of the whole cohort; costs exactly C
    evaluations. The masses are the follow probabilities and the
    restitution is ``cor_epsilon(attempt, max_learning_attempts)``.

    The random stream is consumed in a fixed order: C follow draws (each
    candidate's roulette number; the collision formulas themselves drive
    the position updates, so the draws select nothing), then C uniform
    [-1, 1] vectors in sorted order, stationary bodies first.
    """
    probs = selection_probabilities(cohort.phi)
    rng.random(len(probs))
    order = assign_roles(cohort)
    ranked = cohort.positions.take(order, axis=0)
    velocities = collision_state(ranked, [probs[i] for i in order],
                                 cor_epsilon(attempt, cfg.max_learning_attempts))
    points = update_positions(ranked, velocities, problem, rng)
    objective, violation = evaluate_rows(problem, points, counter)
    return Cohort(points, objective, violation,
                  score_phis(objective, violation, cfg.penalty), cohort.interval_width)


def ci_sapf_cbo_run(problem: ProblemDefinition, cfg: CboConfig) -> RunResult:
    """Full hybrid run: :func:`cohort.run_cohort` over
    :func:`collision_attempt`, without restarts; costs C * (1 + attempts)
    function evaluations."""
    return run_cohort(problem, cfg, cfg.cohort_size, collision_attempt, False)
