"""numpy forms of the engines' cohort-length steps, kept as test oracles.

The engines score, select, rank and adopt on lists of Python floats.
These are the array forms that the seeded results in ``golden_runs.json``
were first pinned with: each takes arrays and works on all candidates at
once. ``test_equivalence.py`` requires the list code to equal them bit
for bit.

``evaluation`` is the reference for ``evaluate_rows``: the objective and
the aggregate violation summed straight from a problem's scalar
callables, as ``max(0.0, term)`` in constraint order.
"""

import numpy as np

from cohortopt.cohort import shrink_interval
from cohortopt.collision import velocity_after_moving, velocity_after_stationary
from cohortopt.penalty import NegativeMode, PenaltyConfig
from cohortopt.problem import clip_to_bounds, evaluate_rows, integer_index


def evaluation(problem, x) -> tuple[float, float]:
    """Objective and aggregate violation at ``x`` from the raw callables."""
    f = float(problem.objective_fn(x))
    violation = 0.0
    for fn in problem.inequality_fns:
        violation += max(0.0, float(fn(x)))
    for fn in problem.equality_fns:
        violation += max(0.0, abs(float(fn(x))) - problem.equality_tolerance)
    return f, violation


def phi_values(f: np.ndarray, violation: np.ndarray,
               cfg: PenaltyConfig) -> np.ndarray:
    """``score(f[i], violation[i], cfg).phi`` for every i at once, with
    numpy masks in the scalar path's branch order."""
    guard = np.isinf(f)
    negative = f < 0.0
    has_guard, has_negative = guard.any(), negative.any()
    # penalty multiplier: f (standard), f + int_offset (near zero),
    # |f| == -f (negative), the substitute (infinity guard)
    multiplier = np.where(f < cfg.near_zero_threshold, f + cfg.int_offset, f)
    base = f
    if has_negative:
        multiplier = np.where(negative, -f, multiplier)
    if has_guard:
        multiplier = np.where(guard, cfg.infinity_substitute, multiplier)
        base = np.where(guard, cfg.infinity_substitute, f)
    with np.errstate(over="ignore"):
        penalty = multiplier * violation
        phi = base + penalty
        if has_negative and cfg.negative_mode is NegativeMode.LITERAL:
            # |-f + penalty| == |penalty - f|: IEEE subtraction adds the negation
            phi = np.where(negative & ~guard, np.abs(penalty - base), phi)
    return phi


def selection_probabilities(phis) -> np.ndarray:
    """Follow probabilities proportional to 1/phi, summed by ``ndarray.sum``."""
    phis = np.asarray(phis, dtype=float)
    low = phis.min()
    # silent like Python floats, also when the shift overflows
    with np.errstate(divide="ignore", over="ignore"):
        if low <= 0.0:
            phis = phis + (-low + 1e-9 * max(1.0, abs(low)))
        inv = 1.0 / phis
        total = inv.sum()
    if np.isinf(inv).any():
        mask = np.isinf(inv)
        return mask / mask.sum()
    if np.isinf(total):
        inv = inv / inv.max()
        total = inv.sum()
    if total == 0.0:
        return np.full(phis.shape, 1.0 / phis.size)
    return inv / total


def roulette_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The roulette pick of every draw ``u_k``, by ``searchsorted``."""
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"),
                      len(probs) - 1)


def rank_order(objective, violation, phi) -> np.ndarray:
    """Indices sorted by feasibility, then objective (feasible) or
    violation (infeasible), then phi: a stable ``np.lexsort``."""
    objective, violation, phi = (np.asarray(a, dtype=float)
                                 for a in (objective, violation, phi))
    infeasible = violation != 0.0
    return np.lexsort((phi, np.where(infeasible, violation, objective), infeasible))


def collision_state(ranked_positions: np.ndarray, ranked_masses: np.ndarray,
                    eps: float) -> np.ndarray:
    """Post-collision velocities with every live pair through the
    vectorised ``velocity_after_*`` formulas; dead pairs stay +0.0."""
    half = len(ranked_positions) // 2
    m_stat, m_mov = ranked_masses[:half, None], ranked_masses[half:, None]
    v = ranked_positions[half:] - ranked_positions[:half]
    after = np.zeros_like(ranked_positions)
    live = (m_mov + m_stat > 0.0)[:, 0]
    m_mov, m_stat, v = m_mov[live], m_stat[live], v[live]
    after[:half][live] = velocity_after_stationary(m_mov, m_stat, v, eps)
    after[half:][live] = velocity_after_moving(m_mov, m_stat, v, eps)
    return after


def learning_attempt(positions, interval_width, phi, problem, cfg, rng, counter):
    """One ci-sapf learning attempt on arrays, adopting each candidate's
    ``argmin`` variation; returns positions, objective, violation, phi and
    the new intervals' widths."""
    c, dim = positions.shape
    t = cfg.variations_per_attempt
    draws = rng.random((c, 1 + t * dim))
    probs = selection_probabilities(phi)
    followed = positions[roulette_indices(probs, draws[:, 0])]
    lo, hi = shrink_interval(followed, interval_width,
                             cfg.reduction_factor, problem.bounds.lower,
                             problem.bounds.upper)
    samples = lo[:, None, :] + draws[:, 1:].reshape(c, t, dim) * (hi - lo)[:, None, :]
    points = clip_to_bounds(samples.reshape(c * t, dim), problem.bounds,
                            integer_index(problem.kinds))
    objective, violation = (np.array(a) for a in evaluate_rows(problem, points, counter))
    new_phi = phi_values(objective, violation, cfg.penalty)
    best = np.arange(0, c * t, t) + new_phi.reshape(c, t).argmin(axis=1)
    return points[best], objective[best], violation[best], new_phi[best], hi - lo
