"""Cohort search engine with interval-reduction sampling.

Each of C candidates keeps a per-variable sampling interval. Every
learning attempt: selection probabilities are computed from the current
pseudo-objectives, each candidate roulette-selects a peer to follow,
contracts its own interval by the reduction factor around the followed
peer's position, resamples inside it and adopts the best resample
unconditionally. The run stops on saturation of the incumbent trace or
when a budget is exhausted.

The cohort is held as arrays (:class:`Cohort`) and each step works on
all candidates at once; only the problem's own callables run once per
point. Seeded runs are bit-identical to running the same steps candidate
by candidate with the scalar references kept here and in ``penalty``
and ``problem`` (``roulette_select``, ``score``, ``evaluate``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .penalty import PenaltyConfig, phi_values
from .penalty import score  # noqa: F401  scalar reference, rebound by perfbench's tracer
from .problem import (
    EvalCounter,
    ProblemDefinition,
    RandomSource,
    Vector,
    clip_to_bounds,
    evaluate_rows,
    make_rng,
)
from .problem import evaluate  # noqa: F401  scalar reference, rebound by perfbench's tracer


@dataclass
class Cohort:
    """The C candidates as arrays; row i of each array is candidate i.

    ``interval_lower``/``interval_upper`` are ci-sapf's per-variable
    sampling intervals; the collision engine leaves them at the bounds.
    """

    positions: np.ndarray        # (C, D), clipped and rounded
    objective: np.ndarray        # (C,)
    violation: np.ndarray        # (C,)
    phi: np.ndarray              # (C,)
    interval_lower: np.ndarray   # (C, D)
    interval_upper: np.ndarray   # (C, D)


@dataclass(frozen=True)
class CiConfig:
    cohort_size: int = 5
    reduction_factor: float = 0.95
    variations_per_attempt: int = 1
    max_learning_attempts: int = 2000
    max_function_evaluations: int = 30000
    saturation_window: int = 20
    saturation_tolerance: float = 1e-6
    restart_on_saturation: bool = False
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    seed: int = 0

    def __post_init__(self):
        if self.cohort_size < 2:
            raise ValueError("cohort_size must be at least 2")
        if not 0.0 < self.reduction_factor < 1.0:
            raise ValueError("reduction_factor must lie strictly in (0, 1)")
        if self.variations_per_attempt < 1:
            raise ValueError("variations_per_attempt must be positive")
        if self.max_learning_attempts < 1 or self.max_function_evaluations < 1:
            raise ValueError("budgets must be positive")
        if self.saturation_window < 2:
            raise ValueError("saturation_window must be at least 2")
        if self.saturation_tolerance < 0.0:
            raise ValueError("saturation_tolerance must be non-negative")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """The incumbent after one learning attempt; a run keeps one per attempt."""

    attempt: int
    best_phi: float
    best_f: float
    best_violation: float


@dataclass
class RunResult:
    best_position: Vector
    best_objective: float
    best_phi: float
    best_violation: float
    feasible: bool
    function_evaluations: int
    learning_attempts: int
    wall_time: float
    trace: list[TraceRecord]


def incumbent_key(objective: float, violation: float, phi: float) -> tuple:
    """Ordering for the run incumbent: feasible (zero violation) beats
    infeasible, then lower objective among feasible, lower violation among
    infeasible, ties broken by lower phi."""
    if violation == 0.0:
        return (0, objective, phi)
    return (1, violation, phi)


def rank_order(cohort: Cohort) -> np.ndarray:
    """Cohort indices sorted ascending under :func:`incumbent_key`; the
    sort is stable, so equal keys keep index order."""
    infeasible = cohort.violation != 0.0
    return np.lexsort((cohort.phi,
                       np.where(infeasible, cohort.violation, cohort.objective),
                       infeasible))


@dataclass(frozen=True)
class Incumbent:
    """The best point of a run so far under :func:`incumbent_key`."""

    position: Vector
    objective: float
    violation: float
    phi: float


def offer(incumbent: Optional[Incumbent], cohort: Cohort) -> Incumbent:
    """The incumbent after seeing every cohort member, as if offered one
    by one in index order: the cohort's best (first of equals) replaces
    the incumbent only if strictly better."""
    i = rank_order(cohort)[0]
    objective = float(cohort.objective[i])
    violation = float(cohort.violation[i])
    phi = float(cohort.phi[i])
    if incumbent is None or (
            incumbent_key(objective, violation, phi)
            < incumbent_key(incumbent.objective, incumbent.violation, incumbent.phi)):
        return Incumbent(cohort.positions[i].copy(), objective, violation, phi)
    return incumbent


def selection_probabilities(phis: Sequence[float]) -> np.ndarray:
    """Follow probabilities proportional to 1/phi, lower phi more likely.

    Non-positive phis are first shifted by -min(phi) + delta with
    delta = 1e-9 * max(1, |min(phi)|) so the inversion stays defined.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.size == 0:
        raise ValueError("need at least one pseudo-objective")
    low = phis.min()
    if low <= 0.0:
        phis = phis + (-low + 1e-9 * max(1.0, abs(low)))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / phis
        total = inv.sum()
    if np.isinf(inv).any():
        # 1/phi overflowed: those phis are indistinguishable from the
        # limit, so all weight concentrates on them
        mask = np.isinf(inv)
        return mask / mask.sum()
    if total == 0.0:
        # every behavior infinitely bad: follow uniformly
        return np.full(phis.shape, 1.0 / phis.size)
    return inv / total


def roulette_select(probs: Sequence[float], u: float) -> int:
    """First index whose cumulative probability strictly exceeds u."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if acc > u:
            return i
    return len(probs) - 1


def roulette_indices(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``roulette_select(probs, u_k)`` for every draw ``u_k`` at once."""
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"),
                      len(probs) - 1)


def shrink_interval(followed_value, current_width, r: float, lower, upper):
    """Contract sampling intervals to width*r around the followed values,
    intersected with the variables' bounds; scalars or arrays.

    On a tie the bound is returned, as ``max(lower, v)`` would return it:
    np.maximum and np.minimum return their second argument on equal
    (signed-zero) inputs.
    """
    half = 0.5 * current_width * r
    return (np.maximum(followed_value - half, lower),
            np.minimum(followed_value + half, upper))


def initialize_cohort(problem: ProblemDefinition, cfg: CiConfig,
                      rng: RandomSource, counter: EvalCounter) -> Cohort:
    """C candidates sampled uniformly in the bounds, intervals spanning the
    full bounds, all evaluated (C function evaluations). ``cfg`` may be
    either engine's config: only its cohort size and penalty are read."""
    bounds = problem.bounds
    shape = (cfg.cohort_size, problem.dimension)
    points = clip_to_bounds(bounds.lower + rng.random(shape) * bounds.width,
                            bounds, problem.integer_index)
    objective, violation = evaluate_rows(problem, points, counter)
    return Cohort(points, objective, violation,
                  phi_values(objective, violation, cfg.penalty),
                  np.broadcast_to(bounds.lower, shape),
                  np.broadcast_to(bounds.upper, shape))


def learning_attempt(cohort: Cohort, problem: ProblemDefinition,
                     cfg: CiConfig, rng: RandomSource,
                     counter: EvalCounter) -> Cohort:
    """One full cohort iteration; costs exactly C * t evaluations.

    Probabilities and followed positions are those at attempt start. The
    one draw of C rows of 1 + t*D numbers consumes the stream as the
    candidate-by-candidate order did: per candidate one roulette number,
    then one D-vector per variation. Each candidate adopts its best
    variation, the first of equals.
    """
    c, dim = cohort.positions.shape
    t = cfg.variations_per_attempt
    draws = rng.random((c, 1 + t * dim))
    probs = selection_probabilities(cohort.phi)
    followed = cohort.positions[roulette_indices(probs, draws[:, 0])]
    lo, hi = shrink_interval(followed, cohort.interval_upper - cohort.interval_lower,
                             cfg.reduction_factor, problem.bounds.lower,
                             problem.bounds.upper)
    samples = lo[:, None, :] + draws[:, 1:].reshape(c, t, dim) * (hi - lo)[:, None, :]
    points = clip_to_bounds(samples.reshape(c * t, dim), problem.bounds,
                            problem.integer_index)
    objective, violation = evaluate_rows(problem, points, counter)
    phi = phi_values(objective, violation, cfg.penalty)
    # unconditional adoption: the new behavior replaces the old one
    best = np.arange(0, c * t, t) + phi.reshape(c, t).argmin(axis=1)
    return Cohort(points[best], objective[best], violation[best], phi[best], lo, hi)


def check_saturation(trace: Sequence[TraceRecord], window: int, tol: float,
                     start: int = 0) -> bool:
    """True iff the last ``window`` incumbent phis, all recorded at or after
    index ``start``, span a range <= tol."""
    if window < 2:
        raise ValueError("window must be at least 2")
    if len(trace) - start < window:
        return False
    phis = [rec.best_phi for rec in trace[-window:]]
    return max(phis) - min(phis) <= tol


def cohort_spread(cohort: Cohort) -> float:
    """Range of the cohort's current pseudo-objectives."""
    # Python floats: inf - inf is NaN (never saturated) without a warning
    return float(cohort.phi.max()) - float(cohort.phi.min())


def run_saturated(cohort: Cohort, trace: Sequence[TraceRecord],
                  window: int, tol: float, start: int = 0) -> bool:
    """Stopping rule: the incumbent has stalled over the window (counted
    from trace index ``start``) AND the candidates' behaviors have become
    almost the same. Requiring cohort consensus too keeps a momentary
    stall of the best-so-far from ending a run whose candidates are still
    spread out and learning."""
    return (check_saturation(trace, window, tol, start)
            and cohort_spread(cohort) <= tol)


def run_result(best: Incumbent, counter: EvalCounter, attempts: int,
               started: float, trace: list[TraceRecord]) -> RunResult:
    return RunResult(best_position=best.position,
                     best_objective=best.objective,
                     best_phi=best.phi,
                     best_violation=best.violation,
                     feasible=best.violation == 0.0,
                     function_evaluations=counter.count,
                     learning_attempts=attempts,
                     wall_time=time.perf_counter() - started,
                     trace=trace)


def ci_sapf_run(problem: ProblemDefinition, cfg: CiConfig) -> RunResult:
    """Full run: initialize, iterate learning attempts, stop on saturation
    or budget, return the incumbent with its per-attempt trace.

    An all-infeasible outcome is not an error; the result simply carries
    feasible=False and the smallest violation found.
    """
    rng = make_rng(cfg.seed)
    counter = EvalCounter()
    started = time.perf_counter()

    cohort = initialize_cohort(problem, cfg, rng, counter)
    best = offer(None, cohort)

    trace: list[TraceRecord] = []
    attempts = 0
    restart_mark = 0
    per_attempt = cfg.cohort_size * cfg.variations_per_attempt
    while (attempts < cfg.max_learning_attempts
           and counter.count + per_attempt <= cfg.max_function_evaluations):
        cohort = learning_attempt(cohort, problem, cfg, rng, counter)
        attempts += 1
        best = offer(best, cohort)
        trace.append(TraceRecord(attempt=attempts, best_phi=best.phi,
                                 best_f=best.objective,
                                 best_violation=best.violation))
        if run_saturated(cohort, trace, cfg.saturation_window,
                         cfg.saturation_tolerance, restart_mark):
            if (cfg.restart_on_saturation
                    and counter.count + cfg.cohort_size + per_attempt
                    <= cfg.max_function_evaluations):
                cohort = initialize_cohort(problem, cfg, rng, counter)
                best = offer(best, cohort)
                restart_mark = len(trace)
                continue
            break

    return run_result(best, counter, attempts, started, trace)
