"""Cohort search engine with interval-reduction sampling.

Each of C candidates keeps a per-variable sampling interval. Every
learning attempt: selection probabilities are computed from the current
pseudo-objectives, each candidate roulette-selects a peer to follow,
contracts its own interval by the reduction factor around the followed
peer's position, resamples inside it and adopts the best resample
unconditionally. The run stops on saturation of the incumbent trace or
when a budget is exhausted. The run loop (:func:`run_cohort`) is shared
with the collision engine, which supplies its own learning attempt.

Positions and sampling intervals are ``(C, D)`` arrays, and each step
draws, shrinks, samples, clips and rounds all candidates in one numpy
pass. The values of length C or C*t (objective, violation, phi, follow
probabilities, roulette picks, ranks) are lists of Python floats: at
cohort sizes of 5 to 20, numpy's fixed cost per call exceeds the
arithmetic. Seeded runs are bit-identical to running the same steps
candidate by candidate with the scalar references kept here and in
``penalty`` and ``problem`` (``roulette_select``, ``score``,
``evaluate``).
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .penalty import PenaltyConfig, score_phis
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

INF = math.inf


@dataclass
class Cohort:
    """The C candidates; row or item i of each field is candidate i.

    ``interval_width`` holds the widths of ci-sapf's per-variable sampling
    intervals, which the next shrink reads as they are; the collision
    engine leaves them at the bounds' widths. ``keys`` holds each
    candidate's :func:`incumbent_key`, computed once when the cohort is
    built; the engines never change a cohort after building it.
    """

    positions: np.ndarray        # (C, D), clipped and rounded
    objective: list[float]       # C Python floats
    violation: list[float]
    phi: list[float]
    interval_width: np.ndarray   # (C, D)
    keys: list[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.keys = list(map(incumbent_key, self.objective, self.violation, self.phi))


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
        check_run_limits(self)


def check_run_limits(cfg) -> None:
    """The checks both engines' configs make after their own: positive
    budgets, an FE budget that pays for the first cohort, a non-negative
    seed and a usable saturation rule."""
    if cfg.max_learning_attempts < 1 or cfg.max_function_evaluations < 1:
        raise ValueError("budgets must be positive")
    if cfg.max_function_evaluations < cfg.cohort_size:
        raise ValueError(
            f"max_function_evaluations ({cfg.max_function_evaluations}) cannot pay "
            f"for the first cohort of cohort_size ({cfg.cohort_size}) evaluations")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.saturation_window < 2:
        raise ValueError("saturation_window must be at least 2")
    # false for NaN too, which would never let a run saturate
    if not 0.0 <= cfg.saturation_tolerance < math.inf:
        raise ValueError("saturation_tolerance must be finite and non-negative")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """The incumbent after one learning attempt; a run keeps one per attempt."""

    attempt: int
    best_phi: float
    best_f: float
    best_violation: float


class Trace(Sequence[TraceRecord]):
    """The incumbent after each learning attempt of a run; record ``i`` is
    attempt ``i + 1``.

    Held as one float array per field, about 25 bytes per attempt where a
    list of :class:`TraceRecord` objects takes about 105. Indexing and
    iteration give ``TraceRecord`` values, and a trace equals any
    sequence of the same records.
    """

    __slots__ = ("best_phi", "best_f", "best_violation")

    def __init__(self):
        self.best_phi = array("d")
        self.best_f = array("d")
        self.best_violation = array("d")

    def append(self, phi: float, f: float, violation: float) -> None:
        self.best_phi.append(phi)
        self.best_f.append(f)
        self.best_violation.append(violation)

    def __len__(self) -> int:
        return len(self.best_phi)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return TraceRecord(i + 1, self.best_phi[i], self.best_f[i], self.best_violation[i])

    def __iter__(self):
        for i, values in enumerate(zip(self.best_phi, self.best_f, self.best_violation)):
            yield TraceRecord(i + 1, *values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return (self.best_phi == other.best_phi and self.best_f == other.best_f
                    and self.best_violation == other.best_violation)
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented


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
    trace: Trace


def incumbent_key(objective: float, violation: float, phi: float) -> tuple:
    """Ordering for the run incumbent: feasible (zero violation) beats
    infeasible, then lower objective among feasible, lower violation among
    infeasible, ties broken by lower phi.

    The raw objective is ranked, so a feasible objective of -inf ranks
    first and is reported as -inf; only its phi uses the penalty's
    ``infinity_substitute``."""
    if violation == 0.0:
        return (0, objective, phi)
    return (1, violation, phi)


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
    keys = cohort.keys
    best = min(keys)
    if incumbent is None or best < incumbent_key(
            incumbent.objective, incumbent.violation, incumbent.phi):
        i = keys.index(best)   # the first of equal keys
        return Incumbent(cohort.positions[i].copy(), cohort.objective[i],
                         cohort.violation[i], cohort.phi[i])
    return incumbent


def selection_probabilities(phis: Sequence[float]) -> list[float]:
    """Follow probabilities proportional to 1/phi, lower phi more likely.

    Non-positive phis are first shifted by -min(phi) + delta with
    delta = 1e-9 * max(1, |min(phi)|) so the inversion stays defined.
    """
    if len(phis) == 0:
        raise ValueError("need at least one pseudo-objective")
    low = min(phis)
    if low <= 0.0:
        shift = -low + 1e-9 * max(1.0, abs(low))
        phis = [phi + shift for phi in phis]
    inv = [1.0 / phi for phi in phis]
    top = max(inv)
    if top == INF:
        # 1/phi overflowed: those phis are indistinguishable from the
        # limit, so all weight concentrates on them
        share = 1.0 / inv.count(INF)
        return [share if x == INF else 0.0 for x in inv]
    total = pairwise_sum(inv)
    if total == INF:
        # every 1/phi is finite but their sum is not: scale before summing
        inv = [x / top for x in inv]
        total = pairwise_sum(inv)
    if total == 0.0:
        # every behavior infinitely bad: follow uniformly
        return [1.0 / len(inv)] * len(inv)
    return [x / total for x in inv]


def pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values`` with the bits of ``np.add.reduce`` on a float64
    array, which seeded results depend on: under 8 terms left to right
    from 0.0; up to 128 in eight accumulators (term i to accumulator
    i % 8) added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the tail left to right; longer runs split at half the length
    rounded down to a multiple of 8. The builtin ``sum`` rounds
    differently (and is compensated from Python 3.12 on)."""
    n = len(values)
    if n > 128:
        half = n // 2
        half -= half % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    if n < 8:
        total, m = 0.0, 0
    else:
        m = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, m, 8):
            s0, s1, s2, s3, s4, s5, s6, s7 = values[i:i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = (
                r0 + s0, r1 + s1, r2 + s2, r3 + s3, r4 + s4, r5 + s5, r6 + s6, r7 + s7)
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for x in values[m:]:
        total += x
    return total


def roulette_select(probs: Sequence[float], u: float) -> int:
    """First index whose cumulative probability strictly exceeds u."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if acc > u:
            return i
    return len(probs) - 1


def roulette_picks(probs: Sequence[float], draws: Sequence[float]) -> list[int]:
    """``roulette_select(probs, u)`` for every draw ``u`` in [0, 1): the
    first cumulative probability above u, else the last index."""
    cumulative = list(accumulate(probs))
    # every draw is below +inf, so a shortfall lands on the last index
    cumulative[-1] = INF
    return [bisect_right(cumulative, u) for u in draws]


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
                            bounds, problem.rounding_index)
    objective, violation = evaluate_rows(problem, points, counter)
    return Cohort(points, objective, violation,
                  score_phis(objective, violation, cfg.penalty),
                  np.broadcast_to(bounds.width, shape))


def learning_attempt(cohort: Cohort, problem: ProblemDefinition,
                     cfg: CiConfig, rng: RandomSource,
                     counter: EvalCounter, attempt: int = 0) -> Cohort:
    """One full cohort iteration; costs exactly C * t evaluations. The
    interval rule does not depend on ``attempt``, the attempts done so far.

    Probabilities and followed positions are those at attempt start. The
    one draw of C rows of 1 + t*D numbers consumes the stream as the
    candidate-by-candidate order did: per candidate one roulette number,
    then one D-vector per variation. The shrink reads the cohort's carried
    interval widths, and the new intervals' widths ``hi - lo``, which
    scale the samples, are carried on to the next cohort. Each candidate
    adopts its best variation, the first of equals; with one variation
    per candidate (t = 1, the default) the drawn rows and their lists are
    the next cohort as they are.
    """
    c, dim = cohort.positions.shape
    t = cfg.variations_per_attempt
    draws = rng.random((c, 1 + t * dim))
    picks = roulette_picks(selection_probabilities(cohort.phi), draws[:, 0].tolist())
    followed = cohort.positions.take(picks, axis=0)
    lo, hi = shrink_interval(followed, cohort.interval_width, cfg.reduction_factor,
                             problem.bounds.lower, problem.bounds.upper)
    width = hi - lo
    samples = lo[:, None, :] + draws[:, 1:].reshape(c, t, dim) * width[:, None, :]
    points = clip_to_bounds(samples.reshape(c * t, dim), problem.bounds,
                            problem.rounding_index)
    objective, violation = evaluate_rows(problem, points, counter)
    phi = score_phis(objective, violation, cfg.penalty)
    if t == 1:
        return Cohort(points, objective, violation, phi, width)
    # unconditional adoption: each candidate's best variation replaces its
    # old behavior; the strict < keeps the first of equal phis
    best, kept_objective, kept_violation, kept_phi = [], [], [], []
    for k in range(0, c * t, t):
        i, low = k, phi[k]
        for j in range(k + 1, k + t):
            if phi[j] < low:
                i, low = j, phi[j]
        best.append(i)
        kept_objective.append(objective[i])
        kept_violation.append(violation[i])
        kept_phi.append(low)
    return Cohort(points.take(best, axis=0), kept_objective, kept_violation,
                  kept_phi, width)


def run_saturated(cohort: Cohort, trace: Trace,
                  window: int, tol: float, start: int = 0) -> bool:
    """Stopping rule: the last ``window`` incumbent phis, all recorded at
    or after trace index ``start``, span a range <= tol (the incumbent has
    stalled) AND so do the cohort's current phis (the candidates' behaviors
    have become almost the same). Requiring cohort consensus too keeps a
    momentary stall of the best-so-far from ending a run whose candidates
    are still spread out and learning. ``window`` is at least 2, as the
    configs require."""
    # the C-float spread first, as the cheaper test; inf - inf is NaN
    # (never saturated), without a warning in Python floats
    phi, phis = cohort.phi, trace.best_phi
    if not max(phi) - min(phi) <= tol or len(phis) - start < window:
        return False
    phis = phis[-window:]
    return max(phis) - min(phis) <= tol


def run_cohort(problem: ProblemDefinition, cfg, per_attempt: int,
               step: Callable[..., Cohort], restart: bool) -> RunResult:
    """The run loop both engines share: initialize, iterate learning
    attempts, stop on saturation or budget, return the incumbent with its
    per-attempt trace. ``cfg`` is either engine's config.

    ``step(cohort, problem, cfg, rng, counter, attempt)`` is the engine's
    learning attempt: it returns the next cohort after spending exactly
    ``per_attempt`` evaluations, ``attempt`` being the number of attempts
    done before it. With ``restart``, a saturated cohort is re-initialized
    while the FE budget still affords it and one more attempt; the
    incumbent is kept. An all-infeasible outcome is not an error; the
    result simply carries feasible=False and the smallest violation found.
    """
    rng = make_rng(cfg.seed)
    counter = EvalCounter()
    started = time.perf_counter()

    cohort = initialize_cohort(problem, cfg, rng, counter)
    best = offer(None, cohort)

    trace = Trace()
    attempts = 0
    restart_mark = 0
    while (attempts < cfg.max_learning_attempts
           and counter.count + per_attempt <= cfg.max_function_evaluations):
        cohort = step(cohort, problem, cfg, rng, counter, attempts)
        attempts += 1
        best = offer(best, cohort)
        trace.append(best.phi, best.objective, best.violation)
        if run_saturated(cohort, trace, cfg.saturation_window,
                         cfg.saturation_tolerance, restart_mark):
            if (restart
                    and counter.count + cfg.cohort_size + per_attempt
                    <= cfg.max_function_evaluations):
                cohort = initialize_cohort(problem, cfg, rng, counter)
                best = offer(best, cohort)
                restart_mark = len(trace)
                continue
            break

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
    """Full ci-sapf run: :func:`run_cohort` over :func:`learning_attempt`."""
    return run_cohort(problem, cfg, cfg.cohort_size * cfg.variations_per_attempt,
                      learning_attempt, cfg.restart_on_saturation)
