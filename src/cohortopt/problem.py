"""Constrained problem model.

A problem is ``minimize f(x)`` subject to inequality constraints
``g_i(x) <= 0``, equality constraints ``h_j(x) = 0`` and box bounds.
Equalities are relaxed to ``|h_j(x)| - eps <= 0`` with a small tolerance
(1e-4 by default), so a point is feasible exactly when its aggregate
violation is zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

Vector = np.ndarray
ObjectiveFn = Callable[[Vector], float]
ConstraintFn = Callable[[Vector], float]

#: Deterministic random stream: same seed, same draws. One instance per run.
RandomSource = np.random.Generator


class DimensionMismatchError(ValueError):
    """Input vector length does not match the problem dimension."""


class EvaluationFaultError(RuntimeError):
    """An objective or constraint evaluator returned NaN.

    Infinities are not faults: they are passed through and neutralized by
    the penalty layer's infinity guard.
    """


class VarKind(enum.Enum):
    CONTINUOUS = "continuous"
    INTEGER = "integer"


class Category(enum.Enum):
    """The six benchmark suite domains."""

    INDUSTRIAL_CHEMICAL = "industrial_chemical"
    PROCESS_SYNTHESIS = "process_synthesis"
    MECHANICAL = "mechanical"
    POWER_SYSTEM = "power_system"
    POWER_ELECTRONICS = "power_electronics"
    LIVESTOCK = "livestock"


@dataclass(frozen=True)
class Bounds:
    """Per-dimension box ``lower[i] <= x[i] <= upper[i]``."""

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __len__(self) -> int:
        return self.lower.shape[0]

    @property
    def width(self) -> Vector:
        return self.upper - self.lower

    def contains(self, x: Vector) -> bool:
        return bool((x >= self.lower).all() and (x <= self.upper).all())


@dataclass(frozen=True)
class ConstraintEvaluation:
    g_values: tuple[float, ...]
    h_values: tuple[float, ...]


@dataclass(frozen=True)
class Evaluation:
    """Outcome of one objective/constraint evaluation at a point."""

    objective: float
    constraints: ConstraintEvaluation
    violation: float
    feasible: bool


@dataclass
class EvalCounter:
    """Mutable function-evaluation counter owned by a single run."""

    count: int = 0


@dataclass(frozen=True)
class ProblemDefinition:
    id: str
    name: str
    dimension: int
    bounds: Bounds
    kinds: tuple[VarKind, ...]
    objective_fn: ObjectiveFn
    inequality_fns: tuple[ConstraintFn, ...] = ()
    equality_fns: tuple[ConstraintFn, ...] = ()
    equality_tolerance: float = 1e-4
    best_known: Optional[float] = None
    category: Category = Category.MECHANICAL
    #: Indices of the integer dimensions, derived from ``kinds``.
    integer_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.bounds) != self.dimension:
            raise ValueError("bounds length must equal dimension")
        if len(self.kinds) != self.dimension:
            raise ValueError("kinds length must equal dimension")
        if self.equality_tolerance <= 0.0:
            raise ValueError("equality_tolerance must be positive")
        for i, kind in enumerate(self.kinds):
            if kind is VarKind.INTEGER:
                lo = self.bounds.lower[i]
                hi = self.bounds.upper[i]
                if lo != round(lo) or hi != round(hi):
                    raise ValueError(f"integer dimension {i} needs integral bounds")
        object.__setattr__(self, "inequality_fns", tuple(self.inequality_fns))
        object.__setattr__(self, "equality_fns", tuple(self.equality_fns))
        object.__setattr__(self, "integer_index", integer_index(self.kinds))


def make_rng(seed: int) -> RandomSource:
    """Deterministic generator; equal seeds yield equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


def equality_violation(h: float, eps: float) -> float:
    """Violation of a relaxed equality: ``max(0, |h| - eps)``."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return max(0.0, abs(h) - eps)


def total_violation(constraints: ConstraintEvaluation, eps: float) -> float:
    """Aggregate violation: positive parts of g plus relaxed-equality terms.

    Only violated constraints contribute; satisfied ones add exactly zero,
    so the result is 0 iff the point is feasible.
    """
    return _sum_violation(constraints.g_values, constraints.h_values, eps)


def _sum_violation(g_values: Sequence[float], h_values: Sequence[float],
                   eps: float) -> float:
    # sequential, g terms first: a pairwise np.sum would round differently
    total = 0.0
    for g in g_values:
        if g > 0.0:
            total += g
    for h in h_values:
        total += equality_violation(h, eps)
    return total


def integer_index(kinds: Sequence[VarKind]) -> np.ndarray:
    """Indices of the integer dimensions among ``kinds``."""
    return np.flatnonzero([kind is VarKind.INTEGER for kind in kinds])


def round_integers(x: Vector, integer_dims: np.ndarray) -> Vector:
    """A copy of ``x`` (one point or rows of points) with the integer
    dimensions rounded to the nearest integral value."""
    out = np.array(x, dtype=float)
    if integer_dims.size:
        out[..., integer_dims] = np.rint(out[..., integer_dims])
    return out


def clip_to_bounds(x: Vector, bounds: Bounds, integer_dims: np.ndarray) -> Vector:
    """Clamp one point ``(D,)`` or rows of points ``(n, D)`` into the box
    and round the integer dimensions (``integer_index`` of the kinds).

    Idempotent; integer dimensions stay in-bounds because their bounds are
    integral by construction.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != len(bounds):
        raise DimensionMismatchError(
            f"vector has length {x.shape[-1]}, bounds have length {len(bounds)}")
    return round_integers(np.clip(x, bounds.lower, bounds.upper), integer_dims)


def _call_at(problem: ProblemDefinition,
             x: Vector) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Objective, inequality values and equality values at the rounded
    point ``x``; NaN from any callable raises :class:`EvaluationFaultError`."""
    f = float(problem.objective_fn(x))
    if math.isnan(f):
        raise EvaluationFaultError(f"objective of {problem.id!r} returned NaN at {x.tolist()}")

    g_values = []
    for i, fn in enumerate(problem.inequality_fns):
        g = float(fn(x))
        if math.isnan(g):
            raise EvaluationFaultError(
                f"inequality constraint {i} of {problem.id!r} returned NaN at {x.tolist()}")
        g_values.append(g)
    h_values = []
    for j, fn in enumerate(problem.equality_fns):
        h = float(fn(x))
        if math.isnan(h):
            raise EvaluationFaultError(
                f"equality constraint {j} of {problem.id!r} returned NaN at {x.tolist()}")
        h_values.append(h)
    return f, tuple(g_values), tuple(h_values)


def evaluate(problem: ProblemDefinition, x: Vector,
             counter: Optional[EvalCounter] = None) -> Evaluation:
    """Evaluate objective and all constraints at ``x``.

    Integer dimensions are rounded before the evaluators run, so callers
    may hand in continuous samples. NaN from any evaluator raises
    :class:`EvaluationFaultError`; infinities pass through untouched.
    Counts as exactly one function evaluation.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != problem.dimension:
        raise DimensionMismatchError(
            f"problem {problem.id!r} has dimension {problem.dimension}, "
            f"got vector of shape {x.shape}")
    x = round_integers(x, problem.integer_index)

    f, g_values, h_values = _call_at(problem, x)
    constraints = ConstraintEvaluation(g_values, h_values)
    violation = total_violation(constraints, problem.equality_tolerance)
    if counter is not None:
        counter.count += 1
    return Evaluation(objective=f, constraints=constraints,
                      violation=violation, feasible=violation == 0.0)


def evaluate_rows(problem: ProblemDefinition, points: np.ndarray,
                  counter: Optional[EvalCounter] = None) -> tuple[np.ndarray, np.ndarray]:
    """Objective and aggregate violation of each row of ``points`` (n, D),
    with the NaN faults and the violation sum of :func:`evaluate`.

    The rows must already be clipped and rounded. Each row is handed to
    the problem's callables as its own copy, shared by that row's
    callables as in :func:`evaluate`, so a callable that writes into its
    argument cannot alter ``points``. Counts as n function evaluations.
    """
    rows = np.array(points, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != problem.dimension:
        raise DimensionMismatchError(
            f"problem {problem.id!r} has dimension {problem.dimension}, "
            f"got points of shape {rows.shape}")
    eps = problem.equality_tolerance
    objectives = []
    violations = []
    for x in rows:
        f, g_values, h_values = _call_at(problem, x)
        objectives.append(f)
        violations.append(_sum_violation(g_values, h_values, eps))
    if counter is not None:
        counter.count += len(rows)
    return np.array(objectives), np.array(violations)
