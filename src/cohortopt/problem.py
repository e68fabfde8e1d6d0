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
from functools import partial
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
    #: Optional ``point_fn(x) -> (f, g_values, h_values)`` at one point ``x``
    #: given as a list of Python floats. When set, :func:`evaluate` and
    #: :func:`evaluate_rows` call only it, so the scalar callables must
    #: return the same values.
    point_fn: Optional[Callable[[list], tuple]] = None
    #: The boolean :func:`integer_index` of ``kinds`` if any dimension is
    #: integer, else None: what the engines and :func:`evaluate` pass to
    #: the rounding, so that a problem without integer dimensions skips it
    #: with no test of the index.
    rounding_index: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if len(self.bounds) != self.dimension:
            raise ValueError("bounds length must equal dimension")
        if len(self.kinds) != self.dimension:
            raise ValueError("kinds length must equal dimension")
        # an inf or NaN eps would drop every equality term unseen: the NaN
        # screen reads f, g and h, not |h| - eps
        if not 0.0 < self.equality_tolerance < math.inf:
            raise ValueError(f"equality_tolerance must be finite and positive, "
                             f"got {self.equality_tolerance!r}")
        for i, kind in enumerate(self.kinds):
            if kind is VarKind.INTEGER:
                lo = self.bounds.lower[i]
                hi = self.bounds.upper[i]
                if lo != round(lo) or hi != round(hi):
                    raise ValueError(f"integer dimension {i} needs integral bounds")
        object.__setattr__(self, "inequality_fns", tuple(self.inequality_fns))
        object.__setattr__(self, "equality_fns", tuple(self.equality_fns))
        index = integer_index(self.kinds)
        object.__setattr__(self, "rounding_index", index if index.any() else None)


def make_rng(seed: int) -> RandomSource:
    """Deterministic generator; equal seeds yield equal streams."""
    return np.random.Generator(np.random.PCG64(seed))


def integer_index(kinds: Sequence[VarKind]) -> np.ndarray:
    """Boolean index of the integer dimensions among ``kinds``: True
    where the kind is integer."""
    return np.array([kind is VarKind.INTEGER for kind in kinds], dtype=bool)


def round_integers(x: Vector, integer_dims: Optional[np.ndarray]) -> Vector:
    """Round the integer dimensions of ``x`` (one float point or rows of
    points), given by the boolean index ``integer_dims``, to the nearest
    integral value in place; returns ``x``. None rounds nothing."""
    # one masked ufunc call: a fancy-index get and set would cost more
    if integer_dims is not None:
        np.rint(x, out=x, where=integer_dims)
    return x


def clip_to_bounds(x: Vector, bounds: Bounds,
                   integer_dims: Optional[np.ndarray]) -> Vector:
    """Clamp one point ``(D,)`` or rows of points ``(n, D)`` into the box
    and round the integer dimensions (``integer_index`` of the kinds, or
    None for none).

    Idempotent; integer dimensions stay in-bounds because their bounds are
    integral by construction.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != len(bounds):
        raise DimensionMismatchError(
            f"vector has length {x.shape[-1]}, bounds have length {len(bounds)}")
    # np.clip's values, signed zeros included, for less call overhead; the
    # rounding writes into the fresh np.minimum output
    return round_integers(np.minimum(np.maximum(x, bounds.lower), bounds.upper),
                          integer_dims)


def _call_at(problem: ProblemDefinition,
             x: Vector) -> tuple[float, list[float], list[float]]:
    """Objective, inequality values and equality values of the problem's
    scalar callables at ``x``, called in that order."""
    return (float(problem.objective_fn(x)),
            [float(fn(x)) for fn in problem.inequality_fns],
            [float(fn(x)) for fn in problem.equality_fns])


def _raise_on_nan(problem: ProblemDefinition, x, f: float,
                  g_values: Sequence[float], h_values: Sequence[float]) -> None:
    """Raise :class:`EvaluationFaultError` for the first NaN among f, the
    inequality values and the equality values, in that order."""
    point = np.asarray(x, dtype=float).tolist()
    if math.isnan(f):
        raise EvaluationFaultError(f"objective of {problem.id!r} returned NaN at {point}")
    for i, g in enumerate(g_values):
        if math.isnan(g):
            raise EvaluationFaultError(
                f"inequality constraint {i} of {problem.id!r} returned NaN at {point}")
    for j, h in enumerate(h_values):
        if math.isnan(h):
            raise EvaluationFaultError(
                f"equality constraint {j} of {problem.id!r} returned NaN at {point}")


def evaluate(problem: ProblemDefinition, x: Vector,
             counter: Optional[EvalCounter] = None) -> Evaluation:
    """Evaluate objective and all constraints at ``x``: the one-row case
    of :func:`evaluate_rows`, with the constraint values kept.

    Integer dimensions are rounded before the evaluators run, so callers
    may hand in continuous samples. NaN from any evaluator raises
    :class:`EvaluationFaultError`; infinities pass through untouched.
    Counts as exactly one function evaluation.
    """
    x = np.array(x, dtype=float)   # rounded in place below
    if x.ndim != 1 or x.shape[0] != problem.dimension:
        raise DimensionMismatchError(
            f"problem {problem.id!r} has dimension {problem.dimension}, "
            f"got vector of shape {x.shape}")
    round_integers(x, problem.rounding_index)
    kept = []
    (f,), (violation,) = _evaluate_rows(problem, x[None], counter, kept)
    g_values, h_values = kept[0]
    constraints = ConstraintEvaluation(tuple(map(float, g_values)),
                                       tuple(map(float, h_values)))
    return Evaluation(objective=f, constraints=constraints,
                      violation=violation, feasible=violation == 0.0)


def evaluate_rows(problem: ProblemDefinition, points: np.ndarray,
                  counter: Optional[EvalCounter] = None) -> tuple[list[float], list[float]]:
    """Objective and aggregate violation of each row of ``points`` (n, D),
    as lists of Python floats. The violation adds each positive g, then
    each positive ``|h| - eps``, to 0.0 in order. NaN from any evaluator
    raises :class:`EvaluationFaultError` naming the first NaN among f, the
    g values and the h values; infinities pass through untouched.

    The rows must already be clipped and rounded. A problem's
    ``point_fn`` gets each row once as a list of Python floats. Otherwise
    each row is handed to the problem's callables as its own copy, shared
    by that row's callables, so a callable that writes into its argument
    cannot alter ``points``. Counts as n function evaluations.
    """
    if points.ndim != 2 or points.shape[1] != problem.dimension:
        raise DimensionMismatchError(
            f"problem {problem.id!r} has dimension {problem.dimension}, "
            f"got points of shape {points.shape}")
    return _evaluate_rows(problem, points, counter)


def _evaluate_rows(problem: ProblemDefinition, points: np.ndarray,
                   counter: Optional[EvalCounter],
                   kept: Optional[list] = None) -> tuple[list[float], list[float]]:
    """The loop of :func:`evaluate_rows`; appends each row's
    ``(g_values, h_values)`` to ``kept`` if given."""
    if problem.point_fn is None:
        rows, call = np.array(points, dtype=float), partial(_call_at, problem)
    else:
        rows, call = points.tolist(), problem.point_fn
    eps = problem.equality_tolerance
    objectives = []
    violations = []
    for x in rows:
        f, g_values, h_values = call(x)
        # a term adds only when positive: the same bits as adding
        # max(0.0, term) to a total that is at least +0.0
        total = 0.0
        for g in g_values:
            if g > 0.0:
                total += g
            elif g != g:
                _raise_on_nan(problem, x, f, g_values, h_values)
        for h in h_values:
            h = abs(h) - eps
            if h > 0.0:
                total += h
            elif h != h:
                _raise_on_nan(problem, x, f, g_values, h_values)
        if f != f:
            _raise_on_nan(problem, x, f, g_values, h_values)
        objectives.append(float(f))
        violations.append(float(total))
        if kept is not None:
            kept.append((g_values, h_values))
    if counter is not None:
        counter.count += len(rows)
    return objectives, violations
