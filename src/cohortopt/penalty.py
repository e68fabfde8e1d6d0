"""Self-adaptive penalty and pseudo-objective.

The penalty multiplier is the candidate's own current objective value, so
no user-tuned penalty weight exists anywhere: a candidate with a large
objective penalizes its own constraint violations proportionally harder.
Three special regimes need care and get their own branches:

* negative objectives (the product f*violation would reward violation),
* objectives at or near zero (the product would vanish),
* infinite objectives (the product would poison downstream arithmetic).

Branch priority is infinity > negative > near-zero > standard; the sign
test precedes the magnitude test because the negative regime exists
specifically for f < 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Branch(enum.Enum):
    STANDARD = "standard"
    NEGATIVE = "negative"
    NEAR_ZERO = "near_zero"
    INFINITY_GUARD = "infinity_guard"


class NegativeMode(enum.Enum):
    """How the pseudo-objective folds a negative objective.

    LITERAL folds magnitude and penalty together, phi = |-f + penalty|;
    with zero violation this makes phi == |f|, which reverses the search
    direction for negative-objective minimization. SHIFT keeps the plain
    sum phi = f + penalty while still using the |f| penalty multiplier.
    Both are provided; LITERAL is the default.
    """

    LITERAL = "literal"
    SHIFT = "shift"


@dataclass(frozen=True)
class PenaltyConfig:
    near_zero_threshold: float = 1.0
    int_offset: float = 1.0
    infinity_substitute: float = 1.0
    negative_mode: NegativeMode = NegativeMode.LITERAL

    def __post_init__(self):
        # A zero threshold sends f == 0 to the standard branch, whose
        # penalty f * V then vanishes (and is NaN for V = inf).
        if self.near_zero_threshold <= 0.0:
            raise ValueError("near_zero_threshold must be positive")
        if self.int_offset <= 0.0:
            raise ValueError("int_offset must be positive")
        # Guarantees f + int_offset > 0 inside the near-zero branch.
        if self.int_offset < self.near_zero_threshold:
            raise ValueError("int_offset must be >= near_zero_threshold")
        if self.infinity_substitute <= 0.0:
            raise ValueError("infinity_substitute must be positive")


@dataclass(frozen=True)
class PseudoObjective:
    phi: float
    penalty: float
    branch_used: Branch


def select_branch(f: float, cfg: PenaltyConfig) -> Branch:
    """Pick the penalty regime for an objective value.

    Total and deterministic on finite-or-infinite reals; NaN is rejected.
    """
    if math.isnan(f):
        raise ValueError("objective value is NaN; cannot select a penalty branch")
    if math.isinf(f):
        return Branch.INFINITY_GUARD
    if f < 0.0:
        return Branch.NEGATIVE
    if f < cfg.near_zero_threshold:
        return Branch.NEAR_ZERO
    return Branch.STANDARD


def sapf_penalty(f: float, violation: float, branch: Branch,
                 cfg: PenaltyConfig) -> float:
    """Penalty term for the given branch; non-negative in all of them.

    standard: f * V, negative: |f| * V, near-zero: (f + int_offset) * V,
    infinity guard: infinity_substitute * V.
    """
    if violation < 0.0:
        raise ValueError("violation must be non-negative")
    if branch is Branch.STANDARD:
        return f * violation
    if branch is Branch.NEGATIVE:
        return abs(f) * violation
    if branch is Branch.NEAR_ZERO:
        return (f + cfg.int_offset) * violation
    return cfg.infinity_substitute * violation


def pseudo_objective(f: float, penalty: float, branch: Branch,
                     cfg: PenaltyConfig) -> PseudoObjective:
    """Combine objective and penalty into the value the cohort minimizes.

    The near-zero branch adds the penalty to the raw objective (the
    int_offset enters the penalty product only). The infinity guard
    substitutes the configured stand-in for f so the computation can
    continue on finite numbers.
    """
    if branch is Branch.NEGATIVE:
        if cfg.negative_mode is NegativeMode.LITERAL:
            phi = abs(-f + penalty)
        else:
            phi = f + penalty
    elif branch is Branch.INFINITY_GUARD:
        phi = cfg.infinity_substitute + penalty
    else:
        phi = f + penalty
    return PseudoObjective(phi=phi, penalty=penalty, branch_used=branch)


def score(f: float, violation: float, cfg: PenaltyConfig) -> PseudoObjective:
    """Branch selection, penalty and pseudo-objective in one step.

    Recomputed from the candidate's current objective on every call;
    nothing is cached across learning attempts.
    """
    branch = select_branch(f, cfg)
    penalty = sapf_penalty(f, violation, branch, cfg)
    return pseudo_objective(f, penalty, branch, cfg)


def phi_values(f: np.ndarray, violation: np.ndarray,
               cfg: PenaltyConfig) -> np.ndarray:
    """``score(f[i], violation[i], cfg).phi`` for every i at once.

    Same branch order and the same operations in the same order as the
    scalar path, so every element is bit-identical to it. Overflow to
    infinity is as silent as in Python float arithmetic.
    """
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
