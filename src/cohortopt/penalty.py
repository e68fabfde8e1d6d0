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
from typing import Sequence

INF = math.inf


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
        # A zero or NaN threshold sends f == 0 to the standard branch, whose
        # penalty f * V then vanishes (and is NaN for V = inf); a NaN or
        # infinite offset or substitute makes phi NaN.
        for name in ("near_zero_threshold", "int_offset", "infinity_substitute"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        # Guarantees f + int_offset > 0 inside the near-zero branch.
        if self.int_offset < self.near_zero_threshold:
            raise ValueError("int_offset must be >= near_zero_threshold")


@dataclass(frozen=True)
class PseudoObjective:
    phi: float
    penalty: float
    branch_used: Branch


def score(f: float, violation: float, cfg: PenaltyConfig) -> PseudoObjective:
    """Branch, penalty and pseudo-objective of one candidate, recomputed
    from its current objective on every call; nothing is cached.

    Penalties, all non-negative: standard f * V, negative |f| * V,
    near-zero (f + int_offset) * V (phi adds it to the raw f), infinity
    guard infinity_substitute * V (phi substitutes the stand-in for f, so
    the computation continues on finite numbers). A NaN f and a negative
    V are rejected.
    """
    if math.isnan(f):
        raise ValueError("objective value is NaN; cannot select a penalty branch")
    if violation < 0.0:
        raise ValueError("violation must be non-negative")
    if math.isinf(f):
        penalty = cfg.infinity_substitute * violation
        return PseudoObjective(cfg.infinity_substitute + penalty, penalty,
                               Branch.INFINITY_GUARD)
    if f < 0.0:
        penalty = abs(f) * violation
        if cfg.negative_mode is NegativeMode.LITERAL:
            return PseudoObjective(abs(-f + penalty), penalty, Branch.NEGATIVE)
        return PseudoObjective(f + penalty, penalty, Branch.NEGATIVE)
    if f < cfg.near_zero_threshold:
        penalty = (f + cfg.int_offset) * violation
        return PseudoObjective(f + penalty, penalty, Branch.NEAR_ZERO)
    penalty = f * violation
    return PseudoObjective(f + penalty, penalty, Branch.STANDARD)


def score_phis(objective: Sequence[float], violation: Sequence[float],
               cfg: PenaltyConfig) -> list[float]:
    """``score(f, v, cfg).phi`` for each pair of ``objective`` and
    ``violation`` values, as a list of Python floats.

    The same branch order and the same operations in the same order as
    :func:`score`, so every value is bit-identical to it; overflow to
    infinity is silent in Python float arithmetic. One loop over the
    values: at cohort sizes of 5 to 20, numpy's fixed cost per call
    exceeds the arithmetic.
    """
    threshold = cfg.near_zero_threshold
    offset = cfg.int_offset
    substitute = cfg.infinity_substitute
    literal = cfg.negative_mode is NegativeMode.LITERAL
    phis = []
    append = phis.append
    for f, v in zip(objective, violation):
        if f == INF or f == -INF:
            append(substitute + substitute * v)
        elif f < 0.0:
            penalty = -f * v    # abs(f) * v
            append(abs(-f + penalty) if literal else f + penalty)
        elif f < threshold:
            append(f + (f + offset) * v)
        else:
            append(f + f * v)
    return phis
