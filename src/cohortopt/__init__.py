"""Cohort-based constrained optimization.

Two solver engines share a problem model and a self-adaptive penalty: a
cohort search that contracts per-candidate sampling intervals, and a
hybrid that replaces interval reduction with collision-style position
updates. A registry of classic constrained benchmarks and a batch
experiment driver round out the package.

The names below are the public API; everything else is importable from
its submodule (``problem``, ``penalty``, ``cohort``, ``collision``,
``suite``, ``bench``, ``cli``).
"""

from .problem import (
    Bounds,
    DimensionMismatchError,
    EvaluationFaultError,
    ProblemDefinition,
    VarKind,
)
from .penalty import NegativeMode, PenaltyConfig
from .cohort import CiConfig, RunResult, ci_sapf_run
from .collision import CboConfig, ci_sapf_cbo_run
from .suite import UnknownProblemError
from .bench import Algorithm
from . import suite

__all__ = [
    "Algorithm",
    "Bounds",
    "CboConfig",
    "CiConfig",
    "DimensionMismatchError",
    "EvaluationFaultError",
    "NegativeMode",
    "PenaltyConfig",
    "ProblemDefinition",
    "RunResult",
    "UnknownProblemError",
    "VarKind",
    "ci_sapf_cbo_run",
    "ci_sapf_run",
    "suite",
]

__version__ = "0.1.0"
