"""Cohort-based constrained optimization.

Two solver engines share a problem model and a self-adaptive penalty: a
cohort search that contracts per-candidate sampling intervals, and a
hybrid that replaces interval reduction with collision-style position
updates. A registry of classic constrained benchmarks and a batch
experiment driver round out the package.
"""

from .problem import (
    Bounds,
    Category,
    ConstraintEvaluation,
    DimensionMismatchError,
    EvalCounter,
    Evaluation,
    EvaluationFaultError,
    ProblemDefinition,
    RandomSource,
    VarKind,
    clip_to_bounds,
    equality_violation,
    evaluate,
    evaluate_rows,
    integer_index,
    make_rng,
    total_violation,
)
from .penalty import (
    Branch,
    NegativeMode,
    PenaltyConfig,
    PseudoObjective,
    phi_values,
    pseudo_objective,
    sapf_penalty,
    score,
    select_branch,
)
from .cohort import (
    CiConfig,
    Cohort,
    RunResult,
    TraceRecord,
    check_saturation,
    ci_sapf_run,
    cohort_spread,
    run_saturated,
    incumbent_key,
    initialize_cohort,
    learning_attempt,
    roulette_select,
    selection_probabilities,
    shrink_interval,
)
from .collision import (
    CboConfig,
    CollisionState,
    CorSchedule,
    assign_roles,
    ci_sapf_cbo_run,
    collision_state,
    cor_epsilon,
    masses,
    update_positions,
    velocity_after_moving,
    velocity_after_stationary,
    velocity_before,
)
from .suite import (
    ProblemRecord,
    UnknownProblemError,
    get_problem,
    get_record,
    list_problems,
    load_descriptor_file,
)
from .bench import (
    Algorithm,
    ExperimentConfig,
    ExperimentOutcome,
    RunRecord,
    RunStatistics,
    compute_statistics,
    emit_report,
    run_experiment,
    solve_once,
)

__version__ = "0.1.0"
