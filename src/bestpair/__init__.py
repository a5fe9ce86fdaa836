"""Best approximation pairs between disjoint intersections of convex sets.

The solver replaces projections onto the intersections themselves by weighted
sums of projections onto the generating sets, applied in alternating anchored
sweeps of growing length.
"""

from .errors import (
    DimensionMismatch,
    EllipsoidRootFindError,
    MaxIterExceeded,
    MaxOuterExceeded,
    MisclassifiedPoint,
    NoFeasiblePoint,
    PreconditionGapZero,
    ProblemValidationError,
    SamplingFailure,
    TraceTooShort,
)
from .intersection import project_intersection
from .operators import (
    Family,
    SteeringSchedule,
    apply_m,
    apply_m_hat,
    apply_q_hat,
    q_hat_path,
    shlwb_project,
)
from .oracles import (
    OracleResult,
    UniquenessCertificate,
    analytic_two_ball_pair,
    brute_force_pair,
    dini_monotonicity_check,
    fix_set_audit,
    lemma2_surjectivity_probe,
    separation_check,
    uniqueness_certificate,
)
from .sets import (
    Ball,
    Box,
    Ellipsoid,
    HalfSpace,
    Hyperplane,
    set_from_dict,
    set_to_dict,
)
from .solver import (
    BestPair,
    IterationTrace,
    Problem,
    SolverOptions,
    extract_best_pair,
    run_ashlwb,
    run_cheney_goldstein,
    validate_problem,
)

__all__ = [
    "Ball",
    "BestPair",
    "Box",
    "DimensionMismatch",
    "Ellipsoid",
    "EllipsoidRootFindError",
    "Family",
    "HalfSpace",
    "Hyperplane",
    "IterationTrace",
    "MaxIterExceeded",
    "MaxOuterExceeded",
    "MisclassifiedPoint",
    "NoFeasiblePoint",
    "OracleResult",
    "PreconditionGapZero",
    "Problem",
    "ProblemValidationError",
    "SamplingFailure",
    "SolverOptions",
    "SteeringSchedule",
    "TraceTooShort",
    "UniquenessCertificate",
    "analytic_two_ball_pair",
    "apply_m",
    "apply_m_hat",
    "apply_q_hat",
    "brute_force_pair",
    "dini_monotonicity_check",
    "extract_best_pair",
    "fix_set_audit",
    "lemma2_surjectivity_probe",
    "project_intersection",
    "q_hat_path",
    "run_ashlwb",
    "run_cheney_goldstein",
    "separation_check",
    "set_from_dict",
    "set_to_dict",
    "shlwb_project",
    "uniqueness_certificate",
    "validate_problem",
]
