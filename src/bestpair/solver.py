"""Alternating anchored-sweep solver for best approximation pairs.

Given two families of convex sets whose intersections A and B are disjoint,
the solver alternates growing anchored sweeps: sweep r applies r+1 anchored
steps on family A to produce the next odd iterate, then r+1 steps on family B
for the next even iterate.  Under the convergence hypotheses the odd iterates
tend to a point of A, the even iterates to a point of B, and the pair attains
dist(A, B).  A classical alternating-projection baseline and a problem
validator live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    MaxOuterExceeded,
    ProblemValidationError,
    TraceTooShort,
    UnboundedFamily,
)
from .intersection import project_intersection
from .operators import Family, apply_q_hat, q_hat_path
from .sets import family_bounding_radius

DISJOINTNESS_TOL = 1e-6
# Accuracy of the baseline's inner projections and its outer-iteration budget
BASELINE_INNER_TOL = 1e-8
BASELINE_MAX_OUTER = 10_000

# Converged requires mutual-projection residuals below this fraction of
# fixed_point_tol; a unit factor would leave the trailing-sweep gaps exactly
# at their acceptance bound.
_STOP_RESIDUAL_FACTOR = 0.5


@dataclass(frozen=True)
class SolverOptions:
    max_sweeps: int = 200
    pair_gap_tol: float = 1e-4
    fixed_point_tol: float = 1e-4
    record_inner_steps: bool = False

    def __post_init__(self):
        if (isinstance(self.max_sweeps, bool)
                or not isinstance(self.max_sweeps, (int, np.integer))
                or self.max_sweeps < 1):
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
        for name in ("pair_gap_tol", "fixed_point_tol"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class Problem:
    """Two families and solver options.  `rho` is derived: B[0, rho] is the
    smallest origin-centred ball that holds every bounded member of both
    families, and a family without one raises ProblemValidationError."""

    family_a: Family
    family_b: Family
    options: SolverOptions = field(default_factory=SolverOptions)
    seed: int = 0
    rho: float = field(init=False)

    def __post_init__(self):
        if self.family_a.dim != self.family_b.dim:
            raise DimensionMismatch("families have different dimensions")
        radii = []
        for label, fam in (("A", self.family_a), ("B", self.family_b)):
            try:
                radii.append(family_bounding_radius(fam))
            except UnboundedFamily as exc:
                raise ProblemValidationError(
                    f"family {label} has no bounded member; the bounding hypothesis fails"
                ) from exc
        rho = max(radii)
        if not np.isfinite(rho):  # rho = 0 passes here and fails validation as not disjoint
            raise ValueError(f"rho must be finite, got {rho!r}")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self):
        return self.family_a.dim


@dataclass
class ProblemReport:
    """Outcome of problem validation."""

    distance: float
    feasibility_a: float
    feasibility_b: float


@dataclass
class TraceEntry:
    k: int
    x: np.ndarray
    phase: str  # "A" or "B"
    sweep: int
    gap: float
    inner: np.ndarray | None = None  # (sweep+1, n) step outputs when recorded


@dataclass
class IterationTrace:
    x0: np.ndarray
    x0_projected: bool
    entries: list
    terminal: str  # "Converged" or "MaxSweeps"

    def odd_entries(self):
        return [e for e in self.entries if e.phase == "A"]

    def even_entries(self):
        return [e for e in self.entries if e.phase == "B"]

    @property
    def sweeps(self) -> int:
        return len(self.entries) // 2


@dataclass
class BestPair:
    """Candidate pair with its gap and reference-projection residuals.

    residuals = (||a - P_A a||, ||b - P_B b||, ||a - P_A b||, ||b - P_B a||).
    """

    a: np.ndarray
    b: np.ndarray
    gap: float
    residuals: tuple
    iterations: int | None = None

    def to_dict(self):
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "gap": self.gap,
            "residuals": {
                "a_to_A": self.residuals[0],
                "b_to_B": self.residuals[1],
                "a_vs_PA_b": self.residuals[2],
                "b_vs_PB_a": self.residuals[3],
            },
            "iterations": self.iterations,
        }


def _family_feasibility(fam: Family, label: str) -> float:
    """Worst member distance of the origin's reference projection, which comes
    back only within REFERENCE_TOL of every member; an empty intersection stalls."""
    origin = np.zeros(fam.dim)
    try:
        y = project_intersection(fam, origin)
    except MaxIterExceeded as exc:
        raise ProblemValidationError(
            f"family {label} intersection appears empty (projection stalled)"
        ) from exc
    return float(np.max(fam.member_distances(y)))


def _alternate_projections(problem: Problem):
    """Iterate z <- P_B(P_A(z)) from the origin with reference projections;
    returns (u, z, k)."""
    z = np.zeros(problem.dim)
    tol = problem.options.pair_gap_tol
    for k in range(BASELINE_MAX_OUTER):
        u = project_intersection(problem.family_a, z, tol=BASELINE_INNER_TOL)
        z_new = project_intersection(problem.family_b, u, tol=BASELINE_INNER_TOL)
        if float(np.linalg.norm(z_new - z)) <= tol:
            u = project_intersection(problem.family_a, z_new, tol=BASELINE_INNER_TOL)
            return u, z_new, k + 1
        z = z_new
    raise MaxOuterExceeded(f"no convergence within {BASELINE_MAX_OUTER} outer iterations")


def validate_problem(problem: Problem) -> ProblemReport:
    """Check that both intersections are nonempty and disjoint (the bounding
    hypothesis is checked by Problem); raises ProblemValidationError."""
    feas_a = _family_feasibility(problem.family_a, "A")
    feas_b = _family_feasibility(problem.family_b, "B")
    u, z, _ = _alternate_projections(problem)
    distance = float(np.linalg.norm(u - z))
    if distance <= DISJOINTNESS_TOL:
        raise ProblemValidationError(
            f"families not disjoint (distance estimate {distance:.3e})"
        )
    return ProblemReport(distance=distance, feasibility_a=feas_a, feasibility_b=feas_b)


def _best_pair(problem: Problem, a, b, iterations) -> BestPair:
    """The pair (a, b) with its gap and its four reference residuals."""
    fam_a, fam_b = problem.family_a, problem.family_b
    return BestPair(
        a=a,
        b=b,
        gap=float(np.linalg.norm(a - b)),
        residuals=(
            float(np.linalg.norm(a - project_intersection(fam_a, a))),
            float(np.linalg.norm(b - project_intersection(fam_b, b))),
            float(np.linalg.norm(a - project_intersection(fam_a, b))),
            float(np.linalg.norm(b - project_intersection(fam_b, a))),
        ),
        iterations=iterations,
    )


def run_ashlwb(problem: Problem, x0=None) -> IterationTrace:
    """Run the alternating sweep scheme from x0 (default: the origin).

    Sweep r applies r+1 anchored steps with steering indices restarting at 0:
    x^{2r+1} from family A anchored at x^{2r}, then x^{2r+2} from family B
    anchored at x^{2r+1}.  Stops Converged when consecutive odd-iterate and
    even-iterate changes fall below pair_gap_tol and the mutual-projection
    residuals fall below fixed_point_tol/2, else MaxSweeps.  A non-finite x0
    is rejected with ValueError before any work is done, and a problem that
    fails `validate_problem` with ProblemValidationError.
    """
    if x0 is None:
        x0 = np.zeros(problem.dim)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise DimensionMismatch("x0 dimension does not match the problem")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    validate_problem(problem)
    norm = float(np.linalg.norm(x0))
    projected = norm > problem.rho
    if projected:  # start inside B[0, rho]
        x0 = x0 * (problem.rho / norm)

    opts = problem.options
    fam_a, fam_b = problem.family_a, problem.family_b

    entries = []
    odd_prev = even_prev = None
    x = x0
    terminal = "MaxSweeps"
    for r in range(opts.max_sweeps):
        x_odd, inner_a = _sweep(fam_a, r, x, opts.record_inner_steps)
        entries.append(
            TraceEntry(2 * r + 1, x_odd, "A", r, float(np.linalg.norm(x_odd - x)), inner_a)
        )
        x_even, inner_b = _sweep(fam_b, r, x_odd, opts.record_inner_steps)
        entries.append(
            TraceEntry(2 * r + 2, x_even, "B", r, float(np.linalg.norm(x_even - x_odd)), inner_b)
        )
        x = x_even
        if odd_prev is not None:
            d_odd = float(np.linalg.norm(x_odd - odd_prev))
            d_even = float(np.linalg.norm(x_even - even_prev))
            if d_odd <= opts.pair_gap_tol and d_even <= opts.pair_gap_tol:
                ra = float(np.linalg.norm(x_odd - project_intersection(fam_a, x_even)))
                rb = float(np.linalg.norm(x_even - project_intersection(fam_b, x_odd)))
                if max(ra, rb) <= _STOP_RESIDUAL_FACTOR * opts.fixed_point_tol:
                    terminal = "Converged"
                    break
        odd_prev, even_prev = x_odd, x_even
    return IterationTrace(x0=x0, x0_projected=projected, entries=entries, terminal=terminal)


def _sweep(family: Family, r, anchor, record):
    """r+1 anchored steps on one family; returns (result, inner or None)."""
    if record:
        inner = q_hat_path(family, r, anchor)
        return inner[-1], inner
    return apply_q_hat(family, r, anchor), None


def extract_best_pair(trace: IterationTrace, problem: Problem) -> BestPair:
    """Pair (last odd iterate, last even iterate) with reference residuals."""
    if len(trace.entries) < 2:
        raise TraceTooShort("need at least one full sweep to extract a pair")
    return _best_pair(
        problem, trace.odd_entries()[-1].x, trace.even_entries()[-1].x, trace.sweeps
    )


def run_cheney_goldstein(problem: Problem) -> BestPair:
    """Alternating-projection baseline z <- P_B(P_A(z)) from the origin.

    The inner projections onto the two intersections use the reference
    projector at BASELINE_INNER_TOL.  Stops when the outer displacement falls
    below pair_gap_tol, within BASELINE_MAX_OUTER outer iterations, and
    returns the pair (P_A(z), z).  The problem is not validated, so the
    baseline also answers on overlapping families (gap near 0).
    """
    return _best_pair(problem, *_alternate_projections(problem))
