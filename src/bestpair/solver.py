"""Alternating anchored-sweep solver for best approximation pairs.

Given two families of convex sets whose intersections A and B are disjoint,
the solver alternates growing anchored sweeps: sweep r applies r+1 anchored
steps on family A to produce the next odd iterate, then r+1 steps on family B
for the next even iterate.  Under the convergence hypotheses the odd iterates
tend to a point of A, the even iterates to a point of B, and the pair attains
dist(A, B).  A classical alternating-projection baseline and a problem
validator live here as well.

A run stops when its pair passes a convergence test on the residuals of
the Dykstra reference projection (`intersection.project_intersection`).
That projection ends once `Family.within` finds it within REFERENCE_TOL
of every member, so an iterate that the same test finds farther than the
bound, plus a margin, from a member proves that the test fails: such a
test runs no projection, and the projections run only on the sweeps that
could stop (`_stop_test`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MaxIterExceeded,
    MaxOuterExceeded,
    ProblemValidationError,
    TraceTooShort,
)
from .intersection import project_intersection
from .operators import Family, point_sweep, q_hat_path
from .sets import REFERENCE_TOL, as_count, as_positive, max_distance, row_norm

DISJOINTNESS_TOL = 1e-6
# Accuracy of the baseline's inner projections and its outer-iteration budget
BASELINE_INNER_TOL = 1e-8
BASELINE_MAX_OUTER = 10_000

# Converged requires mutual-projection residuals below this fraction of
# fixed_point_tol; a unit factor would leave the trailing-sweep gaps exactly
# at their acceptance bound.
_STOP_RESIDUAL_FACTOR = 0.5
# A stop test is refuted without Dykstra when a member lies farther from its
# iterate than the residual bound plus 2 * REFERENCE_TOL plus this rounding
# allowance per unit of the iterates' largest |coordinate| (`_stop_test`).
_REFUTATION_ROUNDING = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    max_sweeps: int = 200
    pair_gap_tol: float = 1e-4
    fixed_point_tol: float = 1e-4
    record_inner_steps: bool = False

    def __post_init__(self):
        as_count(self.max_sweeps, "max_sweeps", 1)
        for name in ("pair_gap_tol", "fixed_point_tol"):
            as_positive(getattr(self, name), name)
        if not isinstance(self.record_inner_steps, (bool, np.bool_)):
            raise ValueError(
                f"record_inner_steps must be true or false, got {self.record_inner_steps!r}"
            )


@dataclass(frozen=True, eq=False)
class Problem:
    """Two families and solver options.  `rho` is derived: B[0, rho] is the
    smallest origin-centred ball that holds every member of both families
    whose kind declares `bounded`, and a family without one raises
    ProblemValidationError.  The seed must be an integer >= 0."""

    family_a: Family
    family_b: Family
    options: SolverOptions = field(default_factory=SolverOptions)
    seed: int = 0
    rho: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))
        if self.family_a.dim != self.family_b.dim:
            raise DimensionMismatch("families have different dimensions")
        radii = []
        for label, fam in (("A", self.family_a), ("B", self.family_b)):
            bounded = [(i, s) for i, s in enumerate(fam.sets) if s.bounded]
            if not bounded:
                raise ProblemValidationError(
                    f"family {label} has no bounded member; the bounding hypothesis fails"
                )
            for i, s in bounded:
                with np.errstate(over="ignore"):
                    radii.append(s.bounding_radius())
                if not np.isfinite(radii[-1]):
                    raise ValueError(
                        f"family {label} member {i} ({s.kind}) has a bounding radius that overflows"
                    )
        # rho = 0 passes here and fails validation as not disjoint
        object.__setattr__(self, "rho", max(radii))

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
        if max_distance(z_new, z) <= tol:
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
    distance = max_distance(u, z)
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
        gap=max_distance(a, b),
        residuals=(
            max_distance(a, project_intersection(fam_a, a)),
            max_distance(b, project_intersection(fam_b, b)),
            max_distance(a, project_intersection(fam_a, b)),
            max_distance(b, project_intersection(fam_b, a)),
        ),
        iterations=iterations,
    )


def run_ashlwb(problem: Problem, x0=None) -> IterationTrace:
    """Run the alternating sweep scheme from x0 (default: the origin).

    Sweep r applies r+1 anchored steps with steering indices restarting at 0:
    x^{2r+1} from family A anchored at x^{2r}, then x^{2r+2} from family B
    anchored at x^{2r+1}.  Stops Converged when consecutive odd-iterate and
    even-iterate changes fall below pair_gap_tol and the mutual-projection
    residuals fall below fixed_point_tol/2, else MaxSweeps; `_stop_test`
    measures the residuals with Dykstra only where member distances cannot
    refute them.  A non-finite x0 is rejected with ValueError before any
    work is done, and a problem that fails `validate_problem` with
    ProblemValidationError.  An x0 outside B[0, rho] starts at its radial
    projection onto it, measured as x0 / max|x0| when its squared norm
    overflows.  The iterates are lists, each sweep one `point_sweep`, and a
    sweep that leaves a non-finite point raises ValueError naming its family
    and sweep.
    """
    if x0 is None:
        x0 = np.zeros(problem.dim)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise DimensionMismatch("x0 dimension does not match the problem")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    validate_problem(problem)
    norm = float(row_norm(x0))
    unit, top = x0, 1.0
    if norm == math.inf:  # the squares overflow: measure x0 / max|x0| instead
        top = float(np.max(np.abs(x0)))
        unit = x0 / top
        norm = float(row_norm(unit))
    projected = norm > problem.rho / top
    if projected:  # start inside B[0, rho]
        x0 = unit * (problem.rho / norm)

    opts = problem.options
    fam_a, fam_b = problem.family_a, problem.family_b
    bound = _STOP_RESIDUAL_FACTOR * opts.fixed_point_tol

    entries = []
    odd_prev = even_prev = None
    x = x0.tolist()
    terminal = "MaxSweeps"
    for r in range(opts.max_sweeps):
        x_odd, inner_a = _sweep(fam_a, "A", r, x, opts.record_inner_steps)
        entries.append(TraceEntry(2 * r + 1, np.array(x_odd), "A", r, max_distance(x_odd, x), inner_a))
        x_even, inner_b = _sweep(fam_b, "B", r, x_odd, opts.record_inner_steps)
        entries.append(TraceEntry(2 * r + 2, np.array(x_even), "B", r, max_distance(x_even, x_odd), inner_b))
        x = x_even
        if odd_prev is not None:
            d_odd = max_distance(x_odd, odd_prev)
            d_even = max_distance(x_even, even_prev)
            if d_odd <= opts.pair_gap_tol and d_even <= opts.pair_gap_tol:
                if _stop_test(fam_a, fam_b, x_odd, x_even, bound):
                    terminal = "Converged"
                    break
        odd_prev, even_prev = x_odd, x_even
    return IterationTrace(x0=x0, x0_projected=projected, entries=entries, terminal=terminal)


def _stop_test(fam_a: Family, fam_b: Family, x_odd, x_even, bound) -> bool:
    """Whether ra = ||x_odd - P_A x_even|| and rb = ||x_even - P_B x_odd||,
    with P the reference projection, are both at most `bound`.

    Dykstra returns p = P_A x_even only once p lies within REFERENCE_TOL of
    every member C_i of A, by `Family.within`, so ra >= dist(x_odd, C_i) -
    REFERENCE_TOL, and likewise rb with the members of B and x_even.  The
    test is refuted, and neither projection runs, when x_odd is not within
    bound + margin of A's members, by the same `Family.within`, or x_even
    not within it of B's, where margin = 2 * REFERENCE_TOL +
    _REFUTATION_ROUNDING * the largest |coordinate| of x_odd and x_even
    covers the rounding of both distances.  A test the members cannot
    refute runs both projections, so every decision is the one the
    projections alone would make."""
    far = bound + 2 * REFERENCE_TOL + _REFUTATION_ROUNDING * max(map(abs, x_odd + x_even))
    if not (fam_a.within(x_odd, far) and fam_b.within(x_even, far)):
        return False
    ra = max_distance(x_odd, project_intersection(fam_a, x_even))
    rb = max_distance(x_even, project_intersection(fam_b, x_odd))
    return max(ra, rb) <= bound


def _sweep(family: Family, label, r, anchor, record):
    """r+1 anchored steps on family `label` from the list `anchor`; returns
    (result as a list, inner or None).  A non-finite result raises
    ValueError naming the family and the sweep."""
    if record:
        inner = q_hat_path(family, r, anchor)
        y = inner[-1].tolist()
    else:
        y, inner = point_sweep(family, r, anchor), None
    if not all(map(math.isfinite, y)):
        raise ValueError(f"sweep {r} on family {label} gave a non-finite point")
    return y, inner


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
