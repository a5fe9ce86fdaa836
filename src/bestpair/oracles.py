"""Independent oracles and operator-level property checks.

Everything here deliberately avoids the solver's own machinery: the pair
oracle is a feasible-grid search polished by reference alternating
projections, the separation check samples the sets directly, and the
monotone-residual check compares sweep outputs against the reference
projection.  The reports that `bestpair check` and `bestpair oracle` print
serialize to plain dicts for JSON output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    MisclassifiedPoint,
    NoFeasiblePoint,
    PreconditionGapZero,
    SamplingFailure,
    TraceTooShort,
)
from .intersection import project_intersection
from .operators import Family, q_hat_path, apply_q_hat
from .sets import Ball, finite_points
from .solver import (
    DISJOINTNESS_TOL,
    IterationTrace,
    Problem,
    run_cheney_goldstein,
)

SEPARATION_SLACK = 1e-6
DINI_SLACK = 1e-9
# fix-set audit: an inside point may be this far from a member set, and a
# sweep may move it at most this far; an outside point must violate a member
# by more than FIX_SET_OUTSIDE_MARGIN
FIX_SET_INSIDE_TOL = 1e-9
FIX_SET_OUTSIDE_MARGIN = 1e-3
_GRID_POINT_LIMIT = 2 * 10**8
_CHUNK = 1 << 21
_SAMPLING_CAP = 10**6


@dataclass
class UniquenessCertificate:
    all_strictly_convex: bool
    positive_distance: bool

    @property
    def verdict(self) -> str:
        ok = self.all_strictly_convex and self.positive_distance
        return "UniqueGuaranteed" if ok else "NotGuaranteed"

    def to_dict(self):
        return {**asdict(self), "verdict": self.verdict}


@dataclass
class OracleResult:
    pair: tuple
    gap: float
    method: str  # "GridPolish" or "AnalyticTwoBall"
    resolution: float

    def to_dict(self):
        return {
            "a": self.pair[0].tolist(),
            "b": self.pair[1].tolist(),
            "gap": self.gap,
            "method": self.method,
            "resolution": self.resolution,
        }


def uniqueness_certificate(problem: Problem) -> UniquenessCertificate:
    """Sufficient-condition certificate for a unique best approximation pair.

    Strict convexity of every member lifts to the intersections, and together
    with positive distance guarantees exactly one pair; the distance is
    attained because a Problem's intersections are bounded.
    """
    strict = all(
        s.strictly_convex for s in problem.family_a.sets + problem.family_b.sets
    )
    positive = run_cheney_goldstein(problem).gap > DISJOINTNESS_TOL
    return UniquenessCertificate(
        all_strictly_convex=strict,
        positive_distance=positive,
    )


def _feasible_grid_points(family: Family, rho: float, resolution: float):
    """Grid points of [-rho, rho]^n feasible for every member within resolution."""
    n = family.dim
    m = int(round(2.0 * rho / resolution)) + 1
    if m**n > _GRID_POINT_LIMIT:
        raise ValueError("resolution too fine for the grid oracle")
    axis = np.linspace(-rho, rho, m)
    rows_per_chunk = max(1, _CHUNK // max(m ** (n - 1), 1))
    feasible = []
    for start in range(0, m, rows_per_chunk):
        first = axis[start : start + rows_per_chunk]
        mesh = np.meshgrid(first, *([axis] * (n - 1)), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        # half-cell slack: keeps near-boundary cells without letting a
        # coarse grid that misses the set entirely count as feasible
        mask = family.contains(pts, tol=0.5 * resolution)
        if mask.any():
            feasible.append(pts[mask])
    if not feasible:
        raise NoFeasiblePoint(
            f"no grid point feasible at resolution {resolution}; refine the grid"
        )
    return np.concatenate(feasible)


def brute_force_pair(problem: Problem, resolution: float) -> OracleResult:
    """Grid-search both feasible regions for the closest pair, then polish.

    The polish runs 100 rounds of exact alternating reference projections,
    so the grid only needs to seed the right basin.
    """
    if problem.dim > 3:
        raise ValueError("oracle limited to dimension <= 3")
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    feas_a = _feasible_grid_points(problem.family_a, problem.rho, resolution)
    feas_b = _feasible_grid_points(problem.family_b, problem.rho, resolution)
    tree = cKDTree(feas_b)
    dist, idx = tree.query(feas_a)
    i = int(np.argmin(dist))
    u, v = feas_a[i], feas_b[idx[i]]
    for _ in range(100):
        u = project_intersection(problem.family_a, v)
        v = project_intersection(problem.family_b, u)
    return OracleResult(
        pair=(u, v),
        gap=float(np.linalg.norm(u - v)),
        method="GridPolish",
        resolution=resolution,
    )


def analytic_two_ball_pair(problem: Problem) -> OracleResult:
    """Closed-form pair for single-ball families: both points on the center line."""
    fa, fb = problem.family_a.sets, problem.family_b.sets
    if len(fa) != 1 or len(fb) != 1 or not (isinstance(fa[0], Ball) and isinstance(fb[0], Ball)):
        raise ValueError("analytic oracle requires single-ball families")
    ca, ra = fa[0].center, fa[0].radius
    cb, rb = fb[0].center, fb[0].radius
    d = float(np.linalg.norm(cb - ca))
    if d <= ra + rb:
        raise ValueError("balls are not disjoint")
    u = (cb - ca) / d
    a = ca + ra * u
    b = cb - rb * u
    return OracleResult(
        pair=(a, b), gap=d - ra - rb, method="AnalyticTwoBall", resolution=0.0
    )


def _sample_in_intersection(rng, family: Family, rho: float, count: int):
    """Rejection-sample `count` points of the intersection inside B[0, rho]."""
    n = family.dim
    out = []
    drawn = 0
    while sum(len(o) for o in out) < count:
        if drawn >= _SAMPLING_CAP:
            raise SamplingFailure(
                f"rejection sampling exhausted {_SAMPLING_CAP} draws"
            )
        batch = min(4096, _SAMPLING_CAP - drawn)
        drawn += batch
        g = rng.standard_normal((batch, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rho * rng.random(batch) ** (1.0 / n)
        pts = g * radii[:, None]
        mask = family.contains(pts, tol=0.0)
        if mask.any():
            out.append(pts[mask])
    return np.concatenate(out)[:count]


@dataclass
class SeparationReport:
    samples: int
    min_inner_a: float
    min_inner_b: float
    boundary_a: bool
    boundary_b: bool

    @property
    def passed(self) -> bool:
        return (
            self.min_inner_a >= -SEPARATION_SLACK
            and self.min_inner_b >= -SEPARATION_SLACK
            and self.boundary_a
            and self.boundary_b
        )


def separation_check(problem: Problem, pair, samples: int = 1000) -> SeparationReport:
    """Half-space separation and boundary test for a candidate pair (a, b).

    Samples points y of each intersection and checks <y - a, a - b> >= -slack
    (symmetrically for B), then verifies both points are boundary points via
    the witness a + t(b - a), which must leave A for small t > 0.  The
    samples come from `problem.seed`; a pair of the wrong dimension raises
    DimensionMismatch, and a non-finite one ValueError.
    """
    a = finite_points(pair[0], problem.dim, "pair")
    b = finite_points(pair[1], problem.dim, "pair")
    gap = float(np.linalg.norm(a - b))
    if gap <= 0.0:
        raise PreconditionGapZero("separation check needs a pair with positive gap")
    rng = np.random.default_rng(problem.seed)
    ys_a = _sample_in_intersection(rng, problem.family_a, problem.rho, samples)
    ys_b = _sample_in_intersection(rng, problem.family_b, problem.rho, samples)
    min_a = float(np.min((ys_a - a) @ (a - b)))
    min_b = float(np.min((ys_b - b) @ (b - a)))
    t = 1e-3
    wa = a + t * (b - a)
    wb = b + t * (a - b)
    return SeparationReport(
        samples=samples,
        min_inner_a=min_a,
        min_inner_b=min_b,
        boundary_a=not problem.family_a.contains(wa),
        boundary_b=not problem.family_b.contains(wb),
    )


@dataclass
class DiniReport:
    K: int
    n_points: int
    comparisons: int
    violations: list
    max_violation: float
    profile: np.ndarray  # profile[k-1] = sup_x r_k(x), k = 1..K+1
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def final_sup(self) -> float:
        return float(self.profile[-1])

    def to_dict(self):
        return {
            "K": self.K,
            "n_points": self.n_points,
            "comparisons": self.comparisons,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "final_sup": self.final_sup,
            "note": self.note,
            "passed": self.passed,
        }


def dini_monotonicity_check(family: Family, grid, K: int) -> DiniReport:
    """Check that per-point sweep residuals decrease monotonically.

    With T the reference intersection projection, r_k(x) is the distance of
    the (k-1)-sweep output from T(x).  Monotonicity r_{k+1} <= r_k + slack is
    asserted for k = 2..K; the per-k grid supremum is reported as the
    uniform-convergence profile.  The grid is checked with `finite_points`
    before any projection.
    """
    if K < 1:
        raise ValueError("K must be positive")
    pts = np.atleast_2d(finite_points(grid, family.dim, "grid"))
    T = project_intersection(family, pts)
    path = q_hat_path(family, K, pts)  # (K+1, m, n): sweep outputs 0..K
    rs = np.linalg.norm(path - T, axis=-1)  # rs[j] = r_{j+1}(x)
    violations = []
    max_violation = 0.0
    for k in range(2, K + 1):
        excess = rs[k] - rs[k - 1]  # r_{k+1} - r_k
        bad = np.nonzero(excess > DINI_SLACK)[0]
        for i in bad:
            violations.append({"k": k, "point": int(i), "excess": float(excess[i])})
        if excess.size:
            max_violation = max(max_violation, float(np.max(excess)))
    note = "no comparisons" if K == 1 else ""
    return DiniReport(
        K=K,
        n_points=len(pts),
        comparisons=max(K - 1, 0) * len(pts),
        violations=violations,
        max_violation=max_violation,
        profile=rs.max(axis=1),
        note=note,
    )


@dataclass
class FixSetReport:
    q: int
    max_inside_move: float
    min_outside_move: float

    @property
    def passed(self) -> bool:
        return self.max_inside_move <= FIX_SET_INSIDE_TOL and self.min_outside_move > 0.0

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


def fix_set_audit(family: Family, q: int, inside, outside) -> FixSetReport:
    """Sweeps must fix intersection points and move points outside it.

    Both point sets are checked with `finite_points` before any projection.
    """
    inside = np.atleast_2d(finite_points(inside, family.dim, "inside"))
    outside = np.atleast_2d(finite_points(outside, family.dim, "outside"))
    d_in = family.member_distances(inside).max(axis=0)
    if np.any(d_in > FIX_SET_INSIDE_TOL):
        raise MisclassifiedPoint(
            f"an 'inside' point is {d_in.max():.3e} from a member set"
        )
    d_out = family.member_distances(outside).max(axis=0)
    if np.any(d_out <= FIX_SET_OUTSIDE_MARGIN):
        raise MisclassifiedPoint(
            f"an 'outside' point violates no member by > {FIX_SET_OUTSIDE_MARGIN:g}"
        )
    moved_in = np.linalg.norm(apply_q_hat(family, q, inside) - inside, axis=-1)
    moved_out = np.linalg.norm(apply_q_hat(family, q, outside) - outside, axis=-1)
    return FixSetReport(
        q=q,
        max_inside_move=float(moved_in.max()),
        min_outside_move=float(moved_out.min()),
    )


@dataclass
class Lemma2Report:
    tail_size: int
    diameter: float
    dist_oracle: float
    max_nearness: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.diameter <= self.tol and self.max_nearness <= self.dist_oracle + self.tol


def lemma2_surjectivity_probe(problem: Problem, trace: IterationTrace) -> Lemma2Report:
    """Tail even iterates must cluster on nearest points of B to A.

    Collects the last 10 even iterates, checks their pairwise diameter, and
    checks each is within the oracle distance (plus slack) of A.  The distance
    reference comes from the grid oracle at resolution rho/100, independent
    of both solvers.
    """
    evens = trace.even_entries()
    if len(evens) < 10:
        raise TraceTooShort("need at least 10 even iterates for the tail cluster")
    tail = np.stack([e.x for e in evens[-10:]])
    diffs = tail[:, None, :] - tail[None, :, :]
    diameter = float(np.max(np.linalg.norm(diffs, axis=-1)))
    dist_oracle = brute_force_pair(problem, problem.rho / 100.0).gap
    pa = project_intersection(problem.family_a, tail)
    nearness = float(np.max(np.linalg.norm(tail - pa, axis=-1)))
    return Lemma2Report(
        tail_size=len(tail),
        diameter=diameter,
        dist_oracle=dist_oracle,
        max_nearness=nearness,
        tol=10.0 * problem.options.pair_gap_tol,
    )
