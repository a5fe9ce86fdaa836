"""Independent oracles and operator-level property checks.

Everything here deliberately avoids the solver's own machinery: the pair
oracle is a feasible-grid search polished by reference alternating
projections, the separation check samples the sets directly, and the
monotone-residual check compares sweep outputs against the reference
projection.  The reports that `bestpair check` and `bestpair oracle` print
serialize to plain dicts for JSON output.

The grid oracle needs numpy alone.  It seeds its polish with the first cell
in C order that is feasible for both families; failing one, with the first
closest pair in C order of rim cells, which have an infeasible lattice
neighbour, since no other cell is on a closest pair.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MisclassifiedPoint,
    NoFeasiblePoint,
    PreconditionGapZero,
    SamplingFailure,
    TraceTooShort,
)
from .intersection import project_intersection
from .operators import Family, q_hat_path, apply_q_hat
from .sets import (
    REFERENCE_TOL, Ball, as_count, as_positive, column_sum, finite_points, max_distance, row_dot,
    row_norm,
)
from .solver import (
    DISJOINTNESS_TOL,
    IterationTrace,
    Problem,
    run_cheney_goldstein,
)

SEPARATION_SLACK = 1e-6
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


def _feasible_mask(family: Family, axis, resolution: float):
    """Bool mask over the grid axis^n of the cells feasible for every member
    within resolution."""
    n, m = family.dim, len(axis)
    feasible = np.empty((m,) * n, dtype=bool)
    rows_per_chunk = max(1, _CHUNK // m ** (n - 1))
    for start in range(0, m, rows_per_chunk):
        first = axis[start : start + rows_per_chunk]
        mesh = np.meshgrid(first, *([axis] * (n - 1)), indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        # half-cell slack: keeps near-boundary cells without letting a
        # coarse grid that misses the set entirely count as feasible
        inside = family.contains(pts, tol=0.5 * resolution)
        feasible[start : start + rows_per_chunk] = inside.reshape(mesh[0].shape)
    if not feasible.any():
        raise NoFeasiblePoint(
            f"no grid point feasible at resolution {resolution}; refine the grid"
        )
    return feasible


def _rim(feasible):
    """Indices, in C order, of the feasible cells with an infeasible lattice
    neighbour on the grid."""
    interior = feasible.copy()
    for d in range(feasible.ndim):
        inner, mask = np.moveaxis(interior, d, 0), np.moveaxis(feasible, d, 0)
        inner[1:] &= mask[:-1]
        inner[:-1] &= mask[1:]
    interior ^= feasible  # the interior lies in feasible: this leaves the rim
    return np.argwhere(interior)


def brute_force_pair(problem: Problem, resolution: float) -> OracleResult:
    """Grid-search both feasible regions for the closest pair, then polish.

    Both families share one grid of spacing h.  The seed is the first cell
    in C order that is feasible for both, if any, and otherwise the first
    closest pair in C order of rim cells, those with an infeasible
    neighbour on the grid.  A feasible cell a whose grid neighbours are all
    feasible is on no closest pair: for any other grid point b, the
    neighbour one step toward b along a coordinate with |b_i - a_i| >= h is
    nearer b, by 2h|b_i - a_i| - h^2 > 0 in squared distance.  The polish
    runs 100 rounds of exact alternating reference projections from the
    seed's B point, so the grid only needs to seed the right basin.
    """
    if problem.dim > 3:
        raise ValueError("oracle limited to dimension <= 3")
    as_positive(resolution, "resolution")
    n, rho = problem.dim, problem.rho
    # a subnormal resolution makes the cell count inf, which int() rejects;
    # capped at the limit, it fails the test below
    m = int(round(min(2.0 * rho / resolution, _GRID_POINT_LIMIT))) + 1
    if m**n > _GRID_POINT_LIMIT:
        raise ValueError("resolution too fine for the grid oracle")
    axis = np.linspace(-rho, rho, m)
    feas_a = _feasible_mask(problem.family_a, axis, resolution)
    feas_b = _feasible_mask(problem.family_b, axis, resolution)
    # the first cell in C order that is feasible for both, if there is one
    first = np.unravel_index(np.argmax(feas_a & feas_b), feas_a.shape)
    if feas_a[first] and feas_b[first]:
        v = axis[np.array(first)]
    else:
        rim_a, rim_b = axis[_rim(feas_a)], axis[_rim(feas_b)]
        rows = max(1, _CHUNK // len(rim_b))
        best = np.inf
        for start in range(0, len(rim_a), rows):
            chunk = rim_a[start : start + rows]
            d2 = column_sum(n)(*((a[:, None] - b) ** 2 for a, b in zip(chunk.T, rim_b.T)))
            k = int(np.argmin(d2))
            if d2.flat[k] < best:
                best, v = d2.flat[k], rim_b[k % len(rim_b)]
    for _ in range(100):
        u = project_intersection(problem.family_a, v)
        v = project_intersection(problem.family_b, u)
    return OracleResult(
        pair=(u, v),
        gap=max_distance(u, v),
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
    d = max_distance(cb, ca)
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
    out, kept, drawn = [], 0, 0
    while kept < count:
        if drawn >= _SAMPLING_CAP:
            raise SamplingFailure(
                f"rejection sampling exhausted {_SAMPLING_CAP} draws"
            )
        batch = min(4096, _SAMPLING_CAP - drawn)
        drawn += batch
        g = rng.standard_normal((batch, n))
        g /= row_norm(g)[:, None]
        radii = rho * rng.random(batch) ** (1.0 / n)
        pts = g * radii[:, None]
        out.append(pts[family.contains(pts, tol=0.0)])
        kept += len(out[-1])
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
    samples come from `problem.seed`.  A pair point of the wrong dimension,
    or of a shape other than (n,), raises DimensionMismatch, and a non-finite
    one ValueError.
    """
    as_count(samples, "samples", 1)
    a = finite_points(pair[0], problem.dim, "pair")
    b = finite_points(pair[1], problem.dim, "pair")
    for point in (a, b):
        if point.ndim != 1:
            raise DimensionMismatch(f"pair has shape {point.shape}, expected ({problem.dim},)")
    gap = max_distance(a, b)
    if gap <= 0.0:
        raise PreconditionGapZero("separation check needs a pair with positive gap")
    rng = np.random.default_rng(problem.seed)
    ys_a = _sample_in_intersection(rng, problem.family_a, problem.rho, samples)
    ys_b = _sample_in_intersection(rng, problem.family_b, problem.rho, samples)
    min_a = float(np.min(row_dot(ys_a - a, a - b)))
    min_b = float(np.min(row_dot(ys_b - b, b - a)))
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
    asserted for k = 2..K, with T's accuracy `sets.REFERENCE_TOL` as the
    slack; the per-k grid supremum is reported as the uniform-convergence
    profile.  The grid is checked with `finite_points`, and must hold at
    least one point, before any projection.

    Its memory is one sweep path, (K+1, m, n), and the residuals, (K+1, m),
    plus the temporaries of one sweep, (m, n): the residuals are measured
    one sweep at a time, with the bits of `row_norm` on the whole path.
    """
    K = as_count(K, "K", 1)
    pts = np.atleast_2d(finite_points(grid, family.dim, "grid"))
    if not pts.size:
        raise ValueError("grid must hold at least one point")
    T = project_intersection(family, pts)
    path = q_hat_path(family, K, pts)  # (K+1, m, n): sweep outputs 0..K
    rs = np.empty(path.shape[:2])  # rs[j] = r_{j+1}(x)
    for j, sweep in enumerate(path):
        rs[j] = row_norm(sweep - T)
    excess = rs[2:] - rs[1:-1]  # excess[k-2] = r_{k+1} - r_k, k = 2..K
    violations = [
        {"k": int(j) + 2, "point": int(i), "excess": float(excess[j, i])}
        for j, i in zip(*np.nonzero(excess > REFERENCE_TOL))
    ]
    return DiniReport(
        K=K,
        n_points=len(pts),
        comparisons=(K - 1) * len(pts),
        violations=violations,
        max_violation=float(np.max(excess, initial=0.0)),
        profile=rs.max(axis=1),
        note="no comparisons" if K == 1 else "",
    )


@dataclass
class FixSetReport:
    q: int
    max_inside_move: float
    min_outside_move: float

    @property
    def passed(self) -> bool:
        return self.max_inside_move <= REFERENCE_TOL and self.min_outside_move > 0.0

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


def fix_set_audit(family: Family, q: int, inside, outside) -> FixSetReport:
    """Sweeps must fix intersection points and move points outside it.

    An inside point may lie at most `sets.REFERENCE_TOL` from each member,
    and a sweep may move it at most that far; an outside point must lie more
    than FIX_SET_OUTSIDE_MARGIN from some member.  Both point sets are
    checked with `finite_points` before any projection.
    """
    inside = np.atleast_2d(finite_points(inside, family.dim, "inside"))
    outside = np.atleast_2d(finite_points(outside, family.dim, "outside"))
    d_in = family.member_distances(inside).max(axis=0)
    if np.any(d_in > REFERENCE_TOL):
        raise MisclassifiedPoint(
            f"an 'inside' point is {d_in.max():.3e} from a member set"
        )
    d_out = family.member_distances(outside).max(axis=0)
    if np.any(d_out <= FIX_SET_OUTSIDE_MARGIN):
        raise MisclassifiedPoint(
            f"an 'outside' point violates no member by > {FIX_SET_OUTSIDE_MARGIN:g}"
        )
    moved_in = row_norm(apply_q_hat(family, q, inside) - inside)
    moved_out = row_norm(apply_q_hat(family, q, outside) - outside)
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
    diameter = float(np.max(row_norm(diffs)))
    dist_oracle = brute_force_pair(problem, problem.rho / 100.0).gap
    pa = project_intersection(problem.family_a, tail)
    nearness = float(np.max(row_norm(tail - pa)))
    return Lemma2Report(
        tail_size=len(tail),
        diameter=diameter,
        dist_oracle=dist_oracle,
        max_nearness=nearness,
        tol=10.0 * problem.options.pair_gap_tol,
    )
