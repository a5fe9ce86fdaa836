import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestpair import (
    Ball,
    Box,
    DimensionMismatch,
    Family,
    HalfSpace,
    Hyperplane,
    MisclassifiedPoint,
    NoFeasiblePoint,
    PreconditionGapZero,
    Problem,
    SteeringSchedule,
    TraceTooShort,
    analytic_two_ball_pair,
    brute_force_pair,
    dini_monotonicity_check,
    fix_set_audit,
    lemma2_surjectivity_probe,
    project_intersection,
    q_hat_path,
    run_cheney_goldstein,
    separation_check,
    uniqueness_certificate,
)
from bestpair import oracles
from bestpair.sets import row_norm
from bestpair.solver import IterationTrace

SCHED = SteeringSchedule(c=0.004, k0=2.0, p=1.0)


def overlapping_problem():
    return Problem(
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
        Family((Ball([1, 0], 1.0),), schedule=SCHED),
    )


# --- brute_force_pair ------------------------------------------------------------


def test_brute_force_two_balls(two_ball_parsed):
    res = brute_force_pair(two_ball_parsed.problem, resolution=0.01)
    assert res.method == "GridPolish"
    assert np.allclose(res.pair[0], [1.0, 0.0], atol=1e-4)
    assert np.allclose(res.pair[1], [3.0, 0.0], atol=1e-4)
    assert res.gap == pytest.approx(2.0, abs=1e-4)
    # analytic route agrees
    ana = analytic_two_ball_pair(two_ball_parsed.problem)
    assert ana.method == "AnalyticTwoBall"
    assert abs(res.gap - ana.gap) <= 1e-6


def test_brute_force_lens(lens_parsed):
    res = brute_force_pair(lens_parsed.problem, resolution=0.01)
    assert np.allclose(res.pair[0], [2.0, 0.0], atol=1e-3)
    assert np.allclose(res.pair[1], [4.0, 0.0], atol=1e-3)
    assert res.gap == pytest.approx(2.0, abs=1e-3)


def test_brute_force_oracle_stability(lens_parsed):
    coarse = brute_force_pair(lens_parsed.problem, resolution=0.05)
    fine = brute_force_pair(lens_parsed.problem, resolution=0.01)
    assert abs(coarse.gap - fine.gap) <= 5 * 0.05


def test_brute_force_no_feasible_point(two_ball_parsed):
    with pytest.raises(NoFeasiblePoint):
        brute_force_pair(two_ball_parsed.problem, resolution=10.0)


def test_brute_force_dimension_limit():
    problem = Problem(
        Family((Ball([0, 0, 0, 0], 1.0),), schedule=SCHED),
        Family((Ball([4, 0, 0, 0], 1.0),), schedule=SCHED),
    )
    with pytest.raises(ValueError, match="dimension <= 3"):
        brute_force_pair(problem, resolution=0.1)


def test_brute_force_three_dimensional():
    problem = Problem(
        Family((Ball([0, 0, 0], 1.0),), schedule=SCHED),
        Family((Ball([3, 0, 0], 1.0),), schedule=SCHED),
    )
    res = brute_force_pair(problem, resolution=0.1)
    assert res.gap == pytest.approx(1.0, abs=1e-4)


# grid cells per rho along each axis, by dimension: coarse enough that the full
# pairwise search of the reference below stays small
GRID_STEPS = {1: 40, 2: 20, 3: 8}


def full_search_pair(problem, resolution):
    """The grid oracle without its shortcuts: every feasible grid point of A
    against every one of B, the first closest pair in C order by one flat
    argmin, then the same 100-round polish."""
    n, rho = problem.dim, problem.rho
    axis = np.linspace(-rho, rho, int(round(2.0 * rho / resolution)) + 1)
    grid = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    feas_a, feas_b = (
        grid[fam.contains(grid, tol=0.5 * resolution)]
        for fam in (problem.family_a, problem.family_b)
    )
    if not (len(feas_a) and len(feas_b)):
        raise NoFeasiblePoint("no feasible grid point")
    d2 = ((feas_a[:, None, :] - feas_b[None, :, :]) ** 2).sum(axis=-1)
    v = feas_b[np.argmin(d2) % len(feas_b)]
    for _ in range(100):
        u = project_intersection(problem.family_a, v)
        v = project_intersection(problem.family_b, u)
    return u, v


def vectors(n, low, high):
    return st.lists(st.floats(low, high), min_size=n, max_size=n).map(np.array)


@st.composite
def grid_problems(draw):
    """1-3-D problems whose families hold 1-2 balls or boxes around a shared
    point, so each intersection is nonempty; half of them give both families
    the same point, so they overlap."""
    n = draw(st.integers(1, 3))

    def family(point):
        members = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                offset = draw(vectors(n, -1.0, 1.0))
                radius = np.linalg.norm(offset) + draw(st.floats(0.1, 1.5))
                members.append(Ball(point + offset, radius))
            else:
                members.append(Box(point - draw(vectors(n, 0.1, 1.5)),
                                   point + draw(vectors(n, 0.1, 1.5))))
        return Family(tuple(members), schedule=SCHED)

    point_a = draw(vectors(n, -2.0, 2.0))
    point_b = point_a if draw(st.booleans()) else draw(vectors(n, -2.0, 2.0))
    return Problem(family(point_a), family(point_b))


def grid_pair(problem, resolution):
    return brute_force_pair(problem, resolution).pair


def outcome(pair_of, problem):
    """The bytes of the pair that pair_of finds at the problem's coarse
    resolution, or None when a family has no feasible grid point."""
    try:
        pair = pair_of(problem, problem.rho / GRID_STEPS[problem.dim])
    except NoFeasiblePoint:
        return None
    return [x.tobytes() for x in pair]


@settings(max_examples=100, deadline=None)
@given(grid_problems())
@example(overlapping_problem())
@example(Problem(Family((Ball([0, 0, 0], 1.0),), schedule=SCHED),
                 Family((Box([1.5, -1, -1], [2.5, 1, 1]),), schedule=SCHED)))
def test_brute_force_equals_full_search(problem):
    expected = outcome(full_search_pair, problem)
    assert outcome(grid_pair, problem) == expected
    # a tiny chunk splits the feasibility test and the search into many
    # chunks, so the first closest pair must win across chunks too
    with mock.patch.object(oracles, "_CHUNK", 16):
        assert outcome(grid_pair, problem) == expected


# --- uniqueness_certificate --------------------------------------------------------


def test_certificate_lens_unique(lens_parsed):
    cert = uniqueness_certificate(lens_parsed.problem)
    assert cert.verdict == "UniqueGuaranteed"
    assert cert.all_strictly_convex and cert.positive_distance


def test_certificate_boxes_not_guaranteed(boxes_parsed):
    cert = uniqueness_certificate(boxes_parsed.problem)
    assert cert.verdict == "NotGuaranteed"
    assert not cert.all_strictly_convex


def test_certificate_overlapping_not_guaranteed():
    cert = uniqueness_certificate(overlapping_problem())
    assert cert.verdict == "NotGuaranteed"
    assert not cert.positive_distance


# --- separation_check ----------------------------------------------------------------


def test_separation_passes_on_solver_pair(two_ball_run):
    problem, _, pair = two_ball_run
    report = separation_check(problem, (pair.a, pair.b), samples=1000)
    assert report.passed
    assert report.min_inner_a >= -1e-6
    assert report.min_inner_b >= -1e-6


def test_separation_fails_on_wrong_pair(two_ball_parsed):
    problem = two_ball_parsed.problem
    report = separation_check(
        problem, (np.array([0.0, 0.0]), np.array([3.0, 0.0])), samples=1000
    )
    assert not report.passed
    assert not report.boundary_a  # the witness stays inside ball A


def test_separation_rejects_zero_gap(two_ball_parsed):
    a = np.array([1.0, 0.0])
    with pytest.raises(PreconditionGapZero):
        separation_check(two_ball_parsed.problem, (a, a.copy()), samples=10)


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("shape", [(2, 2), (1, 2)])
def test_separation_rejects_a_batch_as_pair_point(two_ball_parsed, shape, position):
    pair = [np.array([2.0, 0.0]), np.array([3.0, 0.0])]
    pair[position] = np.broadcast_to(pair[position], shape)
    with pytest.raises(DimensionMismatch) as exc:
        separation_check(two_ball_parsed.problem, tuple(pair), samples=10)
    assert str(exc.value) == f"pair has shape {shape}, expected (2,)"


def test_separation_deterministic_under_seed(two_ball_run):
    problem, _, pair = two_ball_run
    r1 = separation_check(problem, (pair.a, pair.b), samples=500)
    r2 = separation_check(problem, (pair.a, pair.b), samples=500)
    assert r1.min_inner_a == r2.min_inner_a
    assert r1.min_inner_b == r2.min_inner_b


# --- dini_monotonicity_check -----------------------------------------------------------


def grid_in_ball(rho, side):
    gs = np.linspace(-rho, rho, side)
    pts = np.array([[a, b] for a in gs for b in gs])
    return pts[np.linalg.norm(pts, axis=1) <= rho]


def test_dini_single_ball_family():
    fam = Family((Ball([0, 0], 1.0),))
    report = dini_monotonicity_check(fam, grid_in_ball(5.0, 5), K=50)
    assert report.passed
    assert report.max_violation <= 1e-9


def test_dini_lens_family():
    # grid inside the family's own bounding ball (radius 3)
    fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    report = dini_monotonicity_check(fam, grid_in_ball(3.0, 5), K=50)
    assert report.passed
    assert report.final_sup < 0.1


def test_dini_zero_violations_up_to_k_100():
    # strictly convex shipped families stay violation-free well past K=50
    for sets, rho in (
        ((Ball([0, 0], 1.0),), 5.0),
        ((Ball([4, 0], 1.0),), 5.0),
        ((Ball([0, 0], 2.0), Ball([1, 0], 2.0)), 3.0),
    ):
        report = dini_monotonicity_check(Family(sets), grid_in_ball(rho, 5), K=100)
        assert report.passed


def test_dini_rejects_an_empty_grid():
    fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    with pytest.raises(ValueError, match="grid must hold at least one point"):
        dini_monotonicity_check(fam, np.zeros((0, 2)), K=5)


def test_dini_k_equal_one_reports_no_comparisons():
    fam = Family((Ball([0, 0], 1.0),))
    report = dini_monotonicity_check(fam, grid_in_ball(5.0, 3), K=1)
    assert report.note == "no comparisons"
    assert report.violations == []


def loop_scan(rs, K):
    """The Dini scan as a loop over k: violations in k-then-point order, and
    the largest excess, or 0.0."""
    violations, max_violation = [], 0.0
    for k in range(2, K + 1):
        excess = rs[k] - rs[k - 1]
        for i in np.nonzero(excess > oracles.REFERENCE_TOL)[0]:
            violations.append({"k": k, "point": int(i), "excess": float(excess[i])})
        max_violation = max(max_violation, float(np.max(excess)))
    return violations, max_violation


@pytest.mark.parametrize("K", [1, 2, 7])
def test_dini_scan_matches_the_loop_over_k(monkeypatch, K):
    # random sweep outputs, so that residuals rise at many (k, point)
    fam = Family((Ball([0, 0], 1.0),))
    grid = grid_in_ball(5.0, 5)
    path = np.random.default_rng(K).uniform(-3.0, 3.0, (K + 1, len(grid), 2))
    monkeypatch.setattr(oracles, "q_hat_path", lambda family, q, x: path)
    report = dini_monotonicity_check(fam, grid, K)
    rs = np.linalg.norm(path - project_intersection(fam, grid), axis=-1)
    violations, max_violation = loop_scan(rs, K)
    assert bool(violations) == (K > 1)
    assert report.violations == violations
    assert report.max_violation == max_violation
    assert np.array_equal(report.profile, rs.max(axis=1))


def ten_d_audit(count, K):
    """A ball of radius 2 in R^10, a half-space whose boundary lies 0.5 from
    its centre and a hyperplane through the centre, 60 degrees apart, with
    `count` anchors drawn uniformly from the ball of radius 4 about the
    centre: the family, the anchors and K."""
    rng = np.random.default_rng(0)
    center = rng.normal(0.0, 0.5, 10)
    frame, _ = np.linalg.qr(rng.normal(size=(10, 2)))
    h, g = frame[:, 0], 0.5 * frame[:, 0] + np.sqrt(0.75) * frame[:, 1]
    fam = Family((Ball(center, 2.0), HalfSpace(g, float(g @ center) + 0.5),
                  Hyperplane(h, float(h @ center))), schedule=SCHED)
    directions = rng.standard_normal((count, 10))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 4.0 * rng.random(count) ** 0.1
    return fam, center + directions * radii[:, None], K


LENS_A = (Ball([0, 0], 2.0), Ball([1, 0], 2.0))
LENS_B = (Ball([5, 0], 2.0), Ball([6, 0], 2.0))
DINI_AUDITS = {
    "ball-halfspace-hyperplane": lambda: ten_d_audit(200, 30),
    "lens-A": lambda: (Family(LENS_A, schedule=SCHED), grid_in_ball(8.0, 9), 50),
    "lens-B": lambda: (Family(LENS_B, schedule=SCHED), grid_in_ball(8.0, 9), 50),
    # a wedge of two half-spaces cut by a ball: residuals rise at some
    # anchors for a few sweeps, by up to 1.2e-3
    "wedge": lambda: (
        Family((Ball([-0.4, 0.9], 1.0), HalfSpace([-1.0, 0.0], 0.4), HalfSpace([1.0, -0.25], -0.45)),
               schedule=SteeringSchedule(c=0.1)),
        grid_in_ball(3.0, 7), 20),
}


@pytest.mark.parametrize("name", DINI_AUDITS)
def test_dini_report_has_the_bits_of_the_whole_path_residuals(name):
    # the audit measures one sweep at a time; here the residuals of the
    # whole path are measured at once, as one (K+1, m, n) array
    fam, grid, K = DINI_AUDITS[name]()
    report = dini_monotonicity_check(fam, grid, K)
    rs = row_norm(q_hat_path(fam, K, grid) - project_intersection(fam, grid))
    violations, max_violation = loop_scan(rs, K)
    assert bool(violations) == (name == "wedge")
    assert report.profile.tobytes() == rs.max(axis=1).tobytes()
    assert report.violations == violations
    assert np.float64(report.max_violation).tobytes() == np.float64(max_violation).tobytes()


def test_dini_audit_holds_one_copy_of_its_path():
    fam, grid, K = ten_d_audit(500, 40)
    path_bytes = (K + 1) * grid.nbytes
    dini_monotonicity_check(fam, grid, K)  # binds the family's kernels
    tracemalloc.start()
    try:
        dini_monotonicity_check(fam, grid, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the path itself, its (K+1, m) residuals and one sweep's temporaries
    assert peak <= 1.5 * path_bytes


# --- fix_set_audit -----------------------------------------------------------------------


def test_fix_set_audit_lens():
    fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    inside = np.array([[0.5, 0.0], [0.5, 0.5]])
    outside = np.array([[5.0, 5.0]])
    verdicts = []
    for q in (0, 3, 10):
        report = fix_set_audit(fam, q, inside, outside)
        assert report.passed
        verdicts.append(report.passed)
    assert verdicts == [True, True, True]


def test_fix_set_audit_rejects_misclassified():
    fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    with pytest.raises(MisclassifiedPoint):
        fix_set_audit(fam, 3, np.array([[5.0, 5.0]]), np.array([[6.0, 6.0]]))
    with pytest.raises(MisclassifiedPoint):
        fix_set_audit(fam, 3, np.array([[0.5, 0.0]]), np.array([[0.6, 0.0]]))


# --- lemma2_surjectivity_probe --------------------------------------------------------------


def test_lemma2_probe_two_ball(two_ball_run):
    problem, trace, _ = two_ball_run
    report = lemma2_surjectivity_probe(problem, trace)
    assert report.passed
    assert report.diameter <= 10 * problem.options.pair_gap_tol


def test_lemma2_probe_lens(lens_run):
    problem, trace, _ = lens_run
    report = lemma2_surjectivity_probe(problem, trace)
    assert report.passed


def test_lemma2_probe_trace_too_short(two_ball_run):
    problem, trace, _ = two_ball_run
    stub = IterationTrace(
        x0=trace.x0, x0_projected=False, entries=trace.entries[:3], terminal="MaxSweeps"
    )
    with pytest.raises(TraceTooShort):
        lemma2_surjectivity_probe(problem, stub)


# --- certificate soundness ---------------------------------------------------------------


def test_unique_guaranteed_implies_three_way_agreement(lens_run):
    problem, _, pair = lens_run
    assert uniqueness_certificate(problem).verdict == "UniqueGuaranteed"
    base = run_cheney_goldstein(problem)
    oracle = brute_force_pair(problem, resolution=0.01)
    for u, v in ((pair.a, base.a), (pair.a, oracle.pair[0]), (pair.b, base.b), (pair.b, oracle.pair[1])):
        assert np.linalg.norm(u - v) <= 1e-3
