import numpy as np
import pytest

from bestpair import (
    Ball,
    Family,
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
    run_cheney_goldstein,
    separation_check,
    uniqueness_certificate,
)
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


def test_dini_k_equal_one_reports_no_comparisons():
    fam = Family((Ball([0, 0], 1.0),))
    report = dini_monotonicity_check(fam, grid_in_ball(5.0, 3), K=1)
    assert report.note == "no comparisons"
    assert report.violations == []


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
