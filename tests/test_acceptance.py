"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions pin every tolerance.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from bestpair import (
    Ball,
    Family,
    SteeringSchedule,
    apply_m_hat,
    apply_q_hat,
    brute_force_pair,
    dini_monotonicity_check,
    extract_best_pair,
    fix_set_audit,
    q_hat_path,
    project_intersection,
    run_ashlwb,
    run_cheney_goldstein,
    separation_check,
    shlwb_project,
    uniqueness_certificate,
)
from bestpair.cli import load_problem, main

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
TWO_BALLS = str(PROBLEMS / "two_balls.json")
LENS = str(PROBLEMS / "lens.json")
BOXES = str(PROBLEMS / "boxes.json")

A_TRUE = np.array([1.0, 0.0])
B_TRUE = np.array([3.0, 0.0])
LENS_A_TRUE = np.array([2.0, 0.0])
LENS_B_TRUE = np.array([4.0, 0.0])


@pytest.fixture(scope="module")
def timed_two_ball():
    problem = load_problem(TWO_BALLS).problem
    t0 = time.perf_counter()
    trace = run_ashlwb(problem)
    pair = extract_best_pair(trace, problem)
    return problem, trace, pair, time.perf_counter() - t0


@pytest.fixture(scope="module")
def timed_lens():
    problem = load_problem(LENS).problem
    t0 = time.perf_counter()
    trace = run_ashlwb(problem)
    pair = extract_best_pair(trace, problem)
    base = run_cheney_goldstein(problem)
    oracle = brute_force_pair(problem, resolution=1e-2)
    return problem, trace, pair, base, oracle, time.perf_counter() - t0


def test_criterion_1_two_ball_instance(timed_two_ball):
    problem, trace, pair, elapsed = timed_two_ball
    assert trace.terminal == "Converged"
    assert trace.sweeps <= 200
    assert np.linalg.norm(pair.a - A_TRUE) <= 1e-3
    assert np.linalg.norm(pair.b - B_TRUE) <= 1e-3
    assert abs(pair.gap - 2.0) <= 1e-3
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 1: two-ball converged in {trace.sweeps} sweeps "
        f"({elapsed:.2f}s), pair error "
        f"{max(np.linalg.norm(pair.a - A_TRUE), np.linalg.norm(pair.b - B_TRUE)):.2e}, "
        f"gap error {abs(pair.gap - 2.0):.2e}"
    )


def test_criterion_2_lens_instance(timed_lens):
    problem, trace, pair, base, oracle, elapsed = timed_lens
    assert np.linalg.norm(pair.a - LENS_A_TRUE) <= 2e-3
    assert np.linalg.norm(pair.b - LENS_B_TRUE) <= 2e-3
    assert abs(pair.gap - 2.0) <= 2e-3
    assert np.linalg.norm(oracle.pair[0] - LENS_A_TRUE) <= 2e-3
    assert np.linalg.norm(oracle.pair[1] - LENS_B_TRUE) <= 2e-3
    gaps = [pair.gap, base.gap, oracle.gap]
    assert max(gaps) - min(gaps) <= 1e-2
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 2: lens pair gaps (sweeps/baseline/oracle) = "
        f"{pair.gap:.6f}/{base.gap:.6f}/{oracle.gap:.6f}, spread "
        f"{max(gaps) - min(gaps):.2e} ({elapsed:.2f}s)"
    )


def test_criterion_3_gap_limit_law(timed_two_ball, timed_lens):
    worst = 0.0
    for problem, trace in ((timed_two_ball[0], timed_two_ball[1]), (timed_lens[0], timed_lens[1])):
        bound = 2 * problem.options.pair_gap_tol
        tail = trace.odd_entries()[-5:]
        assert len(tail) == 5
        for e in tail:
            assert abs(e.gap - 2.0) <= bound
            worst = max(worst, abs(e.gap - 2.0))
    print(f"\nPASS criterion 3: final-5-sweep gaps within {worst:.2e} of dist(A,B) (bound 2e-4)")


def test_criterion_4_projection_accuracy():
    rho = 5.0
    ball = Ball([0, 0], 1.0)
    fam = Family((ball,), schedule=SteeringSchedule(c=0.01, k0=2.0, p=1.0))
    rng = np.random.default_rng(0)
    g = rng.standard_normal((100, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    anchors = g * rho * rng.random((100, 1)) ** 0.5
    got = shlwb_project(fam, anchors, tol=1e-4)
    err = np.linalg.norm(got - ball.project(anchors), axis=1).max()
    assert err <= 1e-4
    print(f"\nPASS criterion 4: anchored projection vs analytic on 100 anchors, max error {err:.2e}")


def test_criterion_5_operator_invariant_suite(timed_two_ball, timed_lens):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    rho = 8.0
    lens_fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    sets = [Ball([0, 0], 1.0), Ball([4, 0], 1.0), *lens_fam.sets]

    # projection nonexpansiveness, idempotence, variational inequality
    x = rng.uniform(-rho, rho, (1000, 2))
    y = rng.uniform(-rho, rho, (1000, 2))
    for s in sets:
        px, py = s.project(x), s.project(y)
        assert np.all(
            np.linalg.norm(px - py, axis=1) <= np.linalg.norm(x - y, axis=1) + 1e-10
        )
        assert np.linalg.norm(s.project(px) - px, axis=1).max() <= 1e-10
        inside = s.center + (x[:1000] - s.center) * (
            s.radius / np.maximum(np.linalg.norm(x[:1000] - s.center, axis=1, keepdims=True), s.radius)
        )
        for xi, pi in zip(x[:50], px[:50]):
            assert float(np.max((inside - pi) @ (xi - pi))) <= 1e-9

    # M-hat and Q-hat nonexpansiveness on pairs inside B[0, rho]
    keep = (np.linalg.norm(x, axis=1) <= rho) & (np.linalg.norm(y, axis=1) <= rho)
    xk, yk = x[keep], y[keep]
    for op in (lambda p: apply_m_hat(lens_fam, 0.25, p), lambda p: apply_q_hat(lens_fam, 8, p)):
        lhs = np.linalg.norm(op(xk) - op(yk), axis=1)
        assert np.all(lhs <= np.linalg.norm(xk - yk, axis=1) + 1e-10)

    # fixed-point sets of M-hat and Q-hat equal the intersection
    inside_pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.25, -0.5]])
    outside_pts = np.array([[5.0, 5.0], [-4.0, 6.0]])
    for q in (0, 3, 10):
        assert fix_set_audit(lens_fam, q, inside_pts, outside_pts).passed
    assert np.array_equal(apply_m_hat(lens_fam, 0.7, inside_pts), inside_pts)
    moved = np.linalg.norm(apply_m_hat(lens_fam, 0.7, outside_pts) - outside_pts, axis=1)
    assert np.all(moved > 0)

    # ball invariance of every recorded iterate of both desk runs
    for problem, trace in ((timed_two_ball[0], timed_two_ball[1]), (timed_lens[0], timed_lens[1])):
        for e in trace.entries:
            assert np.linalg.norm(e.x) <= problem.rho + 1e-12
    pts = xk
    for out in (apply_m_hat(lens_fam, 0.3, pts), apply_q_hat(lens_fam, 12, pts)):
        assert np.all(np.linalg.norm(out, axis=1) <= rho + 1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 5: operator invariant suite, zero violations ({elapsed:.2f}s)")


def test_criterion_6_dini_monotonicity():
    # operator-level check: families built with the default steering schedule
    families = [
        Family((Ball([0, 0], 1.0),)),
        Family((Ball([4, 0], 1.0),)),
        Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0))),
        Family((Ball([5, 0], 2.0), Ball([6, 0], 2.0))),
    ]
    rhos = [5.0, 5.0, 8.0, 8.0]
    for fam, rho in zip(families, rhos):
        gs = np.linspace(-rho, rho, 5)
        grid = np.array([[a, b] for a in gs for b in gs])
        grid = grid[np.linalg.norm(grid, axis=1) <= rho]
        report = dini_monotonicity_check(fam, grid, K=50)
        assert report.max_violation <= 1e-9
        assert not report.violations

    # uniform-convergence sup at sweep 500 on the lens family, 21x21 grid
    lens_fam = families[2]
    gs = np.linspace(-8.0, 8.0, 21)
    grid = np.array([[a, b] for a in gs for b in gs])
    grid = grid[np.linalg.norm(grid, axis=1) <= 8.0]
    T = project_intersection(lens_fam, grid, tol=1e-9)
    path = q_hat_path(lens_fam, 500, grid)
    sup500 = float(np.linalg.norm(path[499] - T, axis=-1).max())
    assert sup500 < 0.05
    print(f"\nPASS criterion 6: Dini zero violations (K=50, 4 families), lens sup at k=500 = {sup500:.4f}")


def test_criterion_7_uniqueness_and_separation(timed_lens):
    lens_problem = timed_lens[0]
    assert uniqueness_certificate(lens_problem).verdict == "UniqueGuaranteed"

    boxes_problem = load_problem(BOXES).problem
    cert = uniqueness_certificate(boxes_problem)
    assert cert.verdict == "NotGuaranteed"
    trace = run_ashlwb(boxes_problem)
    assert trace.terminal in ("Converged", "MaxSweeps")
    pair = extract_best_pair(trace, boxes_problem)
    report = separation_check(boxes_problem, (pair.a, pair.b), samples=1000)
    assert report.passed
    print(
        f"\nPASS criterion 7: lens UniqueGuaranteed; boxes NotGuaranteed, solver "
        f"{trace.terminal} in {trace.sweeps} sweeps, separation min inner products "
        f"({report.min_inner_a:.2e}, {report.min_inner_b:.2e})"
    )


def test_criterion_8_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["run", TWO_BALLS, "--out", out1]) == 0
    assert main(["run", TWO_BALLS, "--out", out2]) == 0
    csv1 = (tmp_path / "d1.csv").read_bytes()
    csv2 = (tmp_path / "d2.csv").read_bytes()
    js1 = (tmp_path / "d1.json").read_bytes()
    js2 = (tmp_path / "d2.json").read_bytes()
    assert csv1 == csv2
    assert js1 == js2
    capsys.readouterr()
    print(f"\nPASS criterion 8: repeated runs byte-identical ({len(csv1)} CSV bytes)")
