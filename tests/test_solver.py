import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestpair import (
    Ball,
    Box,
    Ellipsoid,
    Family,
    HalfSpace,
    Problem,
    ProblemValidationError,
    SolverOptions,
    SteeringSchedule,
    TraceTooShort,
    extract_best_pair,
    intersection,
    run_ashlwb,
    run_cheney_goldstein,
    validate_problem,
)
from bestpair.solver import IterationTrace

SCHED = SteeringSchedule(c=0.004, k0=2.0, p=1.0)


def two_ball_problem(**opts):
    return Problem(
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
        Family((Ball([4, 0], 1.0),), schedule=SCHED),
        options=SolverOptions(**opts) if opts else SolverOptions(),
    )


def analytic_two_ball(ca, ra, cb, rb):
    ca, cb = np.asarray(ca, float), np.asarray(cb, float)
    u = (cb - ca) / np.linalg.norm(cb - ca)
    return ca + ra * u, cb - rb * u


# --- run_ashlwb ----------------------------------------------------------------


def test_two_ball_converges_to_analytic_pair(two_ball_run):
    problem, trace, pair = two_ball_run
    a_true, b_true = analytic_two_ball([0, 0], 1.0, [4, 0], 1.0)
    assert trace.terminal == "Converged"
    assert np.linalg.norm(pair.a - a_true) <= 1e-3
    assert np.linalg.norm(pair.b - b_true) <= 1e-3
    assert abs(pair.gap - 2.0) <= 1e-3


def test_trace_alternates_and_stays_in_ball(two_ball_run):
    problem, trace, _ = two_ball_run
    phases = [e.phase for e in trace.entries]
    assert phases[::2] == ["A"] * len(phases[::2])
    assert phases[1::2] == ["B"] * len(phases[1::2])
    ks = [e.k for e in trace.entries]
    assert ks == list(range(1, len(ks) + 1))
    for e in trace.entries:
        assert np.linalg.norm(e.x) <= problem.rho + 1e-12


def test_sweep_inner_step_counts():
    problem = two_ball_problem(max_sweeps=10, record_inner_steps=True)
    trace = run_ashlwb(problem, np.array([0.0, 1.0]))
    for e in trace.entries:
        assert e.inner is not None
        assert len(e.inner) == e.sweep + 1
        assert np.array_equal(e.inner[-1], e.x)


def test_lens_pair_matches_grid_oracle(lens_run):
    # oracle value frozen from brute_force_pair at resolution 0.01 + polish
    problem, trace, pair = lens_run
    assert trace.terminal == "Converged"
    assert np.linalg.norm(pair.a - np.array([2.0, 0.0])) <= 2e-3
    assert np.linalg.norm(pair.b - np.array([4.0, 0.0])) <= 2e-3
    assert abs(pair.gap - 2.0) <= 2e-3


def test_lens_from_off_axis_start(lens_parsed):
    problem = lens_parsed.problem
    trace = run_ashlwb(problem, np.array([0.0, 1.0]))
    pair = extract_best_pair(trace, problem)
    assert np.linalg.norm(pair.a - np.array([2.0, 0.0])) <= 2e-3
    assert np.linalg.norm(pair.b - np.array([4.0, 0.0])) <= 2e-3


def test_near_fixed_start_settles_quickly():
    problem = two_ball_problem(max_sweeps=40)
    trace = run_ashlwb(problem, np.array([1.0, 0.0]))
    odd = trace.odd_entries()
    diffs = [
        float(np.linalg.norm(b.x - a.x)) for a, b in zip(odd, odd[1:])
    ]
    # consecutive odd-iterate changes fall below pair_gap_tol within a few sweeps
    assert any(d <= problem.options.pair_gap_tol for d in diffs[:10])


def test_x0_outside_ball_is_projected_and_flagged():
    problem = two_ball_problem(max_sweeps=5)
    trace = run_ashlwb(problem, np.array([50.0, 0.0]))
    assert trace.x0_projected
    assert np.linalg.norm(trace.x0) <= problem.rho + 1e-12


def test_gap_sequence_approaches_distance(two_ball_run, lens_run):
    for problem, trace, _ in (two_ball_run, lens_run):
        dist = 2.0
        tail = trace.odd_entries()[-5:]
        for e in tail:
            assert abs(e.gap - dist) <= 2 * problem.options.pair_gap_tol


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_x0_rejected_before_any_sweep(bad, monkeypatch):
    def no_validation(problem):
        raise AssertionError("x0 must be checked before validation")

    monkeypatch.setattr("bestpair.solver.validate_problem", no_validation)
    with pytest.raises(ValueError, match="x0 must be finite"):
        run_ashlwb(two_ball_problem(), [bad, 0.0])


@pytest.mark.parametrize("value", [np.nan, 2.5, 0, True, "200"])
def test_options_reject_non_integer_max_sweeps(value):
    with pytest.raises(ValueError, match="max_sweeps must be an integer >= 1"):
        SolverOptions(max_sweeps=value)


@pytest.mark.parametrize("field", ["pair_gap_tol", "fixed_point_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-4])
def test_options_reject_non_finite_tolerances(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SolverOptions(**{field: value})


def test_max_sweeps_terminal():
    problem = two_ball_problem(max_sweeps=3)
    trace = run_ashlwb(problem)
    assert trace.terminal == "MaxSweeps"
    assert trace.sweeps == 3


# --- extract_best_pair -----------------------------------------------------------


def test_extract_pair_residuals_meet_tolerance(two_ball_run):
    problem, _, pair = two_ball_run
    assert max(pair.residuals) <= problem.options.fixed_point_tol


def test_extract_pair_requires_two_iterates(two_ball_run):
    problem, trace, _ = two_ball_run
    stub = IterationTrace(
        x0=trace.x0, x0_projected=False, entries=trace.entries[:1], terminal="MaxSweeps"
    )
    with pytest.raises(TraceTooShort):
        extract_best_pair(stub, problem)


# --- validation -------------------------------------------------------------------


def test_validation_rejects_overlapping_families():
    problem = Problem(
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
    )
    with pytest.raises(ProblemValidationError, match="not disjoint"):
        validate_problem(problem)


def test_validation_rejects_empty_intersection():
    problem = Problem(
        Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)), schedule=SCHED),
        Family((Ball([10, 0], 1.0),), schedule=SCHED),
    )
    with pytest.raises(ProblemValidationError, match="empty"):
        validate_problem(problem)


def test_validation_rejects_unbounded_family():
    with pytest.raises(ProblemValidationError, match="no bounded member"):
        Problem(
            Family((HalfSpace([1, 0], 0.0),), schedule=SCHED),
            Family((Ball([4, 0], 1.0),), schedule=SCHED),
        )


def test_run_rejects_overlapping_families():
    problem = Problem(
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
        Family((Ball([1, 0], 1.0),), schedule=SCHED),
    )
    with pytest.raises(ProblemValidationError, match="not disjoint"):
        run_ashlwb(problem)


def test_run_rejects_empty_intersection(monkeypatch):
    # a smaller Dykstra budget stalls in milliseconds instead of seconds
    monkeypatch.setattr(intersection, "REFERENCE_MAX_ITER", 2000)
    problem = Problem(
        Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)), schedule=SCHED),
        Family((Ball([10, 0], 1.0),), schedule=SCHED),
    )
    with pytest.raises(ProblemValidationError, match="appears empty"):
        run_ashlwb(problem)


# --- the derived bounding radius ---------------------------------------------------

COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def vectors(n, elements=COORD):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def bounded_member(draw, n):
    kind = draw(st.sampled_from(["ball", "box", "ellipsoid"]))
    center = draw(vectors(n))  # off-centre: anywhere in [-10, 10]^n
    if kind == "ball":
        return Ball(center, draw(st.floats(0.01, 5.0)))
    if kind == "box":  # an extent of 0 makes a flat box
        return Box(center, center + draw(vectors(n, st.floats(0.0, 5.0))))
    axes = draw(vectors(n, st.floats(0.05, 5.0)))
    if draw(st.booleans()):  # thin: one axis 10^2 to 10^4 times shorter
        axes[draw(st.integers(0, n - 1))] = draw(st.floats(1e-4, 1e-2))
    return Ellipsoid(center, axes)


@st.composite
def family_with_bounded_member(draw, n):
    sets = draw(st.lists(bounded_member(n), min_size=1, max_size=3))
    if draw(st.booleans()):
        normal = draw(vectors(n).filter(lambda v: np.linalg.norm(v) > 1e-3))
        sets.insert(draw(st.integers(0, len(sets))), HalfSpace(normal, draw(COORD)))
    return Family(tuple(sets), schedule=SCHED)


def boundary_points(s, rng):
    """Points on the boundary of a bounded member, its farthest ones included."""
    u = rng.standard_normal((64, s.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if isinstance(s, Box):
        corners = np.where(rng.random((64, s.dim)) < 0.5, s.lo, s.hi)
        far = np.where(np.abs(s.lo) >= np.abs(s.hi), s.lo, s.hi)
        return np.vstack([corners, far])
    tips = np.vstack([np.eye(s.dim), -np.eye(s.dim)])
    if isinstance(s, Ball):
        scale = np.max(np.abs(s.center))
        if scale > 0:  # the farthest point lies along the centre; scaled against underflow
            v = s.center / scale
            u = np.vstack([u, v / np.linalg.norm(v)])
        return s.center + s.radius * np.vstack([u, tips])
    return s.center + s.axes * np.vstack([u, tips])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    family_with_bounded_member(n), family_with_bounded_member(n))), st.integers(0, 2**32 - 1))
@example(  # a tiny longest-axis part of the ellipsoid's centre
    families=(
        Family((Ball(np.zeros(4), 1.0),), schedule=SCHED),
        Family((Ellipsoid([5.0, 2.953317911795278e-14, 0.0, 0.0], [1.0, 5.0, 1.0, 1.0]),),
               schedule=SCHED),
    ),
    seed=1,
)
@example(  # the centre underflows when squared
    families=(Family((Ball([0.0], 1.0),), schedule=SCHED),
              Family((Ball([8.14420382e-187], 1.0),), schedule=SCHED)),
    seed=0,
)
@example(  # every bounded member is the origin, so rho = 0
    families=(Family((Box([0.0, 0.0], [0.0, 0.0]),), schedule=SCHED),) * 2,
    seed=0,
)
def test_problem_rho_bounds_every_member(families, seed):
    problem = Problem(*families)
    rng = np.random.default_rng(seed)
    bounded = [s for fam in families for s in fam.sets if not isinstance(s, HalfSpace)]
    for s in bounded:
        assert np.all(np.linalg.norm(boundary_points(s, rng), axis=1) <= problem.rho + 1e-9)
    assert problem.rho == max(s.bounding_radius() for s in bounded)
    replaced = dataclasses.replace(problem, options=SolverOptions(max_sweeps=7))
    assert replaced.rho == problem.rho


def test_halfspace_with_enclosing_ball_validates():
    problem = Problem(
        Family((HalfSpace([1, 0], -1.0), Ball([0, 0], 3.0)), schedule=SCHED),
        Family((Ball([6, 0], 1.0),), schedule=SCHED),
    )
    report = validate_problem(problem)
    # left cap ends at x1 = -1, ball B starts at x1 = 5
    assert report.distance == pytest.approx(6.0, abs=1e-4)


# --- Cheney-Goldstein baseline -----------------------------------------------------


def test_baseline_matches_sweep_solver_two_ball(two_ball_run):
    problem, _, pair = two_ball_run
    base = run_cheney_goldstein(problem)
    assert np.linalg.norm(base.a - pair.a) <= 1e-3
    assert np.linalg.norm(base.b - pair.b) <= 1e-3


def test_baseline_lens_pair(lens_parsed):
    base = run_cheney_goldstein(lens_parsed.problem)
    assert np.allclose(base.a, [2.0, 0.0], atol=1e-3)
    assert np.allclose(base.b, [4.0, 0.0], atol=1e-3)


def test_baseline_sanity_mode_identical_families():
    problem = Problem(
        Family((Ball([3, 0], 1.0),), schedule=SCHED),
        Family((Ball([3, 0], 1.0),), schedule=SCHED),
    )
    pair = run_cheney_goldstein(problem)
    assert pair.gap <= 1e-8


# --- distance estimate: the baseline gap ---------------------------------------


def test_distance_two_unit_balls(two_ball_parsed):
    assert run_cheney_goldstein(two_ball_parsed.problem).gap == pytest.approx(
        2.0, abs=1e-4
    )


def test_distance_lens(lens_parsed):
    assert run_cheney_goldstein(lens_parsed.problem).gap == pytest.approx(
        2.0, abs=1e-3
    )


def test_distance_nearly_touching_balls():
    problem = Problem(
        Family((Ball([0, 0], 1.0),), schedule=SCHED),
        Family((Ball([2 + 1e-3, 0], 1.0),), schedule=SCHED),
    )
    assert run_cheney_goldstein(problem).gap == pytest.approx(1e-3, abs=1e-5)


# --- cross-solver invariants -----------------------------------------------------------


def test_swap_symmetry(lens_parsed):
    p = lens_parsed.problem
    swapped = Problem(p.family_b, p.family_a, p.options, p.seed)
    t1 = run_ashlwb(p)
    t2 = run_ashlwb(swapped)
    pair1 = extract_best_pair(t1, p)
    pair2 = extract_best_pair(t2, swapped)
    assert np.linalg.norm(pair1.a - pair2.b) <= 1e-3
    assert np.linalg.norm(pair1.b - pair2.a) <= 1e-3


def test_boxes_instance_terminates_with_flat_faces(boxes_parsed):
    problem = boxes_parsed.problem
    trace = run_ashlwb(problem, np.array([0.2, 0.7]))
    pair = extract_best_pair(trace, problem)
    assert abs(pair.gap - 2.0) <= 1e-3
    assert pair.a[0] == pytest.approx(1.0, abs=1e-3)
    assert pair.b[0] == pytest.approx(3.0, abs=1e-3)
