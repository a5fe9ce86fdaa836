import numpy as np
import pytest

from bestpair import (
    Ball,
    DimensionMismatch,
    Family,
    HalfSpace,
    MaxIterExceeded,
    Problem,
    SteeringSchedule,
    apply_m,
    apply_m_hat,
    apply_q_hat,
    dini_monotonicity_check,
    fix_set_audit,
    operators,
    project_intersection,
    q_hat_path,
    separation_check,
    shlwb_project,
)

LENS_A = (Ball([0, 0], 2.0), Ball([1, 0], 2.0))
LENS_B = (Ball([5, 0], 2.0), Ball([6, 0], 2.0))


def lens_family(schedule=None):
    return Family(LENS_A, schedule=schedule or SteeringSchedule())


# --- steering schedules ------------------------------------------------------


def test_default_schedule_passes_all_axioms():
    sched = SteeringSchedule()
    taus = sched.tau(np.arange(10**5))
    assert np.all((taus > 0.0) & (taus < 1.0)) and np.all(np.diff(taus) < 0.0)
    assert (sched.c, sched.k0, sched.p) == (1.0, 2.0, 1.0)


@pytest.mark.parametrize("c, k0, p", [(0.004, 2.0, 1.0), (0.999, 1.0, 0.5), (0.5, 1.0, 1e-9)])
def test_schedule_inside_the_axioms_builds(c, k0, p):
    assert 0.0 < SteeringSchedule(c, k0, p).tau(0) < 1.0


def test_constant_schedule_fails_decay():
    with pytest.raises(ValueError) as exc:
        SteeringSchedule(c=0.5, k0=1.0, p=0.0)
    assert str(exc.value) == "schedule violates the steering axioms: p must lie in (0, 1], got 0.0"


def test_quadratic_schedule_fails_divergence():
    with pytest.raises(ValueError) as exc:
        SteeringSchedule(c=1.0, k0=2.0, p=2.0)
    assert str(exc.value) == "schedule violates the steering axioms: p must lie in (0, 1], got 2.0"


@pytest.mark.parametrize("c, k0, tau0", [(2.0, 2.0, "1.0"), (3.0, 2.0, "1.5"), (-1.0, 2.0, "-0.5")])
def test_schedule_rejects_tau0_outside_unit_interval(c, k0, tau0):
    with pytest.raises(ValueError) as exc:
        SteeringSchedule(c=c, k0=k0, p=1.0)
    assert str(exc.value) == (
        f"schedule violates the steering axioms: tau_0 = c / k0^p must lie in (0, 1), got {tau0}"
    )


def test_family_rejects_bad_schedule():
    with pytest.raises(ValueError, match="steering axioms"):
        Family(LENS_A, schedule=SteeringSchedule(c=0.5, k0=1.0, p=0.0))


def test_family_weight_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Family(LENS_A, weights=[0.6, 0.6])
    with pytest.raises(ValueError, match="positive"):
        Family(LENS_A, weights=[1.2, -0.2])
    with pytest.raises(ValueError, match="length"):
        Family(LENS_A, weights=[1.0])


# --- apply_m / apply_m_hat ----------------------------------------------------


def test_apply_m_single_ball_example():
    fam = Family((Ball([0, 0], 1.0),))
    x = np.array([2.0, 0.0])
    got = apply_m(fam, 0.5, anchor=x, x=x)
    assert np.allclose(got, [1.5, 0.0], atol=1e-14)


def test_apply_m_fixed_point_in_intersection():
    fam = lens_family()
    x = np.array([0.5, 0.25])
    for tau in (0.1, 0.5, 0.9):
        assert np.array_equal(apply_m(fam, tau, anchor=x, x=x), x)


def test_apply_m_two_halfspaces_hand_value():
    fam = Family(
        (HalfSpace([1, 0], 0.0), HalfSpace([0, 1], 0.0)), weights=[0.5, 0.5]
    )
    x = np.array([1.0, 1.0])
    got = apply_m(fam, 0.25, anchor=x, x=x)
    # independent scalar evaluation: P1(1,1)=(0,1), P2(1,1)=(1,0)
    avg = 0.5 * np.array([0.0, 1.0]) + 0.5 * np.array([1.0, 0.0])
    expected = 0.25 * x + 0.75 * avg
    assert np.allclose(got, [0.625, 0.625], atol=1e-14)
    assert np.allclose(got, expected, atol=1e-14)


def test_apply_m_rejects_bad_tau():
    fam = lens_family()
    x = np.zeros(2)
    for tau in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            apply_m(fam, tau, anchor=x, x=x)


def test_apply_m_hat_equals_anchored_at_self():
    fam = lens_family()
    x = np.array([4.0, -3.0])
    assert np.array_equal(apply_m_hat(fam, 0.3, x), apply_m(fam, 0.3, x, x))


def test_apply_m_hat_collinearity_across_tau():
    fam = lens_family()
    x = np.array([5.0, 2.0])
    lo = apply_m_hat(fam, 0.1, x)
    hi = apply_m_hat(fam, 0.9, x)
    # both lie on the segment between x and the weighted-projection point
    s = fam.weighted_projection(x)
    for y, tau in ((lo, 0.1), (hi, 0.9)):
        assert np.allclose(y, tau * x + (1 - tau) * s, atol=1e-14)
    u, v = hi - x, lo - x
    cross = u[0] * v[1] - u[1] * v[0]
    assert abs(float(cross)) <= 1e-12


# --- apply_q_hat ---------------------------------------------------------------


def test_q_hat_fixes_intersection_points():
    fam = lens_family()
    x = np.array([0.5, 0.0])
    for q in (0, 3, 17):
        assert np.array_equal(apply_q_hat(fam, q, x), x)


def test_q_hat_zero_is_single_step():
    fam = lens_family()
    x = np.array([4.0, 1.0])
    tau0 = fam.schedule.tau(0)
    assert np.array_equal(apply_q_hat(fam, 0, x), apply_m_hat(fam, tau0, x))


def test_q_hat_long_sweep_approaches_projection():
    fam = Family((Ball([0, 0], 1.0),))
    x = np.array([2.0, 0.0])
    got = apply_q_hat(fam, 50, x)
    assert np.linalg.norm(got - np.array([1.0, 0.0])) < 0.1


def test_q_hat_path_matches_individual_sweeps():
    fam = lens_family()
    x = np.array([4.0, 1.5])
    path = q_hat_path(fam, 6, x)
    for q in range(7):
        assert np.allclose(path[q], apply_q_hat(fam, q, x), atol=1e-14)


# --- shlwb_project -------------------------------------------------------------


def test_shlwb_single_ball():
    fam = Family((Ball([0, 0], 1.0),))
    got = shlwb_project(fam, np.array([2.0, 0.0]), tol=2e-5)
    assert np.linalg.norm(got - np.array([1.0, 0.0])) <= 1e-4


def test_shlwb_two_halfspaces():
    fam = Family((HalfSpace([1, 0], 0.0), HalfSpace([0, 1], 0.0)))
    got = shlwb_project(fam, np.array([1.0, 1.0]), tol=1e-4)
    assert np.linalg.norm(got - np.zeros(2)) <= 1e-3


def test_shlwb_lens():
    # grid oracle value for the lens: rightmost point (2, 0)
    fam = lens_family()
    got = shlwb_project(fam, np.array([5.0, 0.0]), tol=1e-4)
    assert np.linalg.norm(got - np.array([2.0, 0.0])) <= 1e-3


def test_shlwb_max_iter_exceeded_carries_state(monkeypatch):
    monkeypatch.setattr(operators, "SHLWB_MAX_ITER", 50)
    fam = lens_family()
    with pytest.raises(MaxIterExceeded) as exc:
        shlwb_project(fam, np.array([5.0, 0.0]), tol=1e-9)
    assert exc.value.last is not None
    assert exc.value.gap > 0


@pytest.mark.parametrize("anchor", [[np.nan, 0.0], [[5.0, 0.0], [0.0, np.inf]]])
def test_shlwb_rejects_non_finite_anchor(anchor):
    # checked before the first step, not after the 200 000-step budget
    with pytest.raises(ValueError, match="anchor"):
        shlwb_project(lens_family(), np.array(anchor))


NON_FINITE_CALLS = {
    "apply_m": lambda fam, x: apply_m(fam, 0.5, [5.0, 0.0], x),
    "apply_m_hat": lambda fam, x: apply_m_hat(fam, 0.5, x),
    "apply_q_hat": lambda fam, x: apply_q_hat(fam, 3, x),
    "q_hat_path": lambda fam, x: q_hat_path(fam, 3, x),
    "dini_monotonicity_check": lambda fam, x: dini_monotonicity_check(fam, x, 3),
    "fix_set_audit": lambda fam, x: fix_set_audit(fam, 3, x, [10.0, 0.0]),
    "separation_check": lambda fam, x: separation_check(
        Problem(fam, Family(LENS_B)), (np.reshape(x, (-1, 2))[-1], [3.0, 0.0]), samples=10
    ),
}


@pytest.mark.parametrize("x", [[np.nan, 0.0], [[0.5, 0.0], [0.0, np.inf]]], ids=["point", "batch"])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_point_raises(call, x):
    # every member projection passes NaN and inf through, so none would stop
    # them; the check comes first, so no projection warns about inf either
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](lens_family(), np.array(x))


# the argument each call names when its point has the wrong dimension
WRONG_DIMENSION_CALLS = {
    "apply_q_hat": ("point", lambda fam, x: apply_q_hat(fam, 3, x)),
    "q_hat_path": ("point", lambda fam, x: q_hat_path(fam, 3, x)),
    "shlwb_project": ("anchor", lambda fam, x: shlwb_project(fam, x)),
    "project_intersection": ("x", lambda fam, x: project_intersection(fam, x)),
    "dini_monotonicity_check": ("grid", lambda fam, x: dini_monotonicity_check(fam, x, 3)),
    "fix_set_audit": ("inside", lambda fam, x: fix_set_audit(fam, 3, x, [10.0, 0.0])),
    "separation_check": ("pair", lambda fam, x: separation_check(
        Problem(fam, Family(LENS_B)), (x, [3.0, 0.0]), samples=10
    )),
}


@pytest.mark.parametrize("call", sorted(WRONG_DIMENSION_CALLS))
def test_wrong_dimension_names_the_argument(call):
    what, run = WRONG_DIMENSION_CALLS[call]
    with pytest.raises(DimensionMismatch) as exc:
        run(lens_family(), np.array([1.0, 0.0, 0.0]))
    assert str(exc.value) == f"{what} has dimension 3, expected 2"


# --- operator invariants --------------------------------------------------------


def test_m_hat_and_q_hat_nonexpansive(rng):
    rho = 8.0
    fam = lens_family()
    x = rng.uniform(-rho, rho, (1000, 2))
    y = rng.uniform(-rho, rho, (1000, 2))
    keep = (np.linalg.norm(x, axis=1) <= rho) & (np.linalg.norm(y, axis=1) <= rho)
    x, y = x[keep], y[keep]
    for op in (
        lambda p: apply_m_hat(fam, 0.37, p),
        lambda p: apply_q_hat(fam, 7, p),
    ):
        lhs = np.linalg.norm(op(x) - op(y), axis=1)
        rhs = np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= rhs + 1e-10)


def test_m_hat_moves_points_outside_intersection(rng):
    fam = lens_family()
    pts = rng.uniform(-8, 8, (500, 2))
    margins = fam.member_distances(pts).max(axis=0)
    outside = pts[margins > 1e-3]
    moved = np.linalg.norm(apply_m_hat(fam, 0.5, outside) - outside, axis=1)
    assert np.all(moved > 0)


def test_ball_invariance_of_m_hat_and_q_hat(rng):
    rho = 8.0
    fam = lens_family()
    pts = rng.uniform(-rho, rho, (500, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= rho]
    for out in (apply_m_hat(fam, 0.2, pts), apply_q_hat(fam, 9, pts)):
        assert np.all(np.linalg.norm(out, axis=1) <= rho + 1e-12)


def test_sweep_residuals_monotone_and_pointwise_limit():
    # residuals against the reference projection decrease sweep over sweep
    # and fall well below 0.05 by sweep 500 on the lens family
    rho = 8.0
    fam = lens_family()
    gs = np.linspace(-rho, rho, 5)
    grid = np.array([[a, b] for a in gs for b in gs])
    grid = grid[np.linalg.norm(grid, axis=1) <= rho]
    T = project_intersection(fam, grid, tol=1e-9)
    path = q_hat_path(fam, 500, grid)
    rs = np.linalg.norm(path - T, axis=-1)
    diffs = rs[2:51] - rs[1:50]
    assert diffs.max() <= 1e-9
    assert rs[499].max() <= 0.05


def test_product_of_sweeps_converges_uniformly_to_composition():
    # max-over-grid distance to P_B(P_A(x)) is nonincreasing along a k-ladder
    # and falls below 0.05 by k = 500
    rho = 8.0
    fam_a = Family(LENS_A)
    fam_b = Family(LENS_B)
    gs = np.linspace(-rho, rho, 21)
    grid = np.array([[a, b] for a in gs for b in gs])
    grid = grid[np.linalg.norm(grid, axis=1) <= rho]
    pa = project_intersection(fam_a, grid, tol=1e-10)
    pbpa = project_intersection(fam_b, pa, tol=1e-10)
    ladder = [1, 2, 3, 5, 10, 20, 50, 100, 200, 500]
    path_a = q_hat_path(fam_a, max(ladder), grid)
    maxima = []
    for k in ladder:
        yb = apply_q_hat(fam_b, k, path_a[k])
        maxima.append(float(np.linalg.norm(yb - pbpa, axis=1).max()))
    assert all(m2 <= m1 + 1e-6 for m1, m2 in zip(maxima, maxima[1:]))
    assert maxima[-1] < 0.05


def test_dimension_checks(rng):
    fam = lens_family()
    with pytest.raises(Exception):
        apply_m_hat(fam, 0.5, np.zeros(3))
    with pytest.raises(Exception):
        shlwb_project(fam, np.zeros(3))
