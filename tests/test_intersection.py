"""The reference projection onto an intersection.

A batch retires each row once its Dykstra state keeps its bits over a cycle.
`all_rows_reference`, the batch loop as it ran before rows retired, is kept
here so that the retiring loop is held to its bits, beside a half-space too.
An iterate that overflows raises on a point and on a batch, and a gap that
overflows while the iterate stays finite does not.
"""

import warnings

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
    MaxIterExceeded,
    intersection,
    project_intersection,
    shlwb_project,
)
from bestpair.sets import max_distance

LENS = (Ball([0, 0], 2.0), Ball([1, 0], 2.0))


def test_single_set_short_circuits_to_exact_projection():
    sets = (Ball([0, 0], 1.0),)
    x = np.array([3.0, 4.0])
    assert np.array_equal(project_intersection(Family(sets), x), sets[0].project(x))


def test_lens_axis_point():
    got = project_intersection(Family(LENS), np.array([5.0, 0.0]), tol=1e-12)
    assert np.allclose(got, [2.0, 0.0], atol=1e-9)


def test_lens_corner_point():
    # nearest point to (0.5, 3) is the circle-circle corner (0.5, sqrt(3.75))
    got = project_intersection(Family(LENS), np.array([0.5, 3.0]), tol=1e-12)
    assert np.allclose(got, [0.5, np.sqrt(3.75)], atol=1e-9)


def test_box_ball_intersection():
    sets = (Box([0, 0], [1, 1]), Ball([0.5, 0.5], 2.0))
    got = project_intersection(Family(sets), np.array([3.0, 0.5]), tol=1e-12)
    assert np.allclose(got, [1.0, 0.5], atol=1e-10)


def test_variational_inequality_on_lens(rng):
    x = np.array([4.0, 2.5])
    p = project_intersection(Family(LENS), x, tol=1e-12)
    g = rng.standard_normal((4000, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    pts = g * (2.0 * rng.random((4000, 1)) ** 0.5)
    inside = pts[
        np.asarray(LENS[0].contains(pts, tol=0.0)) & np.asarray(LENS[1].contains(pts, tol=0.0))
    ]
    assert len(inside) > 500
    assert float(np.max((inside - p) @ (x - p))) <= 1e-9


def test_batched_projection_matches_single(rng):
    pts = rng.uniform(-6, 6, (40, 2))
    batch = project_intersection(Family(LENS), pts, tol=1e-11)
    singles = np.stack([project_intersection(Family(LENS), p, tol=1e-11) for p in pts])
    assert np.allclose(batch, singles, atol=1e-9)


def test_agrees_with_anchored_iteration():
    # dual route: the anchored iteration at loose tolerance must land near
    # the reference projection
    fam = Family(LENS)
    x = np.array([5.0, 1.0])
    ref = project_intersection(fam, x, tol=1e-12)
    approx = shlwb_project(fam, x, tol=1e-4)
    assert np.linalg.norm(ref - approx) <= 1e-3


@pytest.mark.parametrize("x", [[np.nan, 0.0], [[5.0, 0.0], [0.0, -np.inf]]])
def test_non_finite_point_raises(x):
    # checked before the first cycle, not after the 50 000-cycle budget
    with pytest.raises(ValueError, match="x must have finite"):
        project_intersection(Family(LENS), np.array(x))


def test_empty_intersection_raises(monkeypatch):
    monkeypatch.setattr(intersection, "REFERENCE_MAX_ITER", 2000)
    sets = (Ball([0, 0], 1.0), Ball([5, 0], 1.0))
    with pytest.raises(MaxIterExceeded):
        project_intersection(Family(sets), np.array([2.0, 0.0]))


# --- the retiring batch loop against the all-rows loop -----------------------------


def all_rows_reference(family, x, tol=intersection.REFERENCE_TOL):
    """The batch loop before rows retired: every row runs every cycle."""
    sets = family.sets
    y = x
    incs = [np.zeros_like(y)] * len(sets)
    gap = np.inf
    for _ in range(intersection.REFERENCE_MAX_ITER):
        y_prev = y
        for i, s in enumerate(sets):
            z = y - incs[i]
            y = s.project(z)
            incs[i] = y - z
        gap = max_distance(y, y_prev)
        if gap <= tol:
            if max(max_distance(y, s.project(y)) for s in sets) <= tol:
                return y
    raise MaxIterExceeded("all-rows reference ran out of cycles", last=y, gap=gap)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def members_around(rng, point, kinds):
    """Balls, boxes and ellipsoids that all hold `point`."""
    n = point.size
    members = []
    for kind in kinds:
        if kind == "ball":
            offset = rng.uniform(-1.0, 1.0, n)
            members.append(Ball(point + offset, np.linalg.norm(offset) + rng.uniform(0.1, 1.5)))
        elif kind == "box":
            members.append(Box(point - rng.uniform(0.0, 1.5, n), point + rng.uniform(0.0, 1.5, n)))
        else:
            offset = rng.uniform(-0.5, 0.5, n)
            axes = rng.uniform(0.3, 2.0, n)
            # stretched until the point is inside
            axes *= max(1.0, 1.1 * np.linalg.norm(offset / axes))
            members.append(Ellipsoid(point + offset, axes))
    return members


def batch_around(rng, point, members, m):
    """m rows: the shared point and points near it, points on a member's
    boundary, box corners, points far out, with coordinates of +-0.0 mixed in."""
    n = point.size
    far = point + rng.uniform(-4.0, 4.0, (m, n))
    kind = rng.integers(0, 5, m)
    rows = far.copy()
    rows[kind == 0] = point
    rows[kind == 1] = point + rng.uniform(-0.05, 0.05, (np.sum(kind == 1), n))
    for i in np.flatnonzero(kind == 2):  # on the boundary of one member
        rows[i] = members[rng.integers(len(members))].project(far[i])
    boxes = [s for s in members if isinstance(s, Box)]
    for i in np.flatnonzero(kind == 3):  # a corner of a box
        if boxes:
            box = boxes[rng.integers(len(boxes))]
            rows[i] = np.where(rng.random(n) < 0.5, box.lo, box.hi)
    zeros = rng.random((m, n)) < 0.1
    rows[zeros] = np.where(rng.random(np.sum(zeros)) < 0.5, 0.0, -0.0)
    return rows


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20),
    kinds=st.lists(st.sampled_from(["ball", "box", "ellipsoid"]), min_size=2, max_size=3),
    m=st.integers(1, 300),
    at_origin=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, kinds=["box", "box"], m=50, at_origin=True, seed=0)
def test_retiring_rows_keep_the_all_rows_bits(n, kinds, m, at_origin, seed):
    rng = np.random.default_rng(seed)
    point = np.zeros(n) if at_origin else rng.uniform(-2.0, 2.0, n)
    members = members_around(rng, point, kinds)
    x = batch_around(rng, point, members, m)
    family = Family(tuple(members))
    expected = all_rows_reference(family, x)
    got = project_intersection(family, x)
    assert got.shape == x.shape
    assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 10, 16, 20])
def test_retiring_rows_beside_a_half_space(n):
    """Bit for bit at every n, past numpy's pairwise split at 8 terms too."""
    rng = np.random.default_rng(n)
    point = rng.uniform(-1.0, 1.0, n)
    normal = rng.standard_normal(n)
    members = [*members_around(rng, point, ["ball"]), HalfSpace(normal, normal @ point + 0.3)]
    x = batch_around(rng, point, members, 300)
    family = Family(tuple(members))
    expected = all_rows_reference(family, x)
    got = project_intersection(family, x)
    assert np.array_equal(bits(got), bits(expected))


def test_empty_intersection_batch_keeps_its_shape(monkeypatch):
    """`MaxIterExceeded.last` is the whole batch in the input's shape, and
    its gap is the all-rows loop's."""
    monkeypatch.setattr(intersection, "REFERENCE_MAX_ITER", 2000)
    family = Family((Ball([0, 0], 1.0), Ball([5, 0], 1.0)))
    x = np.random.default_rng(3).uniform(-3.0, 8.0, (2, 5, 2))
    x[0, 0] = [0.0, 0.0]  # a row inside the first ball
    with pytest.raises(MaxIterExceeded) as ref:
        all_rows_reference(family, x)
    with pytest.raises(MaxIterExceeded) as exc:
        project_intersection(family, x)
    assert exc.value.last.shape == x.shape
    assert exc.value.gap == ref.value.gap
    assert np.array_equal(bits(exc.value.last), bits(ref.value.last))


def test_a_zero_that_flips_its_sign_does_not_settle():
    """The settle test compares bits: 0.0 and -0.0 are equal by `==`.  The
    state holds the columns of y and of the increment, one row per column."""
    y = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
    y_prev = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    inc = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0]])
    moved = np.linalg.norm(y - y_prev, axis=-1)
    settled = intersection._settled(moved, np.vstack([y.T, inc.T]), np.vstack([y_prev.T, inc.T]))
    assert settled.tolist() == [False, True, False]
    inc_prev = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    settled = intersection._settled(moved, np.vstack([y.T, inc.T]), np.vstack([y_prev.T, inc_prev.T]))
    assert settled.tolist() == [False, False, False]


class CountingBall(Ball):
    """A ball that counts its `project` calls and the rows they carry."""

    counts = {"calls": 0, "rows": 0}

    def project(self, x):
        self.counts["calls"] += 1
        self.counts["rows"] += np.reshape(x, (-1, self.dim)).shape[0]
        return super().project(x)


def test_settled_rows_are_not_projected_again(monkeypatch, lens_parsed):
    """On the lens family with 2000 anchors, the rows projected number under
    a quarter of those the all-rows loop projects, in as many calls."""
    problem = lens_parsed.problem
    family = Family(tuple(CountingBall(s.center, s.radius) for s in problem.family_a.sets))
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2000, 2))
    x = problem.rho * u / np.linalg.norm(u, axis=1, keepdims=True) * rng.random((2000, 1)) ** 0.5

    def counted(project):
        monkeypatch.setattr(CountingBall, "counts", {"calls": 0, "rows": 0})
        out = project(family, x)
        return out, CountingBall.counts

    expected, all_rows = counted(all_rows_reference)
    got, retiring = counted(project_intersection)
    assert np.array_equal(bits(got), bits(expected))
    assert retiring["calls"] == all_rows["calls"]
    assert retiring["rows"] < 0.25 * all_rows["rows"]


def test_empty_batch_returns_an_empty_batch():
    family = Family(LENS)
    for shape in [(0, 2), (3, 0, 2)]:
        x = np.zeros(shape)
        assert project_intersection(family, x).shape == shape
        assert shlwb_project(family, x).shape == shape


# --- an iterate that leaves the float range ------------------------------------------

# a^2 = 1e300 is accepted, but the projection of (1e151 - 1, 0) overflows to inf
HUGE_AXIS = Ellipsoid([0, 0], [1e150, 1])
OVERFLOWING = np.array([1e151 - 1, 0.0])


@pytest.mark.parametrize("x", [OVERFLOWING, OVERFLOWING[None]], ids=["point", "batch"])
@pytest.mark.parametrize("members", [(HUGE_AXIS,), (HUGE_AXIS, HalfSpace([0, 1], 5))],
                         ids=["alone", "with-halfspace"])
def test_an_overflowing_iterate_raises(members, x):
    """A non-finite iterate is named at once, for one member as for two, on
    a point as on a batch; it is neither returned nor cycled to the end of
    the budget and blamed on an empty intersection.  The two-member batch
    still warns within its cycle, where the half-space meets inf."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="reference projection overflowed"):
            project_intersection(Family(members), x)
    expected = set()
    if len(members) == 2 and x.ndim == 2:
        expected = {"invalid value encountered in multiply", "invalid value encountered in subtract"}
    assert {str(w.message) for w in caught} == expected


def test_a_squared_move_that_overflows_keeps_cycling():
    """A finite iterate whose move is too long to square has a gap of inf:
    the point kernel returns it to `project_intersection`, which goes on, so
    the point keeps the bits of its batch row and of the all-rows loop."""
    family = Family((*LENS, Ball([0.0, 0.0], 1e300)))
    x = np.array([[1e200, 0.0], [-1e300, 1e300], [3.0, 4.0]])
    dykstra = family.kernel(intersection._point_dykstra)
    state, gap, left = dykstra(x[0].tolist() + [0.0] * 6, intersection.REFERENCE_TOL, 5)
    assert gap == np.inf and left == 4 and np.isfinite(state).all()
    with np.errstate(over="ignore"):
        expected = all_rows_reference(family, x)
        batch = project_intersection(family, x)
    assert np.array_equal(bits(batch), bits(expected))
    for row, want in zip(x, expected):
        assert np.array_equal(bits(project_intersection(family, row)), bits(want))


def test_the_point_kernel_stops_at_a_gap_that_is_not_finite():
    """The scalar kernel returns a non-finite gap after the cycle that made
    it, with the cycles left, for `project_intersection` to check."""
    family = Family((HUGE_AXIS, HalfSpace([0, 1], 5)))
    dykstra = family.kernel(intersection._point_dykstra)
    state, gap, left = dykstra(OVERFLOWING.tolist() + [0.0] * 4, intersection.REFERENCE_TOL, 9)
    assert left == 8 and not np.isfinite(gap) and not np.isfinite(state[:2]).all()
