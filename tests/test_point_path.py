"""The single-point path (`project_point` and the point kernels) against the
checked `project` path and the list path.

`project_point` takes and returns a list of floats and promises the bits of
`project` on the same point, so every comparison of the two paths here is
exact; the ellipsoid's root-find is also held to a bound against a 110-round
bisection, and its point path raises where its batch does, at the round cap
too.  Every kind projects a point by its `point_source`, compiled; the tests
here hold that source to `project`.
The checked path is kept as the reference: the `Checked` wrapper routes a
set's point projections through `project`, which is how every single-point
projection ran before the point path existed.  Dimensions reach 12, past
the 8 terms from which numpy sums a norm pairwise.

The point kernels that run the anchored steps of one point are held to the
bits of `list_steps_reference`, the list path they replaced, at n = 1-20
and past each split of numpy's pairwise sum (8, 128 and 2 * 128 terms): the
steps kernel step by step, and the sweep kernel by its last step.  The
Dykstra kernel of `project_intersection` is held to `list_cycles_reference`,
the cycles on lists it replaced, in its result and in the last iterate and
gap of an exhausted budget, and, run a few cycles a call, to `list_cycles`
in its whole state, increments included.  So is the distance of two lists,
which writes that sum out as source too.  No generated source holds a set constant as
text, and a set or family that has compiled a kernel still pickles.
"""

import io
import pathlib
import pickle
import tokenize
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bestpair import (
    Ball,
    Box,
    EllipsoidRootFindError,
    Ellipsoid,
    Family,
    HalfSpace,
    Hyperplane,
    MaxIterExceeded,
    Problem,
    SolverOptions,
    SteeringSchedule,
    apply_m,
    apply_q_hat,
    dini_monotonicity_check,
    operators,
    project_intersection,
    q_hat_path,
    run_ashlwb,
    shlwb_project,
)
from bestpair import intersection, sets
from bestpair.cli import load_problem
from bestpair.intersection import REFERENCE_TOL
from bestpair.operators import anchored_steps
from bestpair.sets import PAIRWISE_BLOCK, max_distance, row_norm

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
SCHED = SteeringSchedule(c=0.004, k0=2.0, p=1.0)
COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class Checked:
    """A set whose point projection is its checked, batch-capable `project`."""

    def __init__(self, s):
        self.s = s
        self.dim = s.dim
        self.bounded = s.bounded

    def project(self, x):
        return self.s.project(x)

    project_point = project

    def bounding_radius(self):
        return self.s.bounding_radius()


def vectors(n, elements=COORD):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def sets_of_kind(draw, kind, n):
    if kind == "ball":
        return Ball(draw(vectors(n)), draw(st.floats(0.01, 5.0)))
    if kind in ("halfspace", "hyperplane"):
        normal = draw(vectors(n).filter(lambda v: np.linalg.norm(v) > 1e-3))
        cls = HalfSpace if kind == "halfspace" else Hyperplane
        return cls(normal, draw(COORD))
    if kind == "box":
        lo = draw(vectors(n))
        return Box(lo, lo + draw(vectors(n, st.floats(0.0, 5.0))))
    axes = draw(vectors(n, st.floats(0.05, 5.0)))
    if draw(st.booleans()):  # thin: one axis 10^2 to 10^4 times shorter
        axes[draw(st.integers(0, n - 1))] = draw(st.floats(1e-4, 1e-2))
    return Ellipsoid(draw(vectors(n)), axes)


KINDS = ["ball", "halfspace", "hyperplane", "box", "ellipsoid"]


@st.composite
def set_and_point(draw):
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 12))
    s = draw(sets_of_kind(kind, n))
    p = draw(vectors(n))
    where = draw(st.sampled_from(["drawn", "boundary", "inside", "far"]))
    if where == "boundary":
        p = s.project(p)  # on the boundary when p was outside
    elif where == "inside":
        p = s.project(p)
        if kind in ("ball", "ellipsoid"):
            p = s.center + 0.5 * (p - s.center)
        elif kind == "halfspace":
            p = p - s.normal
    elif where == "far":
        p = 1e3 * p + draw(st.sampled_from([0.0, 1e4]))
    return s, p


@settings(max_examples=400, deadline=None)
@given(set_and_point())
@example(case=(Ball([0.0], 0.5), np.array([1.0])))
def test_point_path_equals_project(case):
    s, x = case
    try:
        expected = s.project(x)
    except EllipsoidRootFindError:
        with pytest.raises(EllipsoidRootFindError):
            s.project_point(x.tolist())
        return
    point = x.tolist()
    got = s.project_point(point)
    assert isinstance(got, list) and all(type(v) is float for v in got)
    assert same_bits(np.array(got), expected)
    # the branch-based kinds keep the bits of a point they contain
    if not isinstance(s, Box) and s.contains(x, tol=0.0):
        assert same_bits(np.array(got), x)


def rows_around(s, draws, n):
    """Rows for a batch of s: drawn ones and 1e3 times them, the set's
    centre (a point of the plane for an affine set, the middle of a box),
    their projections, which lie on the boundary when they were outside,
    and copies with signed zeros in some coordinates."""
    drawn = np.stack(draws)
    if isinstance(s, (Ball, Ellipsoid)):
        centre = s.center
    elif isinstance(s, Box):
        centre = 0.5 * (s.lo + s.hi)
    else:
        centre = s.project(np.zeros(n))
    rows = np.concatenate([drawn, 1e3 * drawn, centre[None]])
    rows = np.concatenate([rows, s.project(rows)])
    signed = rows.copy()
    signed[:, ::2] = np.copysign(0.0, rows[:, ::2])
    signed[:, 1::2] = np.copysign(0.0, -rows[:, 1::2])
    return np.concatenate([rows, signed])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 20), st.data())
def test_batch_rows_equal_project_point(kind, n, data):
    """`project` on a C-ordered, a column-major, a stacked (2, m, n) and an
    empty batch equals `project_point` on every row, bit for bit, or raises
    where some row's point does."""
    s = data.draw(sets_of_kind(kind, n))
    rows = rows_around(s, data.draw(st.lists(vectors(n), min_size=1, max_size=6)), n)
    try:
        expected = np.array([s.project_point(row.tolist()) for row in rows])
    except EllipsoidRootFindError:
        with pytest.raises(EllipsoidRootFindError):
            s.project(rows)
        return
    half = len(rows) // 2 * 2
    cases = [
        (rows, expected), (np.asfortranarray(rows), expected),
        (rows[:half].reshape(2, -1, n), expected[:half].reshape(2, -1, n)),
        (np.zeros((0, n)), np.zeros((0, n))), (np.zeros((3, 0, n)), np.zeros((3, 0, n))),
    ]
    for x, want in cases:
        assert same_bits(s.project(x), want)


def test_batch_at_the_centre_projects_without_a_warning():
    """A row at a ball's or an ellipsoid's exact centre divides by zero in
    the lanes `where` discards, and a row a subnormal square off an
    ellipsoid's centre overflows its Newton step there; neither raises a
    `RuntimeWarning`.  The tests run with warnings as errors, and the check
    below holds outside them too."""
    for s in (Ball([0.5, -1.0, 2.0], 1.5), Ellipsoid([0.5, -1.0, 2.0], [2.0, 0.5, 1.0]),
              Ellipsoid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])):
        x = np.stack([s.center, s.center + 3.0, s.center, s.center + [0.0, 0.0, 6.7e-161]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = s.project(x)
        assert same_bits(got[0], s.center) and same_bits(got[2], s.center)
        assert same_bits(got[3], x[3])
        assert same_bits(got[1], np.array(s.project_point(x[1].tolist())))


def test_batch_project_compiles_once_per_set(compiled_sources):
    """A set compiles its column function on its first batch and keeps it,
    as it keeps its point function."""
    sources = compiled_sources
    for s in (Ball([0.5, -1.0], 1.5), Ellipsoid([0.5, -1.0], [2.0, 0.5])):
        for x in (np.array([[4.0, 3.0], [0.0, 0.0]]), np.array([[-2.0, 1.0]]), np.array([1.0, 7.0])):
            s.project(x)
    assert [src.split("(", 1)[0] for src in sources] == ["def project_columns", "def project_point"] * 2


def test_batch_warnings_hidden_only_in_the_discarded_lanes():
    """The column form hides divisions by zero and invalid operations only
    in its own code: an overflow of a batch row still warns, and the
    caller's code between two steps of a batch runs under numpy's settings."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        Ball([0.0, 0.0], 1.0).project(np.array([[1e200, 1e200], [0.0, 0.0]]))
    fam = Family((Ball([0.0, 0.0], 2.0), Ellipsoid([1.0, 0.0], [2.0, 1.0])), schedule=SCHED)
    settings_outside = np.geterr()
    for _ in anchored_steps(fam, [0.5, 0.25, 0.125], np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])):
        assert np.geterr() == settings_outside


@pytest.mark.parametrize("s", [
    Ball([0.5, -1.0], 1.5), HalfSpace([1.0, 2.0], 0.5), Hyperplane([1.0, -3.0], 2.0),
    Box([0.0, 0.0], [1.0, 1.0]), Ellipsoid([0.0, 1.0], [2.0, 0.5]),
], ids=lambda s: s.kind)
def test_one_member_point_runs_no_batch_projection(s):
    """A single point of a one-member family goes through `project_point`,
    with the bits of `project`, which it never calls."""
    family = Family((s,))
    for x in (np.array([4.0, -3.0]), np.array([0.5, 0.25])):
        expected = s.project(x)
        with mock.patch.object(type(s), "project", side_effect=AssertionError("batch path")):
            got = project_intersection(family, x)
        assert same_bits(got, expected)


@pytest.mark.parametrize("lo, hi, x", [
    (0.0, 1.0, -0.0),
    (-0.0, 1.0, 0.0),
    (-1.0, 0.0, -0.0),
    (-1.0, -0.0, 0.0),
    (0.0, -0.0, 5.0),
    (0.0, -0.0, -5.0),
    (-0.0, 0.0, -5.0),
    (0.0, 1.0, float("nan")),
])
def test_box_point_path_keeps_clip_signed_zeros(lo, hi, x):
    """The box keeps the bound on a tie, as np.clip does on a point, and
    passes NaN through."""
    box = Box([lo, 0.0], [hi, 1.0])
    point = np.array([x, 0.5])
    assert same_bits(np.array(box.project_point(point.tolist())), box.project(point))


def test_box_tie_with_a_signed_zero_keeps_its_bits_on_every_shape():
    """-0.0 onto `Box([0], [0])` is the bound 0.0 as a point of shape (1,) and
    on every row of shape (1, 1) and (3, 1), through `project` and through an
    `apply_m` step, whose -0.0 / 2 + 0.0 / 2 is 0.0 only if the bound was kept.
    (np.clip gave -0.0 on the rows: its loop depends on the bounds' strides.)"""
    box = Box([0.0], [0.0])
    fam = Family((box,))
    for shape in ((1,), (1, 1), (3, 1)):
        x = np.full(shape, -0.0)
        assert same_bits(box.project(x), np.zeros(shape))
        assert same_bits(apply_m(fam, 0.5, x, x), np.zeros(shape))
    assert same_bits(np.array(box.project_point([-0.0])), np.zeros(1))


NAN, INF = float("nan"), float("inf")
# NaN in each coordinate, the boundary <normal, x> = offset of either offset,
# signed zeros, and infinities
AFFINE_EDGE_POINTS = [
    [NAN, 0.5], [0.5, NAN], [1.0, 0.0], [-0.0, -0.0], [-0.0, 0.5], [0.0, -0.0],
    [INF, 0.5], [-INF, 0.5], [0.5, INF],
]


@pytest.mark.parametrize("offset", [1.0, 0.0, -0.0])
@pytest.mark.parametrize("cls", [HalfSpace, Hyperplane], ids=lambda c: c.kind)
def test_affine_edge_points_agree_on_every_path(cls, offset):
    """`project_point`, `project` on (n,) and a batch row keep the same bits."""
    s = cls([1.0, 2.0], offset)
    batch = np.array(AFFINE_EDGE_POINTS)
    with np.errstate(invalid="ignore"):  # inf - inf: the infinite points go to NaN
        rows = s.project(batch)
        for i, x in enumerate(AFFINE_EDGE_POINTS):
            single = s.project(np.array(x))
            assert same_bits(single, rows[i]), x
            assert same_bits(np.array(s.project_point(list(x))), single), x


@pytest.mark.parametrize("x", [[NAN, 0.5], [0.5, NAN]])
def test_affine_nan_excess(x):
    """A half-space keeps a point whose excess is NaN; a hyperplane maps it to NaN."""
    hs, hp = HalfSpace([1.0, 2.0], 1.0), Hyperplane([1.0, 2.0], 1.0)
    assert same_bits(np.array(hs.project_point(x)), np.array(x))
    assert same_bits(hs.project(np.array(x)), np.array(x))
    assert np.all(np.isnan(hp.project_point(x)))
    assert np.all(np.isnan(hp.project(np.array(x))))


SPLIT_DIMS = [m + k for m in (PAIRWISE_BLOCK, 2 * PAIRWISE_BLOCK) for k in (-1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(
    (st.integers(1, 20) | st.sampled_from([*SPLIT_DIMS, 300])).flatmap(
        lambda n: st.tuples(*[vectors(n, st.floats(-1e3, 1e3))] * 2)
    )
)
def test_list_distance_equals_linalg_norm(uv):
    """`max_distance` on two lists writes out numpy's pairwise sum: the bits
    of `np.linalg.norm(u - v, axis=-1)` below and past each of its splits
    (8, 128 and 2 * 128 terms)."""
    u, v = uv
    assert max_distance(u.tolist(), v.tolist()) == np.linalg.norm(u - v, axis=-1)
    # a batch of shape (3, n), row by row
    rows = np.stack([u, v, 2.0 * u])
    expected = max(np.linalg.norm(a - b, axis=-1) for a, b in zip(rows, rows[::-1]))
    assert max_distance(rows, rows[::-1]) == expected


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-157, 1e150])
def test_point_distance_keeps_the_bits_of_row_norm(scale, rng):
    """`max_distance` of two points, as 1-D arrays, lists or one of each, is
    bit for bit `row_norm(u - v)` at n = 1-20 and beside numpy's pairwise
    splits, with signed zeros and with squares that underflow or overflow."""
    for n in [*range(1, 21), *SPLIT_DIMS]:
        u, v = scale * rng.uniform(-1e3, 1e3, (2, n))
        for p in (u, v):
            zeros = rng.random(n) < 0.25
            p[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        with np.errstate(over="ignore"):
            expected = row_norm(u - v)
        for a, b in ((u, v), (u.tolist(), v.tolist()), (u, v.tolist()), (u.tolist(), v)):
            got = max_distance(a, b)
            assert type(got) is float and same_bits(np.array(got), np.array(expected))


def bisection_110(e, pts):
    """The ellipsoid root-find as it ran before Newton: 110 rounds of bisection."""
    z = pts - e.center
    a2 = e.axes**2
    outside = np.sum((z / e.axes) ** 2, axis=-1) > 1.0
    zo = z[outside]

    def phi(lam):
        return np.sum((zo * a2 / (a2 + lam[:, None]) / e.axes) ** 2, axis=-1) - 1.0

    lo = np.zeros(zo.shape[0])
    hi = np.linalg.norm(zo * e.axes, axis=-1) + np.max(a2)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        w = phi(mid) > 0.0
        lo = np.where(w, mid, lo)
        hi = np.where(w, hi, mid)
    lam = 0.5 * (lo + hi)
    proj = pts.copy()
    proj[outside] = e.center + zo * a2 / (a2 + lam[:, None])
    return proj, np.abs(phi(lam))


@st.composite
def ellipsoid_and_points(draw):
    n = draw(st.integers(1, 20))
    e = draw(sets_of_kind("ellipsoid", n))
    scale = draw(st.sampled_from([1.0, 1e3, 1e4]))
    return e, scale * np.stack(draw(st.lists(vectors(n), min_size=1, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(ellipsoid_and_points())
@example(case=(Ellipsoid([4.0, 0.0], [4.64453125, 1.0]), np.array([[-7281.081458166492, 0.0]])))
def test_ellipsoid_newton_matches_110_round_bisection(case):
    """Newton lands within 8 ulps of the largest coordinate of the bisection's
    row or of its offset w from the centre, and the point path keeps the bits
    of the batch row.  Both rows are c + w, so each carries the rounding of w:
    in the pinned case w is -4.64453125 and the row -0.64453125, and Newton is
    1 ulp of w off that exact row, the bisection 2.  The bisection settles to
    a dual residual of at most 1e-12 on every row drawn here, so failure
    parity, where the point path raises as the batch does, is held by
    `test_point_kernels_raise_at_the_round_cap_where_the_batch_does`."""
    e, pts = case
    expected, residual = bisection_110(e, pts)
    assert residual.max(initial=0.0) <= 1e-12
    got = e.project(pts)
    magnitude = np.maximum(np.abs(expected), np.abs(expected - e.center)).max(axis=-1)
    bound = 8 * np.finfo(float).eps * np.maximum(1.0, magnitude)
    assert np.all(np.abs(got - expected).max(axis=-1) <= bound)
    for p, row in zip(pts, got):
        assert same_bits(np.array(e.project_point(p.tolist())), row)


def test_ellipsoid_newton_rounds_stay_under_20(monkeypatch, rng):
    """From its warm start, Newton needs fewer than 20 rounds on thin
    ellipsoids seen from 1e3 to 1e4 away and on points an ulp outside; one
    round is too few in 20-D, so the cap is live.  (In 1-D the start is the
    root.)"""
    monkeypatch.setattr(sets, "_ELLIPSOID_MAX_ROUNDS", 20)
    for n in (1, 2, 5, 12, 20):
        axes = rng.uniform(0.5, 3.0, n)
        axes[0] = 1e-4
        e = Ellipsoid(rng.uniform(-1.0, 1.0, n), axes)
        u = rng.standard_normal((40, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        far = e.center + rng.uniform(1e3, 1e4, (40, 1)) * u
        near = e.center + e.axes * u
        while np.any(e.contains(near, tol=0.0)):  # step each coordinate out by an ulp
            near = np.nextafter(near, np.where(near > e.center, np.inf, -np.inf))
        for pts in (far, near):
            e.project(pts)
            for p in pts:
                e.project_point(p.tolist())
    monkeypatch.setattr(sets, "_ELLIPSOID_MAX_ROUNDS", 1)
    e = Ellipsoid(e.center, e.axes)  # a set reads the cap when it compiles
    with pytest.raises(EllipsoidRootFindError):
        e.project(far)


def test_point_kernels_raise_at_the_round_cap_where_the_batch_does(monkeypatch, rng):
    """A thin 20-D ellipsoid beside a ball: a point sweep and a point Dykstra
    projection run under the default cap, and under a one-round cap raise
    `EllipsoidRootFindError` on the point as on its batch of one row.  A
    family compiles its kernels on first use, so each is made under its cap."""
    n = 20
    axes = rng.uniform(0.5, 3.0, n)
    axes[0] = 1e-4
    center = rng.uniform(-1.0, 1.0, n)
    x = center + 1e3 * rng.standard_normal(n)

    def family():
        return Family((Ellipsoid(center, axes), Ball(center, 1.0)))

    fam = family()
    apply_q_hat(fam, 3, x)
    project_intersection(fam, x)
    monkeypatch.setattr(sets, "_ELLIPSOID_MAX_ROUNDS", 1)
    fam = family()
    for run in (lambda p: apply_q_hat(fam, 3, p), lambda p: project_intersection(fam, p)):
        for p in (x[None], x):
            with pytest.raises(EllipsoidRootFindError):
                run(p)


def all_rows_newton(e, pts):
    """The batched Newton as it ran before rows retired: every outside row
    steps until no row rises.  Returns the projection and the residual that
    `project` checks."""
    z = pts - e.center
    a2 = e.axes**2
    outside = np.sum((z / e.axes) ** 2, axis=-1) > 1.0
    if not outside.any():
        return pts, 0.0
    zo = z[outside]
    g = zo * e.axes
    lam = sets._dual_start(g, a2, 0.0)
    for _ in range(sets._ELLIPSOID_MAX_ROUNDS):
        phi, step = sets._newton_step(g, a2 + lam[:, None])
        nxt = lam + step
        rises = nxt > lam
        if not rises.any():
            break
        lam = np.where(rises, nxt, lam)
    proj = pts.copy()
    proj[outside] = e.center + zo * a2 / (a2 + lam[:, None])
    return proj, np.abs(phi).max()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ellipsoid_retiring_rows_keep_the_all_rows_bits(data):
    """A row leaves the batched Newton at its first step that does not raise
    lam, with that step's residual; under a round cap, a row still rising
    keeps the residual a step back.  Both keep the all-rows loop's bits and
    its verdict."""
    n = data.draw(st.integers(1, 20))
    e = data.draw(sets_of_kind("ellipsoid", n))
    scale = data.draw(st.sampled_from([1.0, 1e3, 1e4]))
    pts = scale * np.stack(data.draw(st.lists(vectors(n), min_size=1, max_size=40)))
    rounds = data.draw(st.sampled_from([1, 2, 3, 5, sets._ELLIPSOID_MAX_ROUNDS]))
    with mock.patch.object(sets, "_ELLIPSOID_MAX_ROUNDS", rounds):
        expected, residual = all_rows_newton(e, pts)
        if residual > 1e-12:
            with pytest.raises(EllipsoidRootFindError):
                e.project(pts)
            return
        assert same_bits(e.project(pts), expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_family_point_equals_batch_row(data):
    """A point step of `apply_m` keeps the bits of the same step on its batch row."""
    n = data.draw(st.integers(1, 12))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    fam = Family(tuple(data.draw(sets_of_kind(k, n)) for k in kinds))
    pts = np.stack(data.draw(st.lists(vectors(n), min_size=1, max_size=6)))
    tau = data.draw(st.floats(0.01, 0.99))
    try:
        batch = apply_m(fam, tau, pts, pts)
    except EllipsoidRootFindError:
        return
    for i, p in enumerate(pts):
        assert same_bits(apply_m(fam, tau, p, p), batch[i])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sub_batch_path_has_the_bits_of_the_full_batch(data):
    """`q_hat_path` on any slice of a batch keeps the bits of the same rows
    of the full batch, with half-spaces and hyperplanes from n = 8 on, where
    numpy's sums split pairwise."""
    n = data.draw(st.integers(8, 12))
    kinds = [data.draw(st.sampled_from(["halfspace", "hyperplane"])),
             *data.draw(st.lists(st.sampled_from(KINDS), max_size=2))]
    fam = Family(tuple(data.draw(sets_of_kind(k, n)) for k in kinds), schedule=SCHED)
    pts = np.stack(data.draw(st.lists(vectors(n), min_size=2, max_size=24)))
    start = data.draw(st.integers(0, len(pts) - 1))
    stop = data.draw(st.integers(start + 1, len(pts)))
    try:
        full = q_hat_path(fam, 3, pts)
    except EllipsoidRootFindError:
        return
    assert same_bits(q_hat_path(fam, 3, pts[start:stop]), full[:, start:stop])


def list_steps_reference(family, taus, anchor, y=None):
    """The point branch of `anchored_steps` as it ran before the point
    kernel: each step on lists of floats, through the members' `project_point`,
    summed in index order."""
    anchor = np.asarray(anchor, dtype=float).tolist()
    y = anchor if y is None else np.asarray(y, dtype=float).tolist()
    weights = family.weights.tolist()
    for tau in taus:
        s = 1.0 - tau
        acc = [weights[0] * v for v in family.sets[0].project_point(y)]
        for w, member in zip(weights[1:], family.sets[1:]):
            acc = [a + w * v for a, v in zip(acc, member.project_point(y))]
        y = [tau * a + s * p for a, p in zip(anchor, acc)]
        yield y


def random_set(rng, kind, n):
    """A set of `kind` in R^n, some of its coordinates +-0.0, drawn by numpy so
    that n = 300 stays within hypothesis's data budget."""
    def coords(lo, hi):
        v = rng.uniform(lo, hi, n)
        zeros = rng.random(n) < 0.2
        v[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        return v

    if kind == "ball":
        return Ball(coords(-10.0, 10.0), rng.uniform(0.01, 5.0))
    if kind in ("halfspace", "hyperplane"):
        normal = coords(-10.0, 10.0)
        normal[rng.integers(n)] = rng.uniform(0.5, 10.0)
        return (HalfSpace if kind == "halfspace" else Hyperplane)(normal, rng.uniform(-10.0, 10.0))
    if kind == "box":
        lo = coords(-10.0, 10.0)
        return Box(lo, lo + coords(0.0, 5.0))
    return Ellipsoid(coords(-10.0, 10.0), rng.uniform(0.05, 5.0, n))


def random_point(rng, family, where):
    p = rng.uniform(-10.0, 10.0, family.dim)
    s = family.sets[rng.integers(len(family.sets))]
    if where in ("boundary", "inside"):
        p = s.project(p)  # on the boundary when p was outside
    if where == "inside" and hasattr(s, "center"):
        p = s.center + 0.5 * (p - s.center)
    elif where == "far":
        p = 1e3 * p + rng.choice([0.0, 1e4])
    zeros = rng.random(family.dim) < 0.2
    p[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return p


def steps_or_error(steps):
    """The lists `steps` yields, and the ellipsoid root-find error that ends
    them, if any."""
    out = []
    try:
        for y in steps:
            out.append(y)
    except EllipsoidRootFindError:
        return out, EllipsoidRootFindError
    return out, None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 20) | st.sampled_from([127, 128, 129, 136, 300]),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    st.sampled_from(["drawn", "boundary", "inside", "far"]),
    st.integers(0, 40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_point_kernel_equals_list_steps(n, kinds, where, q, start, seed):
    """The point kernel yields the lists of the list path, down to the sign of
    zero, on every kind, with non-uniform weights, at n = 1-20 and past each
    split of numpy's pairwise sum (8, 128 and 2 * 128 terms); a point
    `apply_q_hat`, one call of the sweep kernel, returns the last of them."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, len(kinds))
    fam = Family(tuple(random_set(rng, k, n) for k in kinds), weights=raw / raw.sum())
    anchor = random_point(rng, fam, where)
    y = random_point(rng, fam, where) if start else None
    taus = fam.schedule.tau(np.arange(q + 1)).tolist()
    got, got_error = steps_or_error(anchored_steps(fam, taus, anchor, y))
    expected, error = steps_or_error(list_steps_reference(fam, taus, anchor, y))
    assert got_error is error and len(got) == len(expected)
    for g, e in zip(got, expected):
        assert isinstance(g, list) and same_bits(np.array(g), np.array(e))
    if not start:
        try:
            last = apply_q_hat(fam, q, anchor)
        except EllipsoidRootFindError:
            last = EllipsoidRootFindError
        assert last is error if error else same_bits(last, np.array(expected[-1]))


class SubBall(Ball):
    """A Ball by its data, but its own type: it may change `project_point`."""


def test_point_kernel_calls_members_it_does_not_inline(monkeypatch, rng):
    """A Ball subclass and a wrapped set go through `project_point` once a
    step; a Ball, Box, HalfSpace, Hyperplane or Ellipsoid is inlined and calls
    nothing."""
    calls = []
    for cls in (Ball, Box, HalfSpace, Hyperplane, Ellipsoid):
        for name in ("project", "project_point"):
            method = getattr(cls, name)
            monkeypatch.setattr(
                cls, name, lambda s, x, m=method, name=name: calls.append((type(s), name)) or m(s, x)
            )
    fam = Family((Ball([0.0, 0.0], 2.0), SubBall([1.0, 0.0], 2.0), Checked(Box([0, 0], [1, 1])),
                  HalfSpace([1.0, 1.0], 0.5), Hyperplane([1.0, -1.0], 0.0),
                  Ellipsoid([0.5, -0.5], [2.0, 0.5])),
                 weights=[0.1, 0.2, 0.3, 0.2, 0.1, 0.1])
    taus = fam.schedule.tau(np.arange(8)).tolist()
    x = 4.0 * rng.standard_normal(2)
    got = list(anchored_steps(fam, taus, x))
    assert set(calls) == {(SubBall, "project_point"), (Box, "project")}
    assert calls.count((SubBall, "project_point")) == calls.count((Box, "project")) == len(taus)
    for g, e in zip(got, list_steps_reference(fam, taus, x), strict=True):
        assert same_bits(np.array(g), np.array(e))


@pytest.fixture()
def builds(cold_kernels, monkeypatch):
    """(kernel, family) of every point kernel built, in order."""
    built = []
    for module, kernel, name in ((operators, "steps", "_point_steps"),
                                 (intersection, "dykstra", "_point_dykstra")):
        build = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda fam, b=build, k=kernel: built.append((k, fam)) or b(fam)
        )
    return built


def test_point_kernel_is_built_once_on_the_first_point_step(builds, rng):
    """Loading a problem, making a family and batch calls build no point
    kernel; the first point step builds its family's steps kernel, which
    the point sweeps reuse, and the first point projection its Dykstra
    kernel, and later calls reuse them."""
    fam = load_problem(str(PROBLEMS / "lens.json")).problem.family_a
    batch = 4.0 * rng.standard_normal((6, 2))
    list(anchored_steps(fam, [0.5, 0.25], batch))
    project_intersection(fam, batch)
    dini_monotonicity_check(fam, batch, 5)
    apply_q_hat(fam, 3, batch)
    assert builds == []
    point = batch[0]
    apply_m(fam, 0.5, point, point)
    assert builds == [("steps", fam)]
    for _ in range(2):
        apply_q_hat(fam, 10, point)
        q_hat_path(fam, 4, point)
        project_intersection(fam, point)
    assert builds == [("steps", fam), ("dykstra", fam)]


def test_a_family_keeps_one_step_kernel_per_form(rng):
    """Point and batch `apply_m`, `apply_q_hat`, `q_hat_path` and
    `shlwb_project` all run the one step kernel, in its point form or its
    column form."""
    fam = Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)))
    batch = 4.0 * rng.standard_normal((6, 2))
    for x in (batch[0], batch):
        apply_m(fam, 0.5, x, x)
        apply_q_hat(fam, 10, x)
        q_hat_path(fam, 4, x)
        shlwb_project(fam, x)
    assert set(fam._kernels) == {operators._point_steps, operators._column_steps}


@pytest.mark.parametrize("member", [
    Ball([0.5, -1.0], 1.5), HalfSpace([1.0, 2.0], 0.5), Hyperplane([1.0, -3.0], 2.0),
    Box([0.0, 0.0], [1.0, 1.0]), Ellipsoid([0.0, 1.0], [2.0, 0.5]),
], ids=lambda s: s.kind)
def test_point_sweep_is_the_last_anchored_step(member, rng):
    """A point's `apply_q_hat`, one run of the kernel over one block of taus,
    has the bits of the last step of `anchored_steps`, one tau a block."""
    fam = Family((member, Ball([0.0, 0.0], 2.0)), weights=[0.625, 0.375], schedule=SCHED)
    for x in 4.0 * rng.standard_normal((5, 2)):
        *_, last = anchored_steps(fam, fam.schedule.taus(31), x)
        assert same_bits(apply_q_hat(fam, 30, x), np.array(last))


def test_families_of_one_shape_share_the_kernel_code():
    """The kernel's code depends on the member kinds, their count and n
    alone, so it is compiled once for all families of that shape."""
    f1 = Family((Ball([0.0, 0.0], 2.0), Ball([1.0, 0.0], 2.0)))
    f2 = Family((Ball([5.0, 0.0], 1.0), Ball([6.0, 1.0], 3.0)), weights=[0.3, 0.7])
    x = [3.0, 4.0]
    assert not np.array_equal(apply_m(f1, 0.5, x, x), apply_m(f2, 0.5, x, x))
    build = operators._point_steps
    assert f1.kernel(build).__code__ is f2.kernel(build).__code__


# the kernel builds of a set and of a family, each (head, constants, body)
SET_BUILDS = (sets._point_projection, sets._column_projection)
FAMILY_BUILDS = (operators._point_steps, operators._column_steps, intersection._point_dykstra,
                 intersection._column_dykstra)


def kernel_text(build, owner):
    """The def line, constant names and body lines `build` writes for owner."""
    head, consts, body = build(owner)
    return head, tuple(consts), body()


def family_of(kinds, n, rng):
    point = rng.uniform(-3.0, 3.0, n)
    raw = rng.uniform(0.1, 1.0, len(kinds))
    return Family(tuple(member_around(rng, k, point) for k in kinds), weights=raw / raw.sum())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 10),
    st.lists(st.sampled_from([*KINDS, "subball", "checked"]), min_size=1, max_size=3),
    st.lists(st.sampled_from([*KINDS, "subball", "checked"]), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_objects_of_one_shape_write_one_source(n, kinds, other_kinds, seed):
    """Two sets or families of one shape, drawn with different data, write
    the same source and constant names in every build of either form, so
    `Compiled.kernel` may key code by shape: members of other types, or in
    another order, key other code."""
    rng = np.random.default_rng(seed)
    f1, f2, f3 = family_of(kinds, n, rng), family_of(kinds, n, rng), family_of(other_kinds, n, rng)
    for build in FAMILY_BUILDS:
        assert kernel_text(build, f1) == kernel_text(build, f2)
    for s1, s2 in zip(f1.sets, f2.sets):
        if isinstance(s1, sets.Compiled):
            for build in SET_BUILDS:
                assert kernel_text(build, s1) == kernel_text(build, s2)
    with mock.patch.object(sets, "_shape_code", {}):
        for fam in (f1, f2, f3):
            for build in FAMILY_BUILDS:
                fam.kernel(build)
        shapes = 1 if [type(s) for s in f1.sets] == [type(s) for s in f3.sets] else 2
        assert len(sets._shape_code) == shapes * len(FAMILY_BUILDS)


def kernel_results(fam, points):
    """The outcome of every kernel of the family and its members on points,
    Dykstra's under a budget of 300 cycles."""
    out = []
    for s in fam.sets:
        out += [("done", np.array(s.project_point(p.tolist()))) for p in points]
        out.append(("done", s.project(points)))
    for x in (*points, points):
        out.append(outcome(apply_q_hat, fam, 6, x))
        with mock.patch.object(intersection, "REFERENCE_MAX_ITER", 300):
            out.append(outcome(project_intersection, fam, x))
    return out


@pytest.mark.parametrize("kind", [*KINDS, "subball"])
def test_a_kernel_bound_from_the_cache_has_the_bits_of_a_cold_one(kind, cold_kernels, rng):
    """A family of a kind and a ball, and its members, give the same bits
    from code compiled for them, on an empty cache, and from code compiled
    for a family of other data and the same shape, on random points."""
    n = 5
    points = 4.0 * rng.standard_normal((4, n))

    def family(seed):
        return family_of([kind, "ball"], n, np.random.default_rng(seed))

    cold = kernel_results(family(1), points)
    sets._shape_code.clear()
    kernel_results(family(2), points)
    shapes = len(sets._shape_code)
    for got, want in zip(kernel_results(family(1), points), cold, strict=True):
        same_outcome(got, want)
    assert len(sets._shape_code) == shapes


def test_a_second_family_of_a_known_shape_writes_no_source(compiled_sources, monkeypatch, rng):
    """Once a family of one shape has run every kernel, a second family of
    that shape, and its members, call no `point_source` and compile
    nothing: they bind their constants to the code already compiled."""
    written = []
    for cls in (Ball, sets._Affine, Box, Ellipsoid):
        method = cls.point_source
        monkeypatch.setattr(cls, "point_source",
                            lambda self, *args, m=method: written.append(type(self)) or m(self, *args))
    kinds = ["ellipsoid", "halfspace", "box", "hyperplane", "ball", "subball"]
    points = 4.0 * rng.standard_normal((3, 4))
    kernel_results(family_of(kinds, 4, np.random.default_rng(1)), points)
    assert written and compiled_sources
    written.clear()
    compiled_sources.clear()
    kernel_results(family_of(kinds, 4, np.random.default_rng(2)), points)
    assert written == [] and compiled_sources == []


def test_point_kernel_keeps_the_bits_of_extreme_constants():
    """Subnormal, -0.0 and 1e300 members reach the kernel with their bits."""
    tiny = 5e-324
    fam = Family(
        (Box([-0.0, tiny, -1e300], [0.0, 1e-310, 1e300]), Ball([-0.0, tiny, 1e300], 1e300),
         HalfSpace([tiny, -0.0, 1.0], -0.0), Hyperplane([-0.0, 1.0, tiny], 1e-310)),
        weights=[0.4, 0.3, 0.2, 0.1],
    )
    taus = fam.schedule.tau(np.arange(6)).tolist()
    for x in ([0.0, -0.0, 1e300], [-0.0, tiny, -tiny], [-1e300, 1e-310, 0.0]):
        got = anchored_steps(fam, taus, x)
        for g, e in zip(got, list_steps_reference(fam, taus, x), strict=True):
            assert same_bits(np.array(g), np.array(e))


def number_literals(source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.string for t in tokens if t.type == tokenize.NUMBER}


def test_point_kernel_source_holds_no_set_constant(compiled_sources, monkeypatch):
    """Only indices and operators are written into generated source: the
    kernel's number literals are the 0.0 and 1.0 of its formulas, and the
    sources of the Dykstra kernel, of `project_point` and of the list
    distance hold no other.  Each kernel is compiled by
    `sets.compiled_function` on its first use, and a point sweep compiles
    nothing: it runs the steps kernel."""
    sources = compiled_sources
    members = (Ball([0.25, -0.0], 1.5), Box([0.1, 0.2], [0.3, 0.4]), HalfSpace([3.5, 1.0], 0.75),
               Hyperplane([1.0, 2.0], 0.125), Ellipsoid([0.5, 0.5], [2.0, 3.0]))
    fam = Family(members, weights=[0.3, 0.1, 0.2, 0.15, 0.25])
    apply_m(fam, 0.375, [7.0, 9.0], [7.0, 9.0])
    [kernel] = sources
    assert number_literals(kernel) == {"0.0", "1.0"}
    apply_q_hat(fam, 3, [7.0, 9.0])
    monkeypatch.setattr(intersection, "REFERENCE_MAX_ITER", 3)
    with pytest.raises(MaxIterExceeded):
        project_intersection(fam, [7.0, 9.0])
    # the kernel compiles no member's `project_point`: the exit test around
    # it, `Family.within`, calls them, up to the first member too far
    heads = [src.split("(", 1)[0] for src in sources]
    assert heads[:2] == ["def steps", "def dykstra"] and set(heads[2:]) == {"def project_point"}
    for s in members:
        s.project_point([7.0, 9.0])
    for n in (2, 8, 300):
        sets._list_distance.__wrapped__(n)
    assert len(sources) == 10
    for source in sources[1:]:
        assert number_literals(source) <= {"0.0", "1.0"}


def mixed_family():
    return Family(
        (Ellipsoid([0.2, -0.1, 0.0], [1.5, 1.0, 0.7]), HalfSpace([0.3, 1.0, -0.2], 0.1),
         Ball([0.0, 0.0, 0.2], 1.2)),
        weights=[0.5, 0.3, 0.2],
        schedule=SCHED,
    )


def lens_family():
    return Family((Ball([0, 0], 2.0), Ball([1, 0], 2.0)), schedule=SCHED)


@pytest.mark.parametrize("make", [lens_family, mixed_family])
def test_q_hat_path_last_row_is_apply_q_hat(make, rng):
    """Bit for bit, at every q, while the schedule's kept tau list grows."""
    fam = make()
    point = 4.0 * rng.standard_normal(fam.dim)
    batch = 4.0 * rng.standard_normal((5, fam.dim))
    for q in (0, 1, 2, 5, 30, 3, 64, 300, 129):
        for x in (point, batch):
            path = q_hat_path(fam, q, x)
            assert same_bits(path[-1], apply_q_hat(fam, q, x))


def checked(fam):
    return Family(tuple(Checked(s) for s in fam.sets), fam.weights, fam.schedule)


@pytest.mark.parametrize("make", [lens_family, mixed_family])
def test_project_intersection_point_path_matches_checked(make, rng):
    fam = make()
    for _ in range(5):
        x = 4.0 * rng.standard_normal(fam.dim)
        assert np.array_equal(project_intersection(fam, x), project_intersection(checked(fam), x))


def mixed_problem():
    fam_b = Family(
        (Ball([5.0, 0.0, 0.0], 1.5), Hyperplane([0.0, 0.0, 1.0], 0.25)), schedule=SCHED
    )
    return Problem(mixed_family(), fam_b, options=SolverOptions(max_sweeps=25))


def lens_problem():
    fam_b = Family((Ball([5, 0], 2.0), Ball([6, 0], 2.0)), schedule=SCHED)
    return Problem(lens_family(), fam_b, options=SolverOptions(max_sweeps=40))


def ellipsoid_problem():
    """Dimension 20: numpy sums its norms and quadratic forms pairwise."""
    rng = np.random.default_rng(4)
    center = rng.normal(0.0, 0.3, 20)
    tilt = np.concatenate([[-1.0], rng.normal(0.0, 0.1, 19)])
    fam_a = Family(
        (Ellipsoid(center, np.concatenate([[2.0], rng.uniform(1.0, 2.0, 19)])),
         HalfSpace(tilt, float(tilt @ center) + 1.0)),
        schedule=SCHED,
    )
    normal = np.zeros(20)
    normal[1:3] = [1.0, 0.5]
    center_b = center + 7.0 * np.eye(20)[0]
    fam_b = Family(
        (Ball(center_b, 2.0), Hyperplane(normal, float(normal @ center_b))), schedule=SCHED
    )
    return Problem(fam_a, fam_b, options=SolverOptions(max_sweeps=12))


@pytest.mark.parametrize("make", [lens_problem, mixed_problem, ellipsoid_problem])
def test_run_matches_checked_projections(make):
    """A run on the point path repeats the run on checked projections bit for bit."""
    p = make()
    ref = Problem(checked(p.family_a), checked(p.family_b), p.options)
    x0 = np.full(p.dim, 0.3)
    fast = run_ashlwb(p, x0)
    slow = run_ashlwb(ref, x0)
    assert fast.terminal == slow.terminal
    assert len(fast.entries) == len(slow.entries)
    for e, f in zip(fast.entries, slow.entries):
        assert np.array_equal(e.x, f.x) and e.gap == f.gap


# --- the kept tau list --------------------------------------------------------


@pytest.mark.parametrize("c, k0, p", [
    (1.0, 2.0, 1.0), (0.004, 2.0, 1.0), (0.5, 1.5, 0.5), (0.3, 3.0, 0.7), (0.9, 1.01, 0.7),
    (2.0, 7.0, 0.5), (1e-3, 1e3, 0.999),
])
def test_schedule_taus_are_the_array_evaluation(c, k0, p):
    """The kept tau list, grown by doubling, hands out the bits of
    `tau(np.arange(q + 1)).tolist()` for every q up to 1 000, asked for in
    rising order or first at the longest."""
    def bits(values):
        return np.array(values).tobytes()

    rising, longest_first = SteeringSchedule(c, k0, p), SteeringSchedule(c, k0, p)
    longest_first.taus(1001)
    for q in range(1001):
        expected = bits(rising.tau(np.arange(q + 1)).tolist())
        assert bits(rising.taus(q + 1)) == expected
        assert bits(longest_first.taus(q + 1)) == expected
    assert rising.taus(0) == []


def test_schedule_taus_are_a_copy():
    """A caller that changes the list it was handed changes no later list."""
    sched = SteeringSchedule(c=0.5, k0=2.0, p=0.7)
    expected = sched.tau(np.arange(6)).tolist()
    got = sched.taus(6)
    got[0] = 0.25
    got.append(0.125)
    del got[3]
    assert sched.taus(6) == expected
    fam = Family((Ball([0.0, 0.0], 2.0), Ball([1.0, 0.0], 2.0)), schedule=sched)
    operators._sweep_taus(fam, 5).clear()
    assert sched.taus(6) == expected


# --- the Dykstra kernel -----------------------------------------------------------


def list_cycles(family, x, tol=REFERENCE_TOL):
    """The point branch of `project_intersection` as it ran before the
    Dykstra kernel: Dykstra's cycles on lists of floats through the members'
    `project_point`, with the gap and the feasibility test of `max_distance`.
    Returns (done, state, gap, cycles run), the state y and then each
    member's increment, as the kernel holds it."""
    projections = [s.project_point for s in family.sets]
    y = np.asarray(x, dtype=float).tolist()
    # no increment is changed in place, so they can start as one object
    incs = [[0.0] * len(y)] * len(projections)
    gap, done, cycles = np.inf, False, 0
    while not done and cycles < intersection.REFERENCE_MAX_ITER:
        y_prev = y
        for i, project in enumerate(projections):
            z = [a - b for a, b in zip(y, incs[i])]
            y = project(z)
            incs[i] = [a - b for a, b in zip(y, z)]
        gap, cycles = max_distance(y, y_prev), cycles + 1
        done = gap <= tol and max(max_distance(y, project(y)) for project in projections) <= tol
    return done, [*y, *(v for inc in incs for v in inc)], gap, cycles


def list_cycles_reference(family, x, tol=REFERENCE_TOL):
    """`list_cycles` as `project_intersection` reports it: the point, or
    MaxIterExceeded with the last iterate and gap."""
    done, state, gap, _ = list_cycles(family, x, tol)
    y = np.asarray(state[:family.dim])
    if done:
        return y
    raise MaxIterExceeded("list cycles ran out", last=y, gap=gap)


def outcome(project, *args):
    """('done', result), ('exhausted', last, gap) or ('error', type)."""
    try:
        return "done", project(*args)
    except MaxIterExceeded as exc:
        return "exhausted", exc.last, exc.gap
    except EllipsoidRootFindError:
        return "error", EllipsoidRootFindError


def same_outcome(got, expected):
    assert got[0] == expected[0]
    if got[0] == "done":
        assert same_bits(got[1], expected[1])
    elif got[0] == "exhausted":
        assert same_bits(got[1], expected[1]) and got[2] == expected[2]


def member_around(rng, kind, point):
    """A set of `kind` that holds `point`, or one drawn at random (the
    family may then be empty); "subball" and "checked" are a Ball subclass
    and a checked box, which the kernel calls."""
    n = point.size
    if kind == "subball":
        return SubBall(point + rng.uniform(-0.5, 0.5, n), 0.5 * np.sqrt(n) + rng.uniform(0.0, 3.0))
    if kind == "checked":
        return Checked(Box(point - rng.uniform(0.0, 2.0, n), point + rng.uniform(0.0, 2.0, n)))
    s = random_set(rng, kind, n)
    if rng.random() < 0.3:
        return s
    if kind == "ball":
        return Ball(point + rng.uniform(-0.5, 0.5, n), 0.5 * np.sqrt(n) + rng.uniform(0.0, 3.0))
    if kind in ("halfspace", "hyperplane"):
        slack = rng.uniform(0.0, 2.0) if kind == "halfspace" else 0.0
        return type(s)(s.normal, float(s.normal @ point) + slack)
    if kind == "box":
        return Box(point - rng.uniform(0.0, 2.0, n), point + rng.uniform(0.0, 2.0, n))
    return Ellipsoid(point, s.axes)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 20) | st.sampled_from([127, 128, 129]),
    st.lists(st.sampled_from([*KINDS, "subball", "checked"]), min_size=2, max_size=3),
    st.sampled_from(["drawn", "boundary", "inside", "far"]),
    st.sampled_from([REFERENCE_TOL, 1e-6, 1e-3]),
    st.integers(0, 2**32 - 1),
)
def test_dykstra_kernel_equals_list_cycles(n, kinds, where, tol, seed):
    """The Dykstra kernel keeps the bits of the list cycles on every kind, a
    Ball subclass and a checked member included, at n = 1-20 and past the
    splits of numpy's pairwise sum: the result, or under a small budget the
    last iterate and gap of `MaxIterExceeded`."""
    rng = np.random.default_rng(seed)
    common = rng.uniform(-3.0, 3.0, n)
    fam = Family(tuple(member_around(rng, k, common) for k in kinds))
    x = random_point(rng, fam, where)
    with mock.patch.object(intersection, "REFERENCE_MAX_ITER", 300):
        expected = outcome(list_cycles_reference, fam, x, tol)
        got = outcome(project_intersection, fam, x, tol)
    same_outcome(got, expected)


def kernel_in_chunks(family, x, tol, chunk):
    """The point Dykstra kernel run as `project_intersection` runs it, with
    the exit test of `Family.within`, but `chunk` cycles a call: (done,
    state, gap, cycles run)."""
    dykstra = family.kernel(intersection._point_dykstra)
    budget = intersection.REFERENCE_MAX_ITER
    state, gap, cycles = list(x) + [0.0] * (family.dim * len(family.sets)), np.inf, 0
    while cycles < budget:
        asked = min(chunk, budget - cycles)
        state, gap, left = dykstra(state, tol, asked)
        cycles += asked - left
        if gap <= tol and family.within(state[:family.dim], tol):
            return True, state, gap, cycles
    return False, state, gap, cycles


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 12),
    st.lists(st.sampled_from([*KINDS, "subball", "checked"]), min_size=2, max_size=3),
    st.sampled_from(["drawn", "boundary", "inside", "far"]),
    st.integers(0, 2**32 - 1),
)
def test_dykstra_resumes_exactly(n, kinds, where, seed):
    """The point kernel called a few cycles at a time (1, 2, 7 or 64) goes
    on where it stopped: the state, the increments included, the gap and
    the cycle count have the bits of one call over the whole budget and of
    `list_cycles`, whether the projection ends or the budget runs out."""
    rng = np.random.default_rng(seed)
    fam = Family(tuple(member_around(rng, k, rng.uniform(-3.0, 3.0, n)) for k in kinds))
    x = random_point(rng, fam, where).tolist()
    with mock.patch.object(intersection, "REFERENCE_MAX_ITER", 150):
        try:
            expected = list_cycles(fam, x)
        except EllipsoidRootFindError:
            return
        for chunk in (1, 2, 7, 64, 150):
            done, state, gap, cycles = kernel_in_chunks(fam, x, REFERENCE_TOL, chunk)
            assert (done, cycles) == (expected[0], expected[3])
            assert same_bits(np.array([gap, *state]), np.array([expected[2], *expected[1]]))


def test_dykstra_kernel_writes_each_member_once(cold_kernels, monkeypatch):
    """The cycle inlines each member's projection, and the feasibility test
    calls its `project_point`, which is compiled from the same source."""
    calls = []
    dispatch = intersection.point_projection_source
    monkeypatch.setattr(intersection, "point_projection_source",
                        lambda s, *args: calls.append(s) or dispatch(s, *args))
    members = (Ball([0.0, 0.0], 2.0), Ellipsoid([0.5, 0.0], [2.0, 1.0]), HalfSpace([1.0, 1.0], 0.5),
               SubBall([0.0, 0.5], 2.0))
    project_intersection(Family(members), [7.0, 9.0])
    assert [id(s) for s in calls] == [id(s) for s in members]


@pytest.mark.parametrize("budget", [0, 1, 2, 2000])
def test_empty_family_exhausts_with_the_list_cycles_last_iterate(monkeypatch, budget):
    """Unit balls at (0, 0) and (5, 0), as balls, a subclass and a checked
    member: `MaxIterExceeded` carries the list cycles' last iterate and gap
    under a monkeypatched budget, and its message names the budget."""
    monkeypatch.setattr(intersection, "REFERENCE_MAX_ITER", budget)
    for far in (Ball([5.0, 0.0], 1.0), SubBall([5.0, 0.0], 1.0), Checked(Ball([5.0, 0.0], 1.0))):
        fam = Family((Ball([0.0, 0.0], 1.0), far))
        for x in ([2.0, 0.0], [-3.0, 4.0], [2.5, -0.0]):
            expected = outcome(list_cycles_reference, fam, x)
            assert expected[0] == "exhausted"
            same_outcome(outcome(project_intersection, fam, x), expected)
            with pytest.raises(MaxIterExceeded, match=f"in {budget} cycles"):
                project_intersection(fam, x)


# --- pickling ---------------------------------------------------------------------


def test_pickle_after_point_projections_keeps_the_bits():
    """A set or family that has compiled its point code, or projected a
    batch, pickles; the copy drops the compiled functions, rebuilds them on
    first use and gives the same bits."""
    members = (Ball([0.0, 0.0], 2.0), Box([-1.0, -1.0], [1.0, 1.0]), HalfSpace([1.0, 1.0], 0.5),
               Hyperplane([1.0, -1.0], 0.0), Ellipsoid([0.0, 0.0], [2.0, 1.0]))
    fam = Family(members, weights=[0.3, 0.1, 0.2, 0.15, 0.25], schedule=SCHED)
    x = np.array([7.0, 9.0])

    def results(f):
        return [
            *(np.array(s.project_point(x.tolist())) for s in f.sets),
            apply_q_hat(f, 20, x), q_hat_path(f, 5, x), project_intersection(f, x),
        ]

    expected = results(fam)
    copy = pickle.loads(pickle.dumps(fam))
    assert not any("_kernels" in vars(c) for c in (copy, *copy.sets))
    for got, want in zip(results(copy), expected, strict=True):
        assert same_bits(got, want)
    assert len(copy._kernels) == 2
    assert all(len(s._kernels) == 1 for s in copy.sets)
    ball = pickle.loads(pickle.dumps(fam.sets[0]))
    assert ball.project_point([7.0, 9.0]) == fam.sets[0].project_point([7.0, 9.0])
    batch = np.array([[7.0, 9.0], [0.5, -3.0], [0.0, -0.0]])
    for s in members:  # a set that has projected a batch pickles too
        want = s.project(batch)
        assert same_bits(pickle.loads(pickle.dumps(s)).project(batch), want)
