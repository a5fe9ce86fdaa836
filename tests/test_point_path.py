"""The single-point path (`project_point`) against the checked `project` path.

`project_point` takes and returns a list of floats and promises the bits of
`project` on the same point, so every comparison here is exact.  The checked
path is kept as the reference: the `Checked` wrapper routes a set's point
projections through `project`, which is how every single-point projection
ran before the point path existed.  Dimensions reach 12, past the 8 terms
from which numpy sums a norm pairwise.
"""

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
    Problem,
    SolverOptions,
    SteeringSchedule,
    apply_q_hat,
    project_intersection,
    q_hat_path,
    run_ashlwb,
)
from bestpair.sets import max_distance, point_norm

SCHED = SteeringSchedule(c=0.004, k0=2.0, p=1.0)
COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class Checked:
    """A set whose point projection is its checked, batch-capable `project`."""

    def __init__(self, s):
        self.s = s
        self.dim = s.dim

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


@st.composite
def set_and_point(draw):
    kind = draw(st.sampled_from(["ball", "halfspace", "hyperplane", "box", "ellipsoid"]))
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
    # the branch-based kinds hand a point they contain back unchanged
    if not isinstance(s, Box) and s.contains(x, tol=0.0):
        assert got is point


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
    """np.clip keeps the bound on a tie and passes NaN through."""
    box = Box([lo, 0.0], [hi, 1.0])
    point = np.array([x, 0.5])
    assert same_bits(np.array(box.project_point(point.tolist())), box.project(point))


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
    assert hs.project_point(x) is x
    assert same_bits(hs.project(np.array(x)), np.array(x))
    assert np.all(np.isnan(hp.project_point(x)))
    assert np.all(np.isnan(hp.project(np.array(x))))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: vectors(n, st.floats(-1e3, 1e3))))
def test_point_norm_equals_linalg_norm(d):
    assert point_norm(d.tolist()) == np.linalg.norm(d, axis=-1)
    # one point as lists, and a batch of shape (3, n) row by row
    u, v = d.tolist(), d[::-1].tolist()
    assert max_distance(u, v) == np.linalg.norm(np.array(u) - np.array(v), axis=-1)
    rows = np.stack([d, d[::-1], 2.0 * d])
    expected = max(np.linalg.norm(a - b, axis=-1) for a, b in zip(rows, rows[::-1]))
    assert max_distance(rows, rows[::-1]) == expected


def bisection_110(e, pts):
    """The ellipsoid root-find as it ran before its early exit: always 110 rounds."""
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ellipsoid_early_exit_equals_110_rounds(data):
    """Stopping at the bisection's fixed point keeps the bits of 110 rounds."""
    n = data.draw(st.integers(1, 12))
    e = data.draw(sets_of_kind("ellipsoid", n))
    scale = data.draw(st.sampled_from([1.0, 1e3]))
    pts = scale * np.stack(data.draw(st.lists(vectors(n), min_size=1, max_size=5)))
    expected, residual = bisection_110(e, pts)
    if np.any(residual > 1e-12):
        with pytest.raises(EllipsoidRootFindError):
            e.project(pts)
        return
    assert same_bits(e.project(pts), expected)
    for p, row in zip(pts, expected):
        assert same_bits(np.array(e.project_point(p.tolist())), row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_family_point_equals_batch_row(data):
    """Exact for members without a dot product.

    A half-space or hyperplane takes `x @ normal`, which BLAS evaluates as a
    dot product for one point and a matrix-vector product for a batch; the
    two may round differently, so those kinds are left out.
    """
    n = data.draw(st.integers(1, 12))
    kinds = data.draw(st.lists(st.sampled_from(["ball", "box", "ellipsoid"]),
                               min_size=1, max_size=3))
    fam = Family(tuple(data.draw(sets_of_kind(k, n)) for k in kinds))
    pts = np.stack(data.draw(st.lists(vectors(n), min_size=1, max_size=6)))
    try:
        batch = fam.weighted_projection(pts)
    except EllipsoidRootFindError:
        return
    for i, p in enumerate(pts):
        assert np.array_equal(fam.weighted_projection(p.tolist()), batch[i])


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
    fam = make()
    point = 4.0 * rng.standard_normal(fam.dim)
    batch = 4.0 * rng.standard_normal((5, fam.dim))
    for x in (point, batch):
        path = q_hat_path(fam, 30, x)
        assert np.array_equal(path[-1], apply_q_hat(fam, 30, x))


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
