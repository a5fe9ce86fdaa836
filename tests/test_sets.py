import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bestpair import (
    Ball,
    Box,
    DimensionMismatch,
    Ellipsoid,
    Family,
    HalfSpace,
    Hyperplane,
    Problem,
    ProblemValidationError,
    set_from_dict,
    set_to_dict,
)
from bestpair import sets

ALL_SETS = [
    Ball([0.3, -0.2], 1.5),
    HalfSpace([1.0, 2.0], 0.7),
    Hyperplane([0.5, -1.0], 0.3),
    Box([-1.0, 0.0], [2.0, 1.5]),
    Ellipsoid([0.5, -0.5], [2.0, 0.8]),
]


def sample_inside(s, rng, count):
    """Points of s, by direct parametrization per variant."""
    if isinstance(s, Ball):
        g = rng.standard_normal((count, s.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return s.center + s.radius * g * rng.random((count, 1)) ** (1.0 / s.dim)
    if isinstance(s, Ellipsoid):
        g = rng.standard_normal((count, s.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return s.center + s.axes * g * rng.random((count, 1)) ** (1.0 / s.dim)
    if isinstance(s, Box):
        return s.lo + rng.random((count, s.dim)) * (s.hi - s.lo)
    if isinstance(s, HalfSpace):
        pts = rng.uniform(-5, 5, (count, s.dim))
        return s.project(pts)
    if isinstance(s, Hyperplane):
        pts = rng.uniform(-5, 5, (count, s.dim))
        return s.project(pts)
    raise AssertionError


# --- projection examples ---------------------------------------------------


def test_ball_projection_radial():
    assert np.allclose(Ball([0, 0], 1).project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-14)


MAX_FLOAT = float(np.finfo(float).max)


def assert_square_limit(r):
    """A ball's t is the largest float whose square root is at most r, so
    sqrt(q) > r exactly when q > t, for q around t, 0, inf and NaN."""
    t = Ball([0.0], r)._t
    assert math.sqrt(t) <= r
    assert t == MAX_FLOAT or math.sqrt(math.nextafter(t, math.inf)) > r
    near = [t]
    for _ in range(3):
        near += [math.nextafter(near[0], 0.0), math.nextafter(near[-1], math.inf)]
    for q in [*near, 0.0, r * r, math.inf, math.nan]:
        assert (math.sqrt(q) > r) == (q > t), q


@pytest.mark.parametrize("r", [
    1.0, 2.0, 0.1,
    1e-160, 1e-155,  # r * r is subnormal
    1e-170, 5e-324,  # r * r is 0
    1.35e154, 1e200, MAX_FLOAT,  # sqrt(MAX_FLOAT) <= r: t is MAX_FLOAT
])
def test_ball_square_limit(r):
    assert_square_limit(r)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=5e-324, max_value=MAX_FLOAT))
def test_ball_square_limit_random_radius(r):
    assert_square_limit(r)


def test_halfspace_interior_point_fixed():
    hs = HalfSpace([0, 1], 0.0)
    x = np.array([5.0, -2.0])
    assert np.array_equal(hs.project(x), x)


def test_ellipsoid_projection_on_axis():
    e = Ellipsoid([0, 0], [2, 1])
    assert np.allclose(e.project(np.array([0.0, 3.0])), [0.0, 1.0], atol=1e-12)


def test_ellipsoid_projection_general_point():
    # frozen from the scalar dual-equation oracle below
    expected = np.array([1.549459147802160, 0.632292722813612])
    e = Ellipsoid([0, 0], [2, 1])
    got = e.project(np.array([3.0, 3.0]))
    assert np.allclose(got, expected, atol=1e-9)

    # independent oracle: plain scalar bisection on the dual equation
    a = np.array([2.0, 1.0])
    x = np.array([3.0, 3.0])

    def residual(lam):
        y = x * a**2 / (a**2 + lam)
        return float(np.sum((y / a) ** 2) - 1.0)

    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    assert abs(residual(lam)) <= 1e-12
    oracle = x * a**2 / (a**2 + lam)
    assert np.allclose(got, oracle, atol=1e-9)


def test_ellipsoid_projection_vs_dense_boundary_sampling():
    e = Ellipsoid([0, 0], [2, 1])
    x = np.array([3.0, 3.0])
    got = e.project(x)
    t = np.linspace(0, 2 * np.pi, 10**6, endpoint=False)
    boundary = np.stack([2 * np.cos(t), np.sin(t)], axis=1)
    d = np.linalg.norm(boundary - x, axis=1)
    i = int(np.argmin(d))
    assert np.linalg.norm(got - x) <= d[i] + 1e-9
    assert np.linalg.norm(boundary[i] - got) <= 1e-5


# --- containment -----------------------------------------------------------


def test_contains_examples():
    b = Ball([0, 0], 1)
    assert bool(b.contains(np.array([1.0, 0.0]), tol=0.0))
    assert not bool(b.contains(np.array([1.0000001, 0.0]), tol=1e-9))
    assert bool(Box([0, 0], [1, 1]).contains(np.array([0.5, 0.5]), tol=0.0))


# --- strict convexity ------------------------------------------------------


def test_strict_convexity_classification():
    assert Ball([0, 0], 1).strictly_convex
    assert Ellipsoid([0, 0], [2, 1]).strictly_convex
    assert not HalfSpace([1, 0], 0.0).strictly_convex
    assert not Hyperplane([1, 0], 0.0).strictly_convex
    assert not Box([0, 0], [1, 1]).strictly_convex


# --- bounding radii --------------------------------------------------------


def test_boundedness_classification():
    for s in ALL_SETS:
        assert s.bounded == (s.kind in ("ball", "box", "ellipsoid"))
        assert hasattr(s, "bounding_radius") == s.bounded


def test_family_bounding_radius_examples():
    ball = Family((Ball([3, 0], 1),))
    assert Problem(ball, ball).rho == pytest.approx(4.0)
    box = Family((Box([-1, -1], [2, 2]),))
    assert Problem(box, box).rho == pytest.approx(2 * np.sqrt(2))
    assert Problem(box, ball).rho == Problem(ball, ball).rho  # the larger radius
    with pytest.raises(ProblemValidationError, match="family A has no bounded member"):
        Problem(Family((HalfSpace([1, 0], 0.0),)), ball)


def test_halfspace_allowed_with_bounded_sibling():
    fam = Family((HalfSpace([1, 0], 0.0), Ball([0, 0], 2.0)))
    assert Problem(fam, fam).rho == pytest.approx(2.0)


def test_ellipsoid_bounding_radius_regular_case():
    # frozen from a 1e6-point boundary-sampling oracle
    e = Ellipsoid([1, -0.5], [2, 1])
    assert e.bounding_radius() == pytest.approx(3.0495819304027, abs=1e-9)


def test_ellipsoid_bounding_radius_hard_case():
    # center orthogonal to the longest axis; analytic max is sqrt(13/3)
    e = Ellipsoid([0.5, 0.0], [1.0, 2.0])
    assert e.bounding_radius() == pytest.approx(np.sqrt(13.0 / 3.0), abs=1e-9)


@pytest.mark.parametrize("center, axes, radius", [
    # the true radius lies about 2e-14 above 35/sqrt(24), the value without the tiny part
    ((5.0, 2.953317911795278e-14, 0.0, 0.0), (1.0, 5.0, 1.0, 1.0), 35.0 / np.sqrt(24.0)),
    ((1.0, 1.6e-115), (0.5, 1.0), np.sqrt(7.0 / 3.0)),
], ids=["part_3e-14", "part_1.6e-115"])
def test_ellipsoid_bounding_radius_tiny_longest_axis_part(center, axes, radius):
    # next to the hard case, the centre has a tiny nonzero part along the longest axis
    assert Ellipsoid(center, axes).bounding_radius() == pytest.approx(radius, abs=1e-9)


def test_ellipsoid_bounding_radius_centered():
    assert Ellipsoid([0, 0], [2, 1]).bounding_radius() == pytest.approx(2.0)


@pytest.mark.parametrize("center,axes", [((0.7, 1.3), (1.5, 0.4)), ((-2.0, 0.0, 1.0), (1.0, 3.0, 0.5))])
def test_ellipsoid_bounding_radius_vs_sampling(center, axes, rng):
    e = Ellipsoid(center, axes)
    n = len(axes)
    g = rng.standard_normal((200_000, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    boundary = np.asarray(center) + np.asarray(axes) * g
    sampled = float(np.linalg.norm(boundary, axis=1).max())
    r = e.bounding_radius()
    assert r >= sampled - 1e-9
    assert r <= sampled + 1e-3


@st.composite
def ellipsoid_for_radius(draw):
    """Centre and axes in dimension 1 to 20: the longest axis tied in up to
    three coordinates, the centre scaled from 1e-9 to 100, and its part along
    the longest axes as drawn, zero, or tiny (1e-12 or 1e-8)."""
    n = draw(st.integers(1, 20))
    axes = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    axes[draw(st.lists(st.integers(0, n - 1), max_size=3))] = axes.max()
    scale = 10.0 ** draw(st.integers(-9, 2))
    center = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    part = draw(st.sampled_from([None, 0.0, 1e-12, 1e-8]))
    if part is not None:
        center[axes == axes.max()] = part
    return center, axes


def bisection_radius(center, axes):
    """The bounding radius by 110 rounds of bisection for the least lam with
    psi(lam) = sum_d (g_d / (lam - a_d^2))^2 <= 1, over the g_d = a_d c_d != 0,
    on [max a^2, max a^2 + ||g||]; the maximizer s on the unit sphere has
    s_d = g_d / (lam - a_d^2) off the longest axes and the rest of its norm
    along c's longest-axis part (or along one longest axis if c has none)."""
    a2 = axes**2
    amax2 = float(np.max(a2))
    g = axes * center
    top = a2 == amax2
    gn, a2n = g[g != 0.0], a2[g != 0.0]
    lo, hi = amax2, amax2 + float(np.linalg.norm(g))  # psi(hi) <= 1
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        with np.errstate(over="ignore"):
            above = float(np.sum((gn / (mid - a2n)) ** 2)) > 1.0
        lo, hi = (mid, hi) if above else (lo, mid)
    s = np.where(top, 0.0, g / np.where(top, 1.0, hi - a2))
    v = np.where(top, center, 0.0)
    v = v / np.max(np.abs(v)) if v.any() else np.eye(center.size)[np.argmax(a2)]
    s = s + math.sqrt(max(1.0 - float(np.sum(s**2)), 0.0)) * v / np.linalg.norm(v)
    return float(np.linalg.norm(center + axes * s))


@settings(max_examples=300, deadline=None)
@given(ellipsoid_for_radius())
# psi without its tiny longest-axis term is 1.05 at the pole: the root lies
# well past it, though a start at max a^2 would sit on it
@example((np.array([0.5, 1.0, 5e-77]), np.array([4.0, 3.0, 4.25])))
# Newton stops a rounding short of the root, where ||s|| > 1
@example((np.array([-0.07, 0.52, 0.0]), np.array([2.31, 0.26, 2.32])))
def test_ellipsoid_bounding_radius_matches_bisection(case):
    center, axes = case
    expected = bisection_radius(center, axes)
    got = Ellipsoid(center, axes).bounding_radius()
    assert abs(got - expected) <= 8 * np.finfo(float).eps * expected


@settings(max_examples=100, deadline=None)
@given(ellipsoid_for_radius())
# the slowest case found, 34 rounds: psi without its tiny longest-axis term is
# 1 at the pole, so the root sits just past it
@example((
    np.array([47.36604725346328, 0.775613366718779, 6.949343701188879,
              0.8973833835464855, 1.0329131728736855e-15]),
    np.array([0.20164118781374296, 1.9334793327661874, 0.627659359001801,
              1.9444231068063285, 3.3396154114885235]),
))
def test_ellipsoid_bounding_radius_rounds_stay_under_40(case):
    """Newton needs at most 40 of its 110 rounds.  The count is of steps, not
    of the radius a smaller cap would give: at the maximum the radius is
    stationary in lam, so one round often gets it to within 1e-12."""
    rounds = []

    def counted(g, s):
        rounds.append(None)
        return newton_step(g, s)

    newton_step = sets._newton_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "_newton_step", counted)
        Ellipsoid(*case).bounding_radius()
    assert 1 <= len(rounds) <= 40


# --- operator properties ---------------------------------------------------


@pytest.mark.parametrize("s", ALL_SETS, ids=lambda s: s.kind)
def test_projection_idempotent(s, rng):
    x = rng.uniform(-6, 6, (500, 2))
    p = s.project(x)
    assert np.linalg.norm(s.project(p) - p, axis=1).max() <= 1e-10


@pytest.mark.parametrize("s", ALL_SETS, ids=lambda s: s.kind)
def test_variational_inequality(s, rng):
    x = rng.uniform(-6, 6, (50, 2))
    p = s.project(x)
    ys = sample_inside(s, rng, 1000)
    # <y - Px, x - Px> <= tol for every y in the set
    worst = -np.inf
    for xi, pi in zip(x, p):
        worst = max(worst, float(np.max((ys - pi) @ (xi - pi))))
    assert worst <= 1e-9


@pytest.mark.parametrize("s", ALL_SETS, ids=lambda s: s.kind)
def test_projection_nonexpansive(s, rng):
    x = rng.uniform(-6, 6, (1000, 2))
    y = rng.uniform(-6, 6, (1000, 2))
    lhs = np.linalg.norm(s.project(x) - s.project(y), axis=1)
    rhs = np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


@pytest.mark.parametrize("s", ALL_SETS, ids=lambda s: s.kind)
def test_nonexpansive_equality_case(s, rng):
    # pairs inside the set and pairs translated along a common direction
    # trigger near-equality; the residual distances must then agree
    inside = sample_inside(s, rng, 200)
    shift = rng.standard_normal(2)
    pairs = [
        (inside[:100], inside[100:]),
        (inside[:100], inside[:100] + 1e-3 * shift),
    ]
    for x, y in pairs:
        px, py = s.project(x), s.project(y)
        lhs = np.linalg.norm(px - py, axis=1)
        rhs = np.linalg.norm(x - y, axis=1)
        near = lhs >= rhs - 1e-9
        if not near.any():
            continue
        dx = np.linalg.norm(x - px, axis=1)
        dy = np.linalg.norm(y - py, axis=1)
        assert np.abs(dx[near] - dy[near]).max() <= 1e-6


@st.composite
def set_and_rng(draw):
    """A set of any of the five kinds in dimension 1 to 20, and a seeded
    generator for its sample points.  A box or an ellipsoid is thin in one
    coordinate half the time."""
    n = draw(st.integers(1, 20))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    kind = draw(st.sampled_from([Ball, Box, Ellipsoid, HalfSpace, Hyperplane]))
    if kind is Ball:
        s = Ball(vector(-10.0, 10.0), draw(st.floats(0.05, 5.0)))
    elif kind in (HalfSpace, Hyperplane):
        normal = vector(-5.0, 5.0)
        assume(np.linalg.norm(normal) > 0.1)
        s = kind(normal, draw(st.floats(-10.0, 10.0)))
    else:
        center, sides = vector(-10.0, 10.0), vector(0.05, 5.0)
        if draw(st.booleans()):  # thin: one side 10^2 to 10^4 times shorter
            sides[draw(st.integers(0, n - 1))] = draw(st.floats(1e-4, 1e-2))
        s = Ellipsoid(center, sides) if kind is Ellipsoid else Box(center - sides, center + sides)
    return s, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def around(s, rng, count):
    """Points about the set, up to 1e3 times its size away: a ball, box or
    ellipsoid is measured from its centre, a half-space or hyperplane from
    its point nearest the origin, at unit size."""
    if isinstance(s, Ball):
        middle, size = s.center, s.radius
    elif isinstance(s, Box):
        middle, size = (s.lo + s.hi) / 2, np.max(s.hi - s.lo) / 2
    elif isinstance(s, Ellipsoid):
        middle, size = s.center, np.max(s.axes)
    else:
        middle, size = s.normal * (s.offset / (s.normal @ s.normal)), 1.0
    scale = rng.choice([1.0, 10.0, 1e3], (count, 1)) * size
    return middle + scale * rng.uniform(-1.0, 1.0, (count, s.dim))


@settings(max_examples=150, deadline=None)
@given(set_and_rng())
def test_variational_inequality_high_dim(case):
    s, rng = case
    x = around(s, rng, 20)
    p = s.project(x)
    ys = sample_inside(s, rng, 200)
    for xi, pi in zip(x, p):
        # <y - Px, x - Px> <= tol for every y in the set, tol relative to the lengths
        dots = (ys - pi) @ (xi - pi)
        lengths = np.linalg.norm(xi - pi) * np.maximum(1.0, np.linalg.norm(ys - pi, axis=1))
        assert np.all(dots <= 1e-9 * lengths)


@settings(max_examples=150, deadline=None)
@given(set_and_rng())
def test_projection_idempotent_high_dim(case):
    s, rng = case
    p = s.project(around(s, rng, 20))
    assert np.all(s.contains(p))
    scale = np.maximum(1.0, np.abs(p).max(axis=1))
    assert np.all(np.abs(s.project(p) - p).max(axis=1) <= 1e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(set_and_rng())
def test_projection_nonexpansive_high_dim(case):
    s, rng = case
    x, y = around(s, rng, 20), around(s, rng, 20)
    px, py = s.project(x), s.project(y)
    scale = np.maximum(1.0, np.maximum(np.abs(px).max(axis=1), np.abs(py).max(axis=1)))
    lhs = np.linalg.norm(px - py, axis=1)
    assert np.all(lhs <= np.linalg.norm(x - y, axis=1) + 1e-12 * scale)


@pytest.mark.parametrize(
    "s",
    [Ball([0.3, -0.2], 1.5), HalfSpace([1.0, 2.0], 0.7), Box([-1.0, 0.0], [2.0, 1.5])],
    ids=lambda s: s.kind,
)
def test_contained_points_are_exact_fixed_points(s, rng):
    ys = sample_inside(s, rng, 200)
    ys = ys[np.asarray(s.contains(ys, tol=0.0))]
    assert len(ys) > 0
    assert np.array_equal(s.project(ys), ys)


def test_hyperplane_exact_fixed_points():
    h = Hyperplane([0.0, 1.0], 0.5)
    pts = np.stack([np.linspace(-3, 3, 50), np.full(50, 0.5)], axis=1)
    assert np.array_equal(h.project(pts), pts)


def test_ellipsoid_fixed_points_within_tolerance(rng):
    e = Ellipsoid([0.5, -0.5], [2.0, 0.8])
    ys = sample_inside(e, rng, 200)
    ys = ys[np.asarray(e.contains(ys, tol=0.0))]
    assert np.linalg.norm(e.project(ys) - ys, axis=1).max() <= 1e-12


# --- plumbing --------------------------------------------------------------


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Ball([0, 0], 1).project(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        Box([0, 0], [1, 1]).contains(np.array([1.0, 2.0, 3.0]))


def test_batch_matches_single(rng):
    for s in ALL_SETS:
        x = rng.uniform(-4, 4, (20, 2))
        batch = s.project(x)
        singles = np.stack([s.project(xi) for xi in x])
        assert np.array_equal(batch, singles)


def test_descriptor_round_trip():
    for s in ALL_SETS:
        s2 = set_from_dict(set_to_dict(s))
        assert set_to_dict(s2) == set_to_dict(s)


def test_set_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        set_from_dict({"type": "ball", "center": [0, 0], "radius": 1, "extra": 2})
    with pytest.raises(ValueError, match="unknown set type"):
        set_from_dict({"type": "cone", "apex": [0, 0]})


def test_invalid_descriptors_rejected():
    with pytest.raises(ValueError):
        Ball([0, 0], -1.0)
    with pytest.raises(ValueError):
        HalfSpace([0, 0], 1.0)
    with pytest.raises(ValueError):
        Box([1, 1], [0, 0])
    with pytest.raises(ValueError):
        Ellipsoid([0, 0], [1.0, -1.0])


@pytest.mark.parametrize("radius, shown", [(0, "0.0"), (-1, "-1.0"), (np.inf, "inf"), (np.nan, "nan")])
def test_ball_radius_message_names_the_value(radius, shown):
    with pytest.raises(ValueError) as exc:
        Ball([0.0, 0.0], radius)
    assert str(exc.value) == f"radius must be positive and finite, got {shown}"


@pytest.mark.parametrize("axes", [[1e-170], [1.0, 1e-163], [1e160], [2e154, 1.0]])
def test_ellipsoid_axes_whose_squares_underflow_or_overflow_rejected(axes):
    # a^2 = 0 or inf would make every projection NaN, and a point projection divide by 0
    with pytest.raises(ValueError, match="^axes must be positive, with squares that neither"):
        Ellipsoid(np.zeros(len(axes)), axes)


@pytest.mark.parametrize("normal", [[1e-170, 0.0], [1e160, 0.0], [1e-160, 0.0], [0.0, 2e154]])
@pytest.mark.parametrize("cls", [HalfSpace, Hyperplane])
def test_normal_whose_squared_length_underflows_or_overflows_rejected(cls, normal):
    # a projection divides by <normal, normal>: at inf an outside point stays
    # put and is contained, and a subnormal one moves it past the boundary
    with pytest.raises(ValueError, match="^normal must be nonzero, with a squared length that"):
        cls(normal, 0.0)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls", [HalfSpace, Hyperplane])
def test_non_finite_offset_rejected(cls, offset):
    # NaN would make a half-space constrain nothing; an infinite offset would
    # stall the projections instead of failing here
    with pytest.raises(ValueError, match="^offset must be finite$"):
        cls([1.0, 0.0], offset)
