import numpy as np
import pytest

from bestpair import (
    Ball,
    Box,
    DimensionMismatch,
    Ellipsoid,
    Family,
    HalfSpace,
    Hyperplane,
    UnboundedFamily,
    family_bounding_radius,
    set_from_dict,
    set_to_dict,
)

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


def test_family_bounding_radius_examples():
    assert family_bounding_radius(Family((Ball([3, 0], 1),))) == pytest.approx(4.0)
    box = Family((Box([-1, -1], [2, 2]),))
    assert family_bounding_radius(box) == pytest.approx(2 * np.sqrt(2))
    with pytest.raises(UnboundedFamily):
        family_bounding_radius(Family((HalfSpace([1, 0], 0.0),)))


def test_halfspace_allowed_with_bounded_sibling():
    r = family_bounding_radius(Family((HalfSpace([1, 0], 0.0), Ball([0, 0], 2.0))))
    assert r == pytest.approx(2.0)


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
