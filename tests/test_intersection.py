import numpy as np
import pytest

from bestpair import (
    Ball,
    Box,
    Family,
    MaxIterExceeded,
    intersection,
    project_intersection,
    shlwb_project,
)

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
