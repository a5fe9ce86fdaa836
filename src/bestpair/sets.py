"""Elementary closed convex sets in R^n with exact metric projections.

Five set variants are supported: balls, half-spaces, hyperplanes, axis-aligned
boxes and axis-aligned ellipsoids.  All projections accept a single point of
shape (n,) or a batch of shape (..., n) and are exact up to floating point,
except the ellipsoid which solves a one-dimensional dual equation by
safeguarded bisection to residual <= 1e-12.

Each set also has `project_point`, an unchecked projection of one point given
as a list of n Python floats; it returns a list.  It runs the floating-point
operations of `project` in the same order, so `np.array(project_point(x))`
equals `project(np.array(x))` bit for bit, but it branches on scalars where
`project` masks with `np.where`; when the branch finds the point in the set,
`x` itself comes back (the box has no branch).  No point-path code mutates a
list it was given.  The solver's inner loop uses it, because on small points
the cost of `project` is numpy call overhead, and Python float arithmetic does
the same IEEE operations for a fraction of it.

Two sums need care to keep those bits:

- A norm is the square root of a sum of squares.  numpy's `add.reduce` adds
  fewer than `PAIRWISE_SUM_MIN` (8) terms in order, which a Python loop
  repeats; from 8 terms on it sums pairwise, so `point_norm` hands those sums
  to numpy.
- A half-space or hyperplane keeps numpy's `x @ normal`: BLAS's dot product
  does not round like an in-order sum at any dimension.

The ellipsoid converts the point to an array and runs its numpy root-find.

`as_points` is the one dimension check of the layers above, `finite_points`
adds the one finiteness check, and `max_distance` is the distance every stop
test measures, on two lists or two arrays.  Each set's `contains` is its
membership test; `operators.Family.contains` joins them for an intersection.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from .errors import DimensionMismatch, EllipsoidRootFindError, UnboundedFamily

# Default additive slack for containment tests. Double-precision projections
# land within ~1e-12 of boundaries, so 1e-9 absorbs accumulated rounding.
CONTAINS_TOL = 1e-9

_ELLIPSOID_ROOT_RESIDUAL = 1e-12
_ELLIPSOID_MAX_BISECT = 110

# numpy's add.reduce sums fewer terms than this in order, and more pairwise
PAIRWISE_SUM_MIN = 8


def point_norm(d):
    """Euclidean norm of a list of floats, bit for bit `np.linalg.norm(d, axis=-1)`.

    The loop does not use `sum`, which compensates its rounding from Python
    3.12 on.
    """
    if len(d) >= PAIRWISE_SUM_MIN:
        a = np.array(d)
        return math.sqrt(np.add.reduce(a * a))
    total = 0.0
    for v in d:
        total += v * v
    return math.sqrt(total)


def max_distance(u, v):
    """Largest distance between paired points of u and v.

    Two lists of floats are one point each: `point_norm` of their difference,
    bit for bit `np.linalg.norm(u - v, axis=-1)`.  Arrays of shape (..., n)
    give the largest row distance."""
    if isinstance(u, list):
        return point_norm([a - b for a, b in zip(u, v)])
    return float(np.max(np.linalg.norm(u - v, axis=-1)))


def as_points(x, dim, what="point"):
    """Coerce to a float array of shape (..., dim); raises DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != dim:
        raise DimensionMismatch(
            f"{what} has dimension {x.shape[-1] if x.ndim else 0}, expected {dim}"
        )
    return x


def finite_points(x, dim, what="point"):
    """`as_points`, and ValueError unless every coordinate is finite: NaN would
    pass through every projection and every anchored step unnoticed."""
    x = as_points(x, dim, what)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must have finite coordinates")
    return x


def _vec(v, name):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _bisect(f, lo, hi):
    """The root of a decreasing f on [lo, hi], by bisection on the sign of f.

    A round is a function of (lo, hi) alone, so the loop stops once a round
    would leave them unchanged: every later round would repeat it, and the
    result has the bits of `_ELLIPSOID_MAX_BISECT` rounds.
    """
    for _ in range(_ELLIPSOID_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _check_dual_residual(worst):
    """EllipsoidRootFindError if `worst`, the largest dual residual of an
    ellipsoid projection, exceeds `_ELLIPSOID_ROOT_RESIDUAL`."""
    if worst > _ELLIPSOID_ROOT_RESIDUAL:
        raise EllipsoidRootFindError(
            f"dual residual {worst:.3e} after {_ELLIPSOID_MAX_BISECT} "
            "bisections; axes may be numerically degenerate"
        )


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float
    kind = "ball"
    strictly_convex = True

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, "center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        object.__setattr__(self, "_center_list", self.center.tolist())

    @property
    def dim(self):
        return self.center.size

    def project(self, x):
        x = as_points(x, self.dim)
        d = x - self.center
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        outside = n > self.radius
        # avoid 0/0 for interior points; they keep x exactly
        scale = np.where(outside, self.radius / np.where(outside, n, 1.0), 1.0)
        return np.where(outside, self.center + d * scale, x)

    def project_point(self, x):
        center = self._center_list
        d = [v - c for v, c in zip(x, center)]
        n = point_norm(d)
        if n > self.radius:
            scale = self.radius / n
            return [c + v * scale for c, v in zip(center, d)]
        return x

    def contains(self, x, tol=CONTAINS_TOL):
        x = as_points(x, self.dim)
        return np.linalg.norm(x - self.center, axis=-1) <= self.radius + tol

    def bounding_radius(self):
        return float(np.linalg.norm(self.center) + self.radius)


@dataclass(frozen=True, eq=False)
class _Affine:
    """A nonzero normal and an offset.  Subclasses add a kind, `contains` and
    `_moves`, the test of the excess <normal, x> - offset against 0 that
    decides whether `project` moves a point onto <normal, x> = offset."""

    normal: np.ndarray
    offset: float
    strictly_convex = False

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))
        if np.linalg.norm(self.normal) == 0.0:
            raise ValueError("normal must be nonzero")
        object.__setattr__(self, "_nn", float(self.normal @ self.normal))
        object.__setattr__(self, "_normal_list", self.normal.tolist())

    @property
    def dim(self):
        return self.normal.size

    def project(self, x):
        x = as_points(x, self.dim)
        excess = x @ self.normal - self.offset
        return np.where(
            self._moves(excess, 0.0)[..., None],
            x - (excess / self._nn)[..., None] * self.normal,
            x,
        )

    def project_point(self, x):
        excess = float(np.array(x) @ self.normal) - self.offset
        if self._moves(excess, 0.0):
            shift = excess / self._nn
            return [v - shift * c for v, c in zip(x, self._normal_list)]
        return x

    def bounding_radius(self):
        raise UnboundedFamily(f"a {self.kind} is unbounded")


class HalfSpace(_Affine):
    """Closed half-space {x : <normal, x> <= offset}."""

    kind = "halfspace"
    _moves = operator.gt  # a NaN excess keeps the point

    def contains(self, x, tol=CONTAINS_TOL):
        x = as_points(x, self.dim)
        # slack measured as a distance, so it does not scale with ||normal||
        return x @ self.normal - self.offset <= tol * np.linalg.norm(self.normal)


class Hyperplane(_Affine):
    """Hyperplane {x : <normal, x> = offset}."""

    kind = "hyperplane"
    _moves = operator.ne  # a NaN excess maps the point to NaN

    def contains(self, x, tol=CONTAINS_TOL):
        x = as_points(x, self.dim)
        return np.abs(x @ self.normal - self.offset) <= tol * np.linalg.norm(self.normal)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi componentwise}."""

    lo: np.ndarray
    hi: np.ndarray
    kind = "box"
    strictly_convex = False

    def __post_init__(self):
        object.__setattr__(self, "lo", _vec(self.lo, "lo"))
        object.__setattr__(self, "hi", _vec(self.hi, "hi"))
        if self.lo.size != self.hi.size:
            raise DimensionMismatch("lo and hi dimensions differ")
        if not np.all(self.lo <= self.hi):
            raise ValueError("requires lo <= hi componentwise")
        # per coordinate: lo, the clip of lo itself (which differs from lo
        # only where lo and hi are zeros of opposite sign), and hi
        object.__setattr__(self, "_bounds", list(zip(
            self.lo.tolist(), np.clip(self.lo, self.lo, self.hi).tolist(), self.hi.tolist()
        )))

    @property
    def dim(self):
        return self.lo.size

    def project(self, x):
        x = as_points(x, self.dim)
        return np.clip(x, self.lo, self.hi)

    def project_point(self, x):
        # np.clip keeps the bound on a tie (0.0 for x = -0.0, lo = 0.0) and
        # passes NaN through; Python's min(max(x, lo), hi) would keep x
        return [
            lo_clip if v <= lo else (hi if v >= hi else v)
            for v, (lo, lo_clip, hi) in zip(x, self._bounds)
        ]

    def contains(self, x, tol=CONTAINS_TOL):
        x = as_points(x, self.dim)
        return np.all((x >= self.lo - tol) & (x <= self.hi + tol), axis=-1)

    def bounding_radius(self):
        # farthest vertex from the origin
        far = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return float(np.linalg.norm(far))


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Axis-aligned ellipsoid {x : sum_d ((x_d - c_d)/axes_d)^2 <= 1}."""

    center: np.ndarray
    axes: np.ndarray
    kind = "ellipsoid"
    strictly_convex = True

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, "center"))
        object.__setattr__(self, "axes", _vec(self.axes, "axes"))
        if self.center.size != self.axes.size:
            raise DimensionMismatch("center and axes dimensions differ")
        if not np.all(self.axes > 0):
            raise ValueError("axes must be positive")
        object.__setattr__(self, "_a2", self.axes**2)

    @property
    def dim(self):
        return self.center.size

    def _quad(self, x):
        return np.sum(((x - self.center) / self.axes) ** 2, axis=-1)

    def project(self, x):
        """Project via the dual equation.

        For z = x - center outside the ellipsoid the projection is
        y_d = z_d * a_d^2 / (a_d^2 + lam) with lam > 0 the unique root of the
        constraint residual phi(lam) = sum_d (y_d/a_d)^2 - 1.  phi is strictly
        decreasing, so a fixed bisection count is deterministic and safe.  A
        round is a function of (lo, hi) alone, so the bisection stops early
        once a round leaves every row's bracket unchanged: the remaining
        rounds would repeat it, and the result keeps the same bits.
        """
        x = as_points(x, self.dim)
        shape = x.shape
        pts = x.reshape(-1, self.dim)
        z = pts - self.center
        a2 = self._a2
        quad = np.sum((z / self.axes) ** 2, axis=-1)
        outside = quad > 1.0
        if not np.any(outside):
            return x
        zo = z[outside]

        def phi(lam):
            y = zo * a2 / (a2 + lam[:, None])
            return np.sum((y / self.axes) ** 2, axis=-1) - 1.0

        lo = np.zeros(zo.shape[0])
        # phi(lam) <= (||a*z|| / lam)^2 - 1 < 0 once lam exceeds ||a*z||
        hi = np.linalg.norm(zo * self.axes, axis=-1) + np.max(a2)
        for _ in range(_ELLIPSOID_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            w = phi(mid) > 0.0
            lo_next = np.where(w, mid, lo)
            hi_next = np.where(w, hi, mid)
            if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
                break  # every later round would repeat this one
            lo, hi = lo_next, hi_next
        lam = 0.5 * (lo + hi)
        _check_dual_residual(np.abs(phi(lam)).max())
        proj = pts.copy()
        proj[outside] = self.center + zo * a2 / (a2 + lam[:, None])
        return proj.reshape(shape)

    def project_point(self, x):
        z = np.array(x) - self.center
        if not np.add.reduce((z / self.axes) ** 2) > 1.0:
            return x
        a2 = self._a2
        za2 = z * a2

        def phi(lam):
            return np.add.reduce((za2 / (a2 + lam) / self.axes) ** 2) - 1.0

        lam = _bisect(phi, 0.0, np.linalg.norm(z * self.axes, axis=-1) + np.max(a2))
        _check_dual_residual(abs(phi(lam)))
        return (self.center + za2 / (a2 + lam)).tolist()

    def contains(self, x, tol=CONTAINS_TOL):
        x = as_points(x, self.dim)
        return self._quad(x) <= 1.0 + tol

    def bounding_radius(self):
        """Exact radius of the smallest origin-centred ball containing the set.

        Maximizes ||c + a*s|| over unit vectors s.  Off the longest axes the
        maximizer has s_d = a_d c_d / (lam - a_d^2), where lam is the root on
        [max a^2, inf) of the secular equation psi(lam) = sum_d (a_d c_d)^2 /
        (lam - a_d^2)^2 = 1, or max a^2 itself if psi stays below 1 there.
        The longest-axis part of s follows c's (any longest axis if c has
        none) and takes up the rest of ||s|| = 1.  One bisection from
        lam = max a^2 covers every centre, a tiny longest-axis part included.
        """
        c, a, a2 = self.center, self.axes, self._a2
        amax2 = float(np.max(a2))
        g = a * c
        top = a2 == amax2
        gn, a2n = g[g != 0.0], a2[g != 0.0]

        def psi_minus_1(lam):  # +inf at max a^2 when c has a longest-axis part
            with np.errstate(divide="ignore", over="ignore"):
                return float(np.sum((gn / (lam - a2n)) ** 2)) - 1.0

        lam = _bisect(psi_minus_1, amax2, amax2 + float(np.linalg.norm(g)))
        s = np.zeros_like(c)
        s[~top] = g[~top] / (lam - a2[~top])
        v = np.where(top, c, 0.0)  # scaled below, so that a tiny part keeps its direction
        v = v / np.max(np.abs(v)) if v.any() else np.eye(c.size)[np.argmax(a2)]
        s += math.sqrt(max(1.0 - float(np.sum(s**2)), 0.0)) * v / np.linalg.norm(v)
        return float(np.linalg.norm(c + a * s))


# union of the five descriptor types
ConvexSet = Ball | HalfSpace | Hyperplane | Box | Ellipsoid

_KIND_MAP = {cls.kind: cls for cls in get_args(ConvexSet)}


def set_from_dict(record):
    """Build a set descriptor from its tagged-record form (strict keys)."""
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError("set record must be an object with a 'type' tag")
    tag = record["type"]
    if tag not in _KIND_MAP:
        raise ValueError(f"unknown set type {tag!r}")
    cls = _KIND_MAP[tag]
    names = [f.name for f in fields(cls)]
    extra = set(record) - {"type", *names}
    if extra:
        raise ValueError(f"unknown key {sorted(extra)[0]!r} in {tag} record")
    missing = [name for name in names if name not in record]
    if missing:
        raise ValueError(f"missing key {missing[0]!r} in {tag} record")
    return cls(*(record[name] for name in names))


def set_to_dict(s: ConvexSet) -> dict:
    """Tagged-record form of a set descriptor; the inverse of `set_from_dict`."""
    record = {"type": s.kind}
    for f in fields(s):
        value = getattr(s, f.name)
        record[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return record


def family_bounding_radius(family) -> float:
    """Smallest radius of an origin-centered ball containing every bounded member.

    `family` is an `operators.Family`.  Half-spaces and hyperplanes are
    unbounded; they are tolerated only when a bounded member is present in
    the same family (the bounded member then encloses the intersection).
    With no bounded member the hypothesis of a common enclosing ball fails
    and UnboundedFamily is raised.
    """
    radii = []
    for s in family.sets:
        try:
            radii.append(s.bounding_radius())
        except UnboundedFamily:
            continue
    if not radii:
        raise UnboundedFamily("family has no bounded member")
    return max(radii)
