"""Elementary closed convex sets in R^n with exact metric projections.

Five set variants are supported: balls, half-spaces, hyperplanes, axis-aligned
boxes and axis-aligned ellipsoids.  All projections accept a single point of
shape (n,) or a batch of shape (..., n) and are exact up to floating point,
except the ellipsoid which solves a one-dimensional dual equation by
monotone Newton from a proven lower bound, to residual <= 1e-12.

Each kind writes its projection once, as `point_source(x, out, k, columns)`:
lines of Python source that set the locals named in `out` from those named
in `x`, which depend on the kind and n alone.  Its twin `point_constants(k)`
gives the values the lines read, the set's numbers by name, the same for
both forms.  Every name they make starts with `k`, except the form's
`_HELPERS`, which each kernel binds once.  On scalars each name holds a
float and the source branches; on columns each holds a column x[..., j] of
a batch, every row runs the setup, and `np.where` keeps the rows that do
not move.  Three places switch between the forms: `_moved_or_kept`, the
box's clamp and the ellipsoid's Newton loop.  Both do the same IEEE
operations in the same order, so a batch row has the bits of its point.
The kinds share `project_point`, an unchecked projection of one point
given as a list of n floats, which runs the scalar source, and `project`,
which runs a point (n,) through it and a batch (..., n) through the column
source.  The kernels of `operators` and `intersection` inline either form.
`point_projection_source` and `point_projection_constants` are the one
place that decides whether a kernel inlines a member or calls it, and
`member_constants` is the one loop that binds a family's members.

Code is kept by shape, values by object.  `compiled_function` is the one
place generated source is compiled and bound: the constants reach the code
as values, never as text, so they keep their bits, and the code of each
kernel shape is compiled once and kept, so a later object of a known shape
writes no source and compiles nothing.  `Compiled.kernel`, shared by sets
and families, names the shape, the build and the exact type and dim of each
member, and keeps the object's own functions: it binds each on its first
use, so each reads the ellipsoid's round cap once, when it is bound, and an
object pickles without its functions and binds them again.

Every sum of the package, of a point or of a batch row, adds its terms in
one order, numpy's `add.reduce` order: fewer than `PAIRWISE_SUM_MIN` (8)
terms add in order, and from 8 terms on they add pairwise.  `sum_source` is
the one statement of that order.  It writes the sum out as source: the
`point_source` of a ball, a half-space, a hyperplane or an ellipsoid and the
distance of two points run it on scalars, and `column_sum` runs it
compiled on columns, those of an array in `row_sum`, so that a batch row
adds as its point does, whatever the batch around it or its layout.
`row_norm` and `row_dot` are `row_sum` of products, and every length the
package measures is a `row_norm` or a `max_distance`.

Each kind declares the class attributes `strictly_convex` and `bounded`.  The
bounded kinds (ball, box, ellipsoid) have `bounding_radius`, the radius of the
smallest origin-centred ball that holds the set; `solver.Problem` takes the
largest over its members as its radius rho.

`as_points` is the one dimension check of the layers above, `finite_points`
adds the one finiteness check, `as_number` and `as_vector` are the one type
check of numbers read from input, and `max_distance` is the distance every
stop test, gap and residual measures, on two points or two batches.
`as_positive` is the one check of a positive, finite number (a radius, `k0`,
a tolerance, a grid resolution), and `as_count` of an integer count
(`max_sweeps`, `q`, `K`, `samples`, `seed`, `dimension`).  Each set's
`contains` is its membership test, within `REFERENCE_TOL`, the package's one
accuracy; `operators.Family.contains` joins them for an intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache, partial, reduce
from typing import get_args

import numpy as np

from .errors import DimensionMismatch, EllipsoidRootFindError

# The package's one accuracy, that of `intersection.project_intersection`:
# its result lies within it of every member, so `contains` takes it as slack.
REFERENCE_TOL = 1e-9

_ELLIPSOID_ROOT_RESIDUAL = 1e-12
# round cap of the ellipsoid's Newton, in its projection and `bounding_radius`
_ELLIPSOID_MAX_ROUNDS = 110

# numpy's add.reduce sums fewer terms than this in order, and more pairwise,
# in blocks of at most PAIRWISE_BLOCK terms
PAIRWISE_SUM_MIN = 8
PAIRWISE_BLOCK = 128


def row_sum(a):
    """Sums along the last axis of an array of shape (..., n): `sum_source`,
    compiled for n, on the columns `a[..., j]`; when a has shape (n,), on
    its entries as Python floats, as the point path adds, returned as a
    `np.float64` with the bits of a's row of a (1, n) batch, up to the sign
    of a NaN, and without numpy's warnings.  n = 0 gives zeros."""
    n = a.shape[-1]
    if not n:
        return np.zeros(a.shape[:-1])
    if a.ndim == 1:
        return np.float64(column_sum(n)(*a.tolist()))
    return column_sum(n)(*(a[..., j] for j in range(n)))


@lru_cache(maxsize=64)
def column_sum(n):
    """column_sum(n)(c0, ..., c{n-1}) = `sum_source` of its n arguments."""
    c = [f"c{j}" for j in range(n)]
    return compiled_function(f"def column_sum({', '.join(c)}):", {}, lambda: [f"return {sum_source(c)}"])


def row_dot(x, v):
    """Inner products of the rows of x with the vector v along the last axis:
    `row_sum` of the products, formed one column at a time, `x[..., j] * v_j`,
    or on Python floats when x has shape (n,), as `row_sum` does."""
    if x.ndim == 1:
        return np.float64(column_sum(len(v))(*(xj * vj for xj, vj in zip(x.tolist(), v.tolist()))))
    return column_sum(len(v))(*(x[..., j] * vj for j, vj in enumerate(v.tolist())))


def row_norm(d):
    """Euclidean norms along the last axis of an array of shape (..., n), by
    `row_sum`: on a C-ordered array, bit for bit `np.linalg.norm(d, axis=-1)`."""
    return np.sqrt(row_sum(d * d))


def sum_source(terms):
    """Source of an expression that sums the expressions `terms`, each bound
    tighter than `+`, in numpy's `add.reduce` order.

    Fewer than PAIRWISE_SUM_MIN (8) terms add in order.  Up to PAIRWISE_BLOCK
    (128) terms, eight running sums r_j take every eighth term, combine as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the tail adds in
    order.  Longer sums split at n2 = n//2 - (n//2) % 8 and add the sums of
    the two parts.  numpy also adds the sum to 0.0, which is left out: a sum
    whose terms are all -0.0 is -0.0 here and +0.0 in numpy.  No sum of
    squares is one, and the tests of an affine excess take -0.0 as 0.0.
    """
    n = len(terms)
    if n > PAIRWISE_BLOCK:
        n2 = n // 2 - (n // 2) % 8
        return f"({sum_source(terms[:n2])} + {sum_source(terms[n2:])})"
    if n < PAIRWISE_SUM_MIN:
        return "(" + " + ".join(terms) + ")"
    stop = n - n % 8
    r = ["(" + " + ".join(terms[j:stop:8]) + ")" for j in range(8)]
    head = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
    return "(" + " + ".join([f"({head})", *terms[stop:]]) + ")"


def square_sum_source(names):
    """`sum_source` of the squares of the locals `names`."""
    return sum_source([f"{v} * {v}" for v in names])


def _moved_or_kept(test, setup, moved, out, x, k, columns):
    """Source lines that set the locals `out` to the expressions `moved`, after
    the statements `setup`, where `test` holds, and to the locals `x` where not.

    On scalars this is a branch.  On columns the mask `test` is the local
    `{k}m`, and the setup and `out_j = where({k}m, moved_j, x_j)` run on
    every row under `quiet`, which hides the divisions by zero, invalid
    operations and overflows of the rows that `where` discards, as Python
    floats do on scalars; the lines before the mask still warn."""
    if columns:
        return [f"{k}m = {test}", "with quiet():", *(f"    {line}" for line in setup),
                *(f"    {o} = where({k}m, {m}, {v})" for o, m, v in zip(out, moved, x))]
    return [
        f"if {test}:",
        *(f"    {line}" for line in setup),
        *(f"    {o} = {m}" for o, m in zip(out, moved)),
        "else:",
        *(f"    {o} = {v}" for o, v in zip(out, x)),
    ]


def _check_dual_residual(worst):
    """EllipsoidRootFindError if `worst`, the largest dual residual of an
    ellipsoid projection, exceeds `_ELLIPSOID_ROOT_RESIDUAL`."""
    if worst > _ELLIPSOID_ROOT_RESIDUAL:
        raise EllipsoidRootFindError(
            f"dual residual {worst:.3e} after at most {_ELLIPSOID_MAX_ROUNDS} "
            "Newton rounds; axes may be numerically degenerate"
        )


# the helpers, by name, that `point_source` reads on scalars and on columns
_HELPERS = {
    False: {"sqrt": math.sqrt, "check_residual": _check_dual_residual},
    True: {"sqrt": np.sqrt, "where": np.where, "maximum": np.maximum, "minimum": np.minimum,
           "largest": np.max, "check_residual": _check_dual_residual,
           "quiet": partial(np.errstate, divide="ignore", invalid="ignore", over="ignore")},
}


def columns_of(x):
    """The columns x[..., j] of a batch (..., n), as the rows of a C-ordered
    array of shape (n, ...), which the generated code unpacks."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


# the code of each kernel shape compiled, and the names of the constants its
# first line unpacks, by shape; at most _SHAPES_KEPT shapes, the oldest dropped
_shape_code = {}
_SHAPES_KEPT = 64


def compiled_function(head, consts, body, shape=None):
    """The function of the def line `head` and the statements `body()`, each
    name of `consts`, if any, a local bound to its value.  The values reach
    it as the tuple `K`, never as text, so they keep their bits.  Code is
    kept by `shape`, a key of all that the source depends on: a later call
    of a known shape neither calls `body` nor compiles, but binds its own
    values, in the order of the names the code unpacks.  A shape of None is
    compiled every time."""
    try:
        code, names = _shape_code[shape]
    except KeyError:
        names = tuple(consts)
        unpack = [f"{', '.join(names)}, = K"] if names else []
        source = "\n".join([head, *(f"    {line}" for line in unpack + body())])
        code = compile(source, "<generated>", "exec")
        if shape is not None:
            if len(_shape_code) >= _SHAPES_KEPT:
                del _shape_code[next(iter(_shape_code))]
            _shape_code[shape] = code, names
    namespace = {"K": tuple(consts[name] for name in names)}
    exec(code, namespace)
    return namespace[head[len("def "):head.index("(")]]


@lru_cache(maxsize=64)
def _list_distance(n):
    """distance(u, v) of two lists of n floats, compiled: the square root of
    `square_sum_source` of their differences."""
    u, v, d = ([f"{c}{j}" for j in range(n)] for c in "uvd")
    return compiled_function("def distance(u, v):", {"sqrt": math.sqrt}, lambda: [
        f"{', '.join(u)}, = u", f"{', '.join(v)}, = v",
        *(f"{dj} = {uj} - {vj}" for dj, uj, vj in zip(d, u, v)),
        f"return sqrt({square_sum_source(d)})",
    ])


def max_distance(u, v):
    """Largest distance between paired points of u and v.

    A point, a list of floats or an array of shape (n,), against another is
    measured on lists by `_list_distance`.  Batches of shape (..., n) are
    measured on their columns by `column_distance`.  Both keep the bits of
    the largest `row_norm(u - v)`."""
    if isinstance(u, np.ndarray):
        if u.ndim != 1:
            return column_distance(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0))
        u = u.tolist()
    return _list_distance(len(u))(u, v.tolist() if isinstance(v, np.ndarray) else v)


def column_distance(u, v):
    """Largest distance between paired rows of two batches, each given by its
    n columns: the square root of `sum_source` of the squared differences
    of the columns, or 0.0 when the batches hold no row."""
    d = [uj - vj for uj, vj in zip(u, v)]
    return float(np.max(np.sqrt(column_sum(len(d))(*(dj * dj for dj in d))), initial=0.0))


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
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must have finite coordinates")
    return x


def is_number(x):
    """An int or a float; not a bool or a string, which float() would take."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def as_number(value, what):
    """float(value), or ValueError naming `what` unless `is_number(value)` and
    a float can hold it: an integer past the largest float is refused, not
    rounded to inf."""
    if not is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a number within the float range, got an integer too large") from None


def as_positive(value, what):
    """`as_number(value)`, or ValueError naming `what` unless positive and finite."""
    if not (is_number(value) and 0 < value < math.inf):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return as_number(value, what)


def as_count(value, what, least):
    """int(value), or ValueError naming `what` unless a non-bool integer >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_vector(v, what):
    """A finite float vector of one or more entries; ValueError naming `what`."""
    entries = np.asarray(v, dtype=object)
    if not all(map(is_number, entries.flat)):
        raise ValueError(f"{what} must be numbers, got {v!r}")
    try:
        v = entries.astype(float)
    except OverflowError:
        raise ValueError(f"{what} must be numbers within the float range, got an integer too large") from None
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{what} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    return v


def _dual_start(g, shift, floor):
    """A lower bound past `floor` on the root of phi(lam) = sum_d (g_d /
    (shift_d + lam))^2 - 1, along the last axis of g: term d is at least 1
    while shift_d + lam <= |g_d|.  The projection's `point_source` writes it
    out with shift a^2 and floor 0; `Ellipsoid.bounding_radius` passes shift
    -a^2 and the float past max a^2."""
    return np.maximum.reduce(np.abs(g) - shift, axis=-1, initial=floor)


def _newton_step(g, s):
    """phi(lam) and the Newton step from lam, given s = shift + lam, along the
    last axis of g and s, for `Ellipsoid.bounding_radius`.

    phi is convex and decreasing, so from a lam left of the root the step is
    positive and the next lam stays left of it, up to rounding."""
    r2 = (g / s) ** 2
    phi = row_sum(r2) - 1.0
    return phi, phi / (2.0 * row_sum(r2 / s))


class Compiled:
    """The kernels of an object, a set or a family: `kernel(build)` is the
    function of `build(self)`, a (head, constants, body) triple, bound on
    first use and kept.  Its code is compiled once per shape, the build and
    the exact type and dim of each member in order (a set is its own one
    member), which is all that reaches the source; an object of a known
    shape only binds its constants to that code.  An object pickles without
    its functions, and binds them again on first use."""

    def kernel(self, build):
        try:
            return self._kernels[build]
        except (AttributeError, KeyError):
            shape = (build, *((type(s), s.dim) for s in self._members()))
            kernel = compiled_function(*build(self), shape)
            self.__dict__.setdefault("_kernels", {})[build] = kernel
            return kernel

    def _members(self):
        return (self,)

    def __getstate__(self):
        # pickle cannot find generated code by name
        return {k: v for k, v in self.__dict__.items() if k != "_kernels"}


class _PointSource(Compiled):
    """A kind whose projection is written once, as `point_source`, with the
    values it reads from `point_constants`: bound on scalars for the set's
    first point and on columns for its first batch."""

    def project(self, x):
        """The projection of a point (n,) or a batch (..., n), in x's shape:
        `point_source` on the point's scalars or on the batch's columns."""
        x = as_points(x, self.dim)
        if x.ndim == 1:
            return np.array(self.kernel(_point_projection)(x.tolist()))
        return np.stack(self.kernel(_column_projection)(columns_of(x)), axis=-1)

    def project_point(self, x):
        return self.kernel(_point_projection)(x)


def _projection_function(s, columns):
    """The kernel of `point_source` of the set s on scalars or on columns:
    from the n coordinates or columns x to the list of the out's."""

    def body():
        x, out = ([f"{c}{j}" for j in range(s.dim)] for c in "xp")
        lines = s.point_source(x, out, "k", columns)
        return [f"{', '.join(x)}, = x", *lines, f"return [{', '.join(out)}]"]

    head = "def project_columns(x):" if columns else "def project_point(x):"
    return head, {**_HELPERS[columns], **s.point_constants("k")}, body


# the builds of a set's two kernels, for `Compiled.kernel`
_point_projection = partial(_projection_function, columns=False)
_column_projection = partial(_projection_function, columns=True)


def _indexed(prefix, values):
    """{prefix}0, {prefix}1, ... bound to the floats `values`, in order."""
    return {f"{prefix}{j}": v for j, v in enumerate(values)}


def _square_limit(r):
    """The largest float t with sqrt(t) <= r, for r positive and finite, or
    the largest finite float when the square root of every finite float is
    at most r.  sqrt is correctly rounded, so monotone: for every float q,
    NaN and inf included, sqrt(q) > r exactly when q > t.  t starts from
    r * r and moves by `math.nextafter` steps, a few at most."""
    top = float(np.finfo(float).max)
    t = min(r * r, top)
    while math.sqrt(t) > r:
        t = math.nextafter(t, 0.0)
    while t < top and math.sqrt(math.nextafter(t, math.inf)) <= r:
        t = math.nextafter(t, math.inf)
    return t


@dataclass(frozen=True, eq=False)
class Ball(_PointSource):
    """Closed ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float
    kind = "ball"
    strictly_convex = True
    bounded = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center"))
        radius = as_positive(as_number(self.radius, "radius"), "radius")
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "_t", _square_limit(radius))

    @property
    def dim(self):
        return self.center.size

    def point_source(self, x, out, k, columns):
        # scale x - center back to the radius where it is longer; a point at
        # the centre, of length 0, is kept.  The length sqrt(q) exceeds r
        # exactly when q exceeds t = `_square_limit(r)`, so only a point that
        # moves takes the square root.
        c = [f"{k}c{j}" for j in range(self.dim)]
        d = [f"{k}d{j}" for j in range(self.dim)]
        lines = [f"{dj} = {v} - {cj}" for dj, v, cj in zip(d, x, c)]
        lines.append(f"{k}q = {square_sum_source(d)}")
        return lines + _moved_or_kept(
            f"{k}q > {k}t", [f"{k}s = {k}r / sqrt({k}q)"],
            [f"{cj} + {dj} * {k}s" for cj, dj in zip(c, d)], out, x, k, columns,
        )

    def point_constants(self, k):
        return {f"{k}r": self.radius, f"{k}t": self._t,
                **_indexed(f"{k}c", self.center.tolist())}

    def contains(self, x, tol=REFERENCE_TOL):
        x = as_points(x, self.dim)
        return row_norm(x - self.center) <= self.radius + tol

    def bounding_radius(self):
        return float(row_norm(self.center) + self.radius)


@dataclass(frozen=True, eq=False)
class _Affine(_PointSource):
    """A normal vector, whose squared length is neither 0, subnormal nor
    inf, and an offset; its length is kept for `contains`.  Subclasses add
    a kind, `contains` and `_moves`, the comparison operator that
    `point_source` writes between the excess <normal, x> - offset and 0.0:
    where it holds, `project` moves a point onto <normal, x> = offset."""

    normal: np.ndarray
    offset: float
    strictly_convex = False
    bounded = False

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal, "normal"))
        object.__setattr__(self, "offset", as_number(self.offset, "offset"))
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        nn = float(row_dot(self.normal, self.normal))
        # a projection divides by nn, so 0, a subnormal or inf would spoil it
        if not np.finfo(float).tiny <= nn < math.inf:
            raise ValueError(
                "normal must be nonzero, with a squared length that neither underflows nor overflows"
            )
        object.__setattr__(self, "_nn", nn)
        object.__setattr__(self, "_norm", float(row_norm(self.normal)))

    @property
    def dim(self):
        return self.normal.size

    def point_source(self, x, out, k, columns):
        v = [f"{k}v{j}" for j in range(self.dim)]
        lines = [f"{k}e = {sum_source([f'{xj} * {vj}' for xj, vj in zip(x, v)])} - {k}offset"]
        return lines + _moved_or_kept(
            f"{k}e {self._moves} 0.0", [f"{k}s = {k}e / {k}nn"],
            [f"{xj} - {k}s * {vj}" for xj, vj in zip(x, v)], out, x, k, columns,
        )

    def point_constants(self, k):
        return {f"{k}offset": self.offset, f"{k}nn": self._nn, **_indexed(f"{k}v", self.normal.tolist())}


class HalfSpace(_Affine):
    """Closed half-space {x : <normal, x> <= offset}."""

    kind = "halfspace"
    _moves = ">"  # a NaN excess keeps the point

    def contains(self, x, tol=REFERENCE_TOL):
        x = as_points(x, self.dim)
        # slack measured as a distance, so it does not scale with ||normal||
        return row_dot(x, self.normal) - self.offset <= tol * self._norm


class Hyperplane(_Affine):
    """Hyperplane {x : <normal, x> = offset}."""

    kind = "hyperplane"
    _moves = "!="  # a NaN excess maps the point to NaN

    def contains(self, x, tol=REFERENCE_TOL):
        x = as_points(x, self.dim)
        return np.abs(row_dot(x, self.normal) - self.offset) <= tol * self._norm


@dataclass(frozen=True, eq=False)
class Box(_PointSource):
    """Axis-aligned box {x : lo <= x <= hi componentwise}."""

    lo: np.ndarray
    hi: np.ndarray
    kind = "box"
    strictly_convex = False
    bounded = True

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo, "lo"))
        object.__setattr__(self, "hi", as_vector(self.hi, "hi"))
        if self.lo.size != self.hi.size:
            raise DimensionMismatch("lo and hi dimensions differ")
        if not np.all(self.lo <= self.hi):
            raise ValueError("requires lo <= hi componentwise")

    @property
    def dim(self):
        return self.lo.size

    def point_source(self, x, out, k, columns):
        # a column is clamped by np.maximum and np.minimum, not np.clip, whose
        # signed-zero ties depend on the bounds' strides.  They keep the bound
        # on a tie (0.0 for x = -0.0, lo = 0.0) and pass NaN through, where
        # Python's min and max would keep x, so a scalar takes per coordinate
        # lo, the projection of lo (which differs from lo only where lo and hi
        # are zeros of opposite sign), or hi.
        lo, lc, hi = ([f"{k}{c}{j}" for j in range(self.dim)] for c in ("lo", "lc", "hi"))
        if columns:
            return [f"{o} = minimum(maximum({v}, {lj}), {hj})" for o, v, lj, hj in zip(out, x, lo, hi)]
        return [f"{o} = {cj} if {v} <= {lj} else ({hj} if {v} >= {hj} else {v})"
                for o, v, lj, cj, hj in zip(out, x, lo, lc, hi)]

    def point_constants(self, k):
        lo_clip = np.minimum(np.maximum(self.lo, self.lo), self.hi)
        return {**_indexed(f"{k}lo", self.lo.tolist()), **_indexed(f"{k}lc", lo_clip.tolist()),
                **_indexed(f"{k}hi", self.hi.tolist())}

    def contains(self, x, tol=REFERENCE_TOL):
        x = as_points(x, self.dim)
        return np.all((x >= self.lo - tol) & (x <= self.hi + tol), axis=-1)

    def bounding_radius(self):
        # farthest vertex from the origin
        far = np.maximum(np.abs(self.lo), np.abs(self.hi))
        return float(row_norm(far))


@dataclass(frozen=True, eq=False)
class Ellipsoid(_PointSource):
    """Axis-aligned ellipsoid {x : sum_d ((x_d - c_d)/axes_d)^2 <= 1}."""

    center: np.ndarray
    axes: np.ndarray
    kind = "ellipsoid"
    strictly_convex = True
    bounded = True

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, "center"))
        object.__setattr__(self, "axes", as_vector(self.axes, "axes"))
        if self.center.size != self.axes.size:
            raise DimensionMismatch("center and axes dimensions differ")
        with np.errstate(over="ignore"):
            a2 = self.axes**2
        # a projection divides by a^2 + lam, so a^2 = 0 or inf would make it NaN
        if not np.all((self.axes > 0) & (a2 > 0.0) & (a2 < math.inf)):
            raise ValueError("axes must be positive, with squares that neither underflow nor overflow")
        object.__setattr__(self, "_a2", a2)

    @property
    def dim(self):
        return self.center.size

    def point_source(self, x, out, k, columns):
        """The projection via the dual equation.

        For z = x - center outside the ellipsoid the projection is
        y_d = z_d * a_d^2 / (a_d^2 + lam) with lam > 0 the unique root of
        phi(lam) = sum_d (g_d / (a_d^2 + lam))^2 - 1, where g_d = z_d * a_d.
        phi is convex and decreasing, so Newton from the lower bound
        max(|g_d| - a_d^2, 0) rises monotonically to the root.  A point
        leaves at its first step that would not raise lam, a NaN step
        included, with that step's phi, or at the round cap with the phi a
        step back.  On columns `where` freezes a row's lam from that step on,
        so it recomputes that phi, until no row outside rises.
        """
        # q_j = z_j / a_j, g_j = z_j * a_j, and in each Newton round t_j = a_j^2 + lam,
        # u_j = g_j / t_j, r_j = u_j * u_j and rt = sum r_j / t_j; rt + rt is 2.0 * rt
        n = range(self.dim)
        c, a, aa, z, q, g, t, u, r = ([f"{k}{p}{j}" for j in n] for p in "c a aa z q g t u r".split())
        newton = [line for j in n for line in (
            f"{t[j]} = {aa[j]} + {k}lam", f"{u[j]} = {g[j]} / {t[j]}", f"{r[j]} = {u[j]} * {u[j]}")]
        rt = sum_source([f"{r[j]} / {t[j]}" for j in n])
        newton += [f"{k}phi = {sum_source(r)} - 1.0", f"{k}rt = {rt}",
                   f"{k}nxt = {k}lam + {k}phi / ({k}rt + {k}rt)"]
        starts = [f"abs({g[j]}) - {aa[j]}" for j in n]
        if columns:
            start = reduce(lambda left, term: f"maximum({left}, {term})", starts, "0.0")
            newton += [f"{k}up = ({k}nxt > {k}lam) & {k}m", f"{k}lam = where({k}up, {k}nxt, {k}lam)",
                       f"if not {k}up.any():", "    break"]
            check = f"check_residual(largest(abs({k}phi), where={k}m, initial=0.0))"
        else:
            start = f"max({', '.join(starts)}, 0.0)"
            newton += [f"if not {k}nxt > {k}lam:", "    break", f"{k}lam = {k}nxt"]
            check = f"check_residual(abs({k}phi))"
        setup = [*(f"{g[j]} = {z[j]} * {a[j]}" for j in n), f"{k}lam = {start}",
                 f"for {k}i in range({k}rounds):", *(f"    {line}" for line in newton), check]
        lines = [line for j in n for line in (f"{z[j]} = {x[j]} - {c[j]}", f"{q[j]} = {z[j]} / {a[j]}")]
        return lines + _moved_or_kept(f"{square_sum_source(q)} > 1.0", setup,
                                      [f"{c[j]} + {z[j]} * {aa[j]} / ({aa[j]} + {k}lam)" for j in n],
                                      out, x, k, columns)

    def point_constants(self, k):
        # the round cap is read here, when a kernel is bound
        return {f"{k}rounds": _ELLIPSOID_MAX_ROUNDS, **_indexed(f"{k}c", self.center.tolist()),
                **_indexed(f"{k}a", self.axes.tolist()), **_indexed(f"{k}aa", self._a2.tolist())}

    def contains(self, x, tol=REFERENCE_TOL):
        x = as_points(x, self.dim)
        return row_sum(((x - self.center) / self.axes) ** 2) <= 1.0 + tol

    def bounding_radius(self):
        """Exact radius of the smallest origin-centred ball containing the set.

        Maximizes ||c + a*s|| over unit vectors s: off the longest axes
        s_d = g_d / (lam - a_d^2) with g = a*c, where psi(lam) = sum_d (g_d /
        (lam - a_d^2))^2 = 1 past max a^2 (or lam = max a^2 if psi < 1 there);
        the longest-axis part of s follows c's (any longest axis if c has
        none) and takes up the rest of ||s|| = 1.  Newton solves psi - 1 = 0
        from the float past the pole, not from the pole, where a tiny
        longest-axis part makes the step NaN, and stops at its first step
        that would not raise lam, as the projection's does; a lam a rounding
        short of the root leaves ||s|| > 1, and s is scaled back onto the
        sphere.
        """
        c, a, a2 = self.center, self.axes, self._a2
        amax2 = float(np.max(a2))
        g = a * c
        top = a2 == amax2
        off, shift = g[g != 0.0], -a2[g != 0.0]
        # a sum that is empty or underflows makes the step -inf, and the loop stops
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam = _dual_start(off, shift, np.nextafter(amax2, np.inf))
            for _ in range(_ELLIPSOID_MAX_ROUNDS):
                nxt = lam + _newton_step(off, shift + lam)[1]
                if not nxt > lam:
                    break
                lam = nxt
        s = np.where(top, 0.0, g / np.where(top, 1.0, lam - a2))
        v = np.where(top, c, 0.0)  # scaled below, so that a tiny part keeps its direction
        v = v / np.max(np.abs(v)) if v.any() else np.eye(c.size)[np.argmax(a2)]
        ss = float(row_sum(s * s))
        s = s / math.sqrt(ss) if ss > 1.0 else s + math.sqrt(1.0 - ss) * v / row_norm(v)
        return float(row_norm(c + a * s))


# union of the five descriptor types
ConvexSet = Ball | HalfSpace | Hyperplane | Box | Ellipsoid

_KIND_MAP = {cls.kind: cls for cls in get_args(ConvexSet)}


def _inlined(s):
    """Whether kernels inline the set s from its `point_source`: whether its
    type is exactly one of the five kinds."""
    return type(s) in _KIND_MAP.values()


def point_projection_source(s, x, out, k, columns):
    """Source lines that set the locals `out` to the projection of the locals
    `x` onto the set s, on scalars or on columns, for a kernel; they depend
    on s's type and dim alone, and read the values of
    `point_projection_constants`.  A set whose type is exactly one of the
    five kinds is inlined from its `point_source`; any other set, a subclass
    too, is called as `{k}project` on the list of `x`."""
    if _inlined(s):
        return s.point_source(x, out, k, columns)
    return [f"{', '.join(out)}, = {k}project([{', '.join(x)}])"]


def point_projection_constants(s, k, columns):
    """The values, by name, that the lines of `point_projection_source` read:
    an inlined set's `point_constants`, and as `{k}project` any other set's
    `project_point` on scalars, or its `project` on the batch the columns
    stack to."""
    if _inlined(s):
        return s.point_constants(k)
    return {f"{k}project": partial(_project_columns, s.project) if columns else s.project_point}


def member_constants(members, columns):
    """The values of a kernel over the sets `members`, by name: the form's
    helpers, and member i's `point_projection_constants` prefixed `m{i}_`."""
    consts = dict(_HELPERS[columns])
    for i, s in enumerate(members):
        consts.update(point_projection_constants(s, f"m{i}_", columns))
    return consts


def _project_columns(project, columns):
    """The columns of `project`, a batch projection, on the batch `columns` stack to."""
    return columns_of(project(np.stack(columns, axis=-1)))


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
