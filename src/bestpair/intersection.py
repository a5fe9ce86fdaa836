"""Reference projection onto an intersection of convex sets.

Dykstra's cyclic scheme with correction terms converges to the exact metric
projection onto the intersection, and does so geometrically for the set
variants shipped here.  It serves as the high-accuracy reference everywhere a
projection onto an intersection is needed at tolerances the anchored
iteration cannot reach in reasonable time (its residual decays like tau_k).
Its accuracy is the package's one accuracy, `sets.REFERENCE_TOL`, unless a
tol is given; validation and the baseline pass `solver.BASELINE_INNER_TOL`.

Dykstra is one kernel in two forms, `dykstra(state, tol, left)`, written
for the family's shape like the step kernel of `operators`, bound on first
use and kept, its code compiled once per shape (`sets.Compiled`).  It
binds `sets.member_constants` and, on scalars, the `isfinite` of its guard.
Its state is the iterate and every member's increment, scalar locals on a
point and columns on a batch.  A cycle takes each member's projection, an
ellipsoid's Newton included, from `sets.point_projection_source`, and the
gap from `sets.square_sum_source`: the operations of the cycles on lists
through `project_point`, in their order, so a result, the last iterate and
gap of an exhausted budget, and a batch row keep the bits of that loop.
The kernel only cycles; its callers hold the exit test, the budget and the
check that the iterate stays finite.  A point runs the budget in one call,
or more when `Family.within` rejects the iterate of a small gap.  A batch
runs one cycle a call, and its exit test is `Family.member_distances`.  Its
state is one C-ordered array of shape (n*(L+1), rows), the columns of y and
then of each member's increment.  A row retires once its whole state keeps
its bits over one cycle: every later cycle would repeat them.  It is
written to the result, and one compression of the state drops it from the
later cycles.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import MaxIterExceeded
from .operators import Family
from .sets import (
    REFERENCE_TOL, as_positive, finite_points, member_constants, point_projection_source,
    square_sum_source,
)

REFERENCE_MAX_ITER = 50_000


def project_intersection(family: Family, x, tol: float = REFERENCE_TOL):
    """Project x onto the intersection of a Family's members.

    Takes a point of shape (n,) or a batch (..., n); the result is an array
    of the same shape.  Both run the family's Dykstra kernel
    (`_dykstra_function`) and stop once a cycle moves the iterate at most
    tol and `Family.within`, or on a batch `Family.member_distances`, finds
    it within tol of every member, within REFERENCE_MAX_ITER cycles.  A
    batch retires each row once its state keeps its bits over a cycle, and
    every row keeps the bits of a batch that cycles all rows.  A
    single-member family short-circuits to the member's exact projection.
    A tol that is not positive and finite, or a non-finite x, raises
    ValueError and an x of the wrong dimension DimensionMismatch, before
    any cycle; an iterate that leaves the float range raises ValueError; on
    an exhausted budget, MaxIterExceeded carries the last iterate in x's
    shape.
    """
    as_positive(tol, "tol")
    sets = family.sets
    x = finite_points(x, family.dim, "x")
    if x.ndim > 1:
        return _finite(sets[0].project(x)) if len(sets) == 1 else _project_rows(family, x, tol)
    if len(sets) == 1:
        return _finite(np.asarray(sets[0].project_point(x.tolist())))

    n, dykstra = family.dim, family.kernel(_point_dykstra)
    state, gap, left = x.tolist() + [0.0] * (n * len(sets)), math.inf, REFERENCE_MAX_ITER
    while left:
        state, gap, left = dykstra(state, tol, left)
        if not math.isfinite(gap):
            _finite(state[:n])
        if gap <= tol and family.within(state[:n], tol):
            return np.asarray(state[:n])
    raise _budget_exhausted(np.asarray(state[:n]), gap)


def _dykstra_function(family: Family, columns):
    """The kernel dykstra(state, tol, left) of `project_intersection`:
    Dykstra's cycles, written as source for this family's shape, on a
    point's scalars or a batch's columns.

    state is Dykstra's whole state, n floats or columns of the iterate
    y0, y1, ..., then member i's increment i{i}_0, i{i}_1, ....  The loop
    runs at most left >= 1 cycles: for each member, z = y - inc, y = P(z),
    from `sets.point_projection_source`, and inc = y - z; the gap is the
    distance of y from the iterate before the cycle, by `square_sum_source`.
    On scalars the loop also ends after a cycle whose gap is at most tol or
    not finite.  It returns (state, gap, cycles left), the state a list.
    """
    consts = member_constants(family.sets, columns)
    if not columns:
        consts["isfinite"] = math.isfinite

    def body():
        n = family.dim
        y, z, p, d = ([f"{c}{j}" for j in range(n)] for c in "yzpd")
        state, cycle = list(y), []
        for i, s in enumerate(family.sets):
            inc = [f"i{i}_{j}" for j in range(n)]
            state += inc
            cycle += [
                *(f"{zj} = {yj} - {ij}" for zj, yj, ij in zip(z, y, inc)),
                *point_projection_source(s, z, y, f"m{i}_", columns),
                *(f"{ij} = {yj} - {zj}" for ij, yj, zj in zip(inc, y, z)),
            ]
        cycle += [*(f"{dj} = {yj} - {pj}" for dj, yj, pj in zip(d, y, p)),
                  f"gap = sqrt({square_sum_source(d)})"]
        if not columns:
            cycle += ["if gap <= tol or not isfinite(gap):", "    break"]
        return [
            f"{', '.join(state)}, = state",
            "for left in reversed(range(left)):",
            *(f"    {pj} = {yj}" for pj, yj in zip(p, y)),
            *(f"    {line}" for line in cycle),
            f"return [{', '.join(state)}], gap, left",
        ]

    return "def dykstra(state, tol, left):", consts, body


# the builds of the Dykstra kernel's two forms, for `Family.kernel`: on one
# point, a state of floats, and on a batch, one of columns
_point_dykstra = partial(_dykstra_function, columns=False)
_column_dykstra = partial(_dykstra_function, columns=True)


def _project_rows(family: Family, x, tol):
    """Dykstra's cycles on a batch (..., n), one kernel call a cycle,
    retiring each settled row."""
    n = family.dim
    dykstra = family.kernel(_column_dykstra)
    pts = x.reshape(-1, n)
    out = np.empty_like(pts)
    rows = np.arange(len(pts))  # the rows of `out` still cycling, in order
    state = np.zeros((n * (len(family.sets) + 1), len(pts)))
    state[:n] = pts.T
    gap = np.inf
    for _ in range(REFERENCE_MAX_ITER):
        columns, moved, _ = dykstra(state, tol, 1)
        state_prev, state = state, np.stack(columns)
        gap = float(np.max(moved, initial=0.0))
        if not math.isfinite(gap):
            _finite(state[:n])
        if gap <= tol:
            out[rows] = state[:n].T
            feas = float(np.max(family.member_distances(out), initial=0.0))
            if feas <= tol:
                return out.reshape(x.shape)
        settled = _settled(moved, state, state_prev)
        if settled.any():
            out[rows[settled]] = state[:n, settled].T
            state, rows = state[:, ~settled], rows[~settled]
    out[rows] = state[:n].T
    raise _budget_exhausted(out.reshape(x.shape), gap)


def _settled(moved, state, state_prev):
    """Mask of the rows, the columns of the arrays `state` and `state_prev`,
    whose every entry kept its bits; only the rows that `moved` 0 are
    compared.  Bits, not `==`, so that a zero which flips its sign keeps the
    row going."""
    settled = moved == 0.0
    rows = np.flatnonzero(settled)
    if rows.size:
        now, before = state[:, rows].view(np.int64), state_prev[:, rows].view(np.int64)
        settled[rows] = np.all(now == before, axis=0)
    return settled


def _finite(y):
    """y, a list or an array, or ValueError if a coordinate is not finite.
    A cycle from a finite iterate to one that is not has a gap of inf or
    NaN, so its callers check y only after such a gap."""
    if not np.isfinite(y).all():
        raise ValueError("reference projection overflowed: an iterate left the float range")
    return y


def _budget_exhausted(last, gap):
    return MaxIterExceeded(
        f"reference projection did not converge in {REFERENCE_MAX_ITER} cycles "
        f"(last gap {gap:.3e}); the intersection may be empty",
        last=last,
        gap=gap,
    )
