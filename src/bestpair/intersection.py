"""Reference projection onto an intersection of convex sets.

Dykstra's cyclic scheme with correction terms converges to the exact metric
projection onto the intersection, and does so geometrically for the set
variants shipped here.  It serves as the high-accuracy reference everywhere a
projection onto an intersection is needed at tolerances the anchored
iteration cannot reach in reasonable time (its residual decays like tau_k).
Its accuracy is the package's one accuracy, `sets.REFERENCE_TOL`, unless a
tol is given; validation and the baseline pass `solver.BASELINE_INNER_TOL`.

A single point runs in its family's Dykstra kernel, one call for the whole
projection: source written for the family's shape, its member types and
dimension, like the step kernel of `operators`, bound on its first point
projection and kept, its code compiled once per shape (`sets.Compiled`).
Its values are `sets.member_constants`, the scalar helpers once and each
member's numbers, and the `inf` and `project_point` of the stop test; the
batch cycle binds the column helpers and the same numbers.  The iterate
and every member's increment live in scalar locals.  A cycle takes each
member's projection, an ellipsoid's Newton included, from
`sets.point_projection_source`; the feasibility test calls the member's
`project_point`, compiled from the same source, so each member's source is
in the kernel once.  The gap and the member distances of the stop test
come from `sets.square_sum_source`.  These are the operations of the
cycles on lists through `project_point`, in their order, so the result,
and the last iterate and gap of an exhausted budget, keep their bits.

A batch runs the same cycle source on columns, bound on the family's
first batch projection and kept (`_compile_column_cycle`), so a row has the
bits of its point, and its feasibility is `Family.member_distances`.  Its
Dykstra state is one C-ordered array of shape (n*(L+1), rows): the columns
of y, then those of each member's increment.  A row retires once its whole
state keeps its bits over one cycle: every later cycle would repeat those
bits, so the row is final.  It is written to the result, and one
compression of the state drops it from the later cycles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MaxIterExceeded
from .operators import Family
from .sets import (
    REFERENCE_TOL, as_positive, finite_points, member_constants, point_projection_source, row_norm,
    square_sum_source,
)

REFERENCE_MAX_ITER = 50_000


def project_intersection(family: Family, x, tol: float = REFERENCE_TOL):
    """Project x onto the intersection of a Family's members.

    Takes a point of shape (n,) or a batch (..., n); the result is an array
    of the same shape.  A single point runs in the family's Dykstra kernel
    (see `_compile_dykstra`), with the increments, gap and feasibility test
    of the batch path on scalars.  Stops when the per-cycle displacement and
    the worst member distance both fall below tol, within REFERENCE_MAX_ITER
    cycles.  A batch retires each row once its state keeps its bits over a
    cycle; a retired row adds 0 to the displacement, and the member
    distances are measured on the whole batch.  Every row keeps the bits of
    a batch that cycles all rows.
    A single-member family short-circuits to the member's exact projection,
    `project_point` for a single point and `project` for a batch.
    A tol that is not positive and finite raises ValueError, an x of the
    wrong dimension DimensionMismatch, and a non-finite x ValueError, all
    before any cycle; on an exhausted budget, MaxIterExceeded carries the
    last iterate in x's shape.
    """
    as_positive(tol, "tol")
    sets = family.sets
    x = finite_points(x, family.dim, "x")
    if x.ndim > 1:
        return sets[0].project(x) if len(sets) == 1 else _project_rows(family, x, tol)
    if len(sets) == 1:
        return np.asarray(sets[0].project_point(x.tolist()))

    done, y, gap = family.kernel(_compile_dykstra)(x.tolist(), tol, REFERENCE_MAX_ITER)
    if not done:
        raise _budget_exhausted(np.asarray(y), gap)
    return np.asarray(y)


def _compile_dykstra(family: Family):
    """The kernel dykstra(x, tol, cycles) of `project_intersection` on one
    point, written as source for this family's shape.

    x is a list of n floats, the start of the iterate y0, y1, ...; member i's
    increment is in i{i}_0, i{i}_1, ....  A cycle is `_cycle_source`, and the
    gap is the distance of y from the iterate before the cycle.  When the gap
    is at most tol, the largest distance from y to its projection onto a
    member, by the member's `project_point` and taken as Python's `max`
    takes it, is tested against tol.  The function returns (True, y, gap) on
    success, and (False, y, gap) after `cycles` cycles, with y a list.
    """
    consts = {**member_constants(family.sets, False), "inf": math.inf}
    consts.update({f"m{i}_project": s.project_point for i, s in enumerate(family.sets)})

    def body():
        n = family.dim
        state, cycle = _cycle_source(family, False)
        y, p, f, d = ([f"{c}{j}" for j in range(n)] for c in "ypfd")
        feasible = []
        for i in range(len(family.sets)):
            feasible += [
                f"{', '.join(f)}, = m{i}_project([{', '.join(y)}])",
                *(f"{dj} = {yj} - {fj}" for dj, yj, fj in zip(d, y, f)),
                f"dist = sqrt({square_sum_source(d)})",
                "feas = dist" if i == 0 else "if dist > feas: feas = dist",
            ]
        return [
            f"{', '.join(y)}, = x",
            f"{' = '.join(state[n:])} = 0.0",
            "gap = inf",
            "for _ in range(cycles):",
            *(f"    {pj} = {yj}" for pj, yj in zip(p, y)),
            *(f"    {line}" for line in cycle),
            *(f"    {dj} = {yj} - {pj}" for dj, yj, pj in zip(d, y, p)),
            f"    gap = sqrt({square_sum_source(d)})",
            "    if gap <= tol:",
            *(f"        {line}" for line in feasible),
            "        if feas <= tol:",
            f"            return True, [{', '.join(y)}], gap",
            f"return False, [{', '.join(y)}], gap",
        ]

    return "def dykstra(x, tol, cycles):", consts, body


def _compile_column_cycle(family: Family):
    """The kernel cycle(state) of `_project_rows`: one cycle of
    `_cycle_source` on the columns of the state, the rows of the array
    `state`, returned as a list."""

    def body():
        state, cycle = _cycle_source(family, True)
        return [f"{', '.join(state)}, = state", *cycle, f"return [{', '.join(state)}]"]

    return "def cycle(state):", member_constants(family.sets, True), body


def _cycle_source(family: Family, columns):
    """The names of Dykstra's state, y0, ..., y{n-1} and then member i's
    increment i{i}_0, ..., and the source lines of one cycle, on scalars or
    on columns: for each member, z = y - inc, y = P(z), from
    `sets.point_projection_source`, and inc = y - z."""
    n = family.dim
    y, z = ([f"{c}{j}" for j in range(n)] for c in "yz")
    state, cycle = list(y), []
    for i, s in enumerate(family.sets):
        inc = [f"i{i}_{j}" for j in range(n)]
        state += inc
        cycle += [
            *(f"{zj} = {yj} - {ij}" for zj, yj, ij in zip(z, y, inc)),
            *point_projection_source(s, z, y, f"m{i}_", columns),
            *(f"{ij} = {yj} - {zj}" for ij, yj, zj in zip(inc, y, z)),
        ]
    return state, cycle


def _project_rows(family: Family, x, tol):
    """Dykstra's cycles on a batch (..., n), retiring each settled row."""
    n = family.dim
    cycle = family.kernel(_compile_column_cycle)
    pts = x.reshape(-1, n)
    out = np.empty_like(pts)
    rows = np.arange(len(pts))  # the rows of `out` still cycling, in order
    state = np.zeros((n * (len(family.sets) + 1), len(pts)))
    state[:n] = pts.T
    gap = np.inf
    for _ in range(REFERENCE_MAX_ITER):
        state_prev, state = state, np.stack(cycle(state))
        moved = row_norm((state[:n] - state_prev[:n]).T)
        gap = float(np.max(moved, initial=0.0))
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


def _budget_exhausted(last, gap):
    return MaxIterExceeded(
        f"reference projection did not converge in {REFERENCE_MAX_ITER} cycles "
        f"(last gap {gap:.3e}); the intersection may be empty",
        last=last,
        gap=gap,
    )
