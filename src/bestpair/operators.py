"""Anchored simultaneous-projection operators and steering schedules.

The core operator is M[d](x) = tau*d + (1-tau)*sum_l w_l P_l(x) over a family
of convex sets.  Products of these operators with a fixed anchor, applied with
a vanishing steering sequence, converge to the metric projection of the anchor
onto the family's intersection; `shlwb_project` runs that iteration directly.
Every anchored step, here and in the solver, runs in the family's one step
kernel (`_step_function`).

The step is straight-line Python source written once for the family's
shape, its member types and dimension, and compiled under one head,
`steps(anchor, y, blocks)`: a generator that runs the taus of each block
and yields the step after the block.  `anchored_steps` passes one tau a
block, so it yields every step; `apply_q_hat` and `point_sweep`, which the
solver runs, pass the sweep's taus as one block, so a sweep is one kernel
run.  The kernel has two forms, each bound to the family's weights and
member constants on its first use and kept by the family; its code is
compiled on the first use by any family of that shape (`sets.Compiled`).
On one point each local is a scalar coordinate; on a batch (..., n) each local is
a column y[..., j], and the steps are lists of columns, of which a function
stacks only those it returns.  Each member's projection comes from
`sets.point_projection_source`: a member of one of the five kinds inlined
from its `point_source`, any other member, a subclass too, called through
its `project_point` or its `project`.  The kernel does the IEEE operations
of the numpy forms in the same order, so the results keep their bits, and a
batch row has the bits of its point; so does the list stop test of
`shlwb_project`, whose norm `square_sum_source` writes out, and whose
taus come from the schedule's kept list, as every sweep's do.  The public
functions take and return arrays, and check their points with
`sets.finite_points`; `point_sweep` takes and returns a list, unchecked.
`Family.contains` is the one membership test of an intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded
from .sets import (
    REFERENCE_TOL, Compiled, as_count, as_number, as_positive, as_vector, column_distance,
    columns_of, finite_points, max_distance, member_constants, point_projection_source, row_norm,
    row_sum,
)

SHLWB_DEFAULT_TOL = 1e-4
SHLWB_MAX_ITER = 200_000
WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SteeringSchedule:
    """Parametric steering sequence tau_k = c / (k + k0)^p.

    The steering axioms ask for tau_k in (0, 1), tau_k -> 0, a divergent sum
    and summable successive differences.  For this family they hold exactly
    when 0 < p <= 1 and tau_0 = c / k0^p lies in (0, 1): the sequence then
    decreases to 0, its sum diverges, and its differences telescope.  Any
    other schedule raises ValueError naming the failing parameter, so every
    schedule that exists satisfies the axioms.  The defaults (c=1, k0=2, p=1)
    give the harmonic-type sequence 1/(k+2).

    `taus` hands out the first tau_k of a list the schedule keeps, evaluated
    as one array and extended by doubling.
    """

    c: float = 1.0
    k0: float = 2.0
    p: float = 1.0

    def __post_init__(self):
        for name in ("c", "k0", "p"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        as_positive(self.k0, "k0")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(
                "schedule violates the steering axioms: "
                f"p must lie in (0, 1], got {self.p}"
            )
        tau0 = self.tau(0)
        if not 0.0 < tau0 < 1.0:
            raise ValueError(
                "schedule violates the steering axioms: "
                f"tau_0 = c / k0^p must lie in (0, 1), got {tau0}"
            )
        object.__setattr__(self, "_tau_list", [])

    def tau(self, k):
        """tau_k for an integer index or an array of indices."""
        return self.c / (k + self.k0) ** self.p

    def taus(self, count):
        """[tau_0, ..., tau_{count-1}] as a new list of Python floats, with the
        bits of `tau(np.arange(count)).tolist()`: numpy evaluates each entry
        on its own, so a slice of a longer evaluation is the same."""
        kept = self._tau_list
        if len(kept) < count:
            kept += self.tau(np.arange(len(kept), max(count, 2 * len(kept)))).tolist()
        return kept[:count]


@dataclass(frozen=True, eq=False)
class Family(Compiled):
    """Ordered convex sets with simplex weights and a steering schedule.

    Weights default to uniform.  The schedule satisfies the steering axioms by
    construction (see `SteeringSchedule`).  A family may lack a bounded member
    and may have an empty intersection: `solver.Problem` requires the first,
    and `solver.validate_problem` checks the second, which needs a projection
    run.
    """

    sets: tuple
    weights: np.ndarray = None
    schedule: SteeringSchedule = field(default_factory=SteeringSchedule)

    def __post_init__(self):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("family needs at least one set")
        dim = sets[0].dim
        for s in sets:
            if s.dim != dim:
                raise DimensionMismatch("family members have mixed dimensions")
        if self.weights is None:
            w = np.full(len(sets), 1.0 / len(sets))
        else:
            w = as_vector(self.weights, "weights")
        if w.shape != (len(sets),):
            raise ValueError("weights length must match number of sets")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if abs(float(row_sum(w)) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weight_list", w.tolist())

    @property
    def dim(self):
        return self.sets[0].dim

    def _members(self):
        return self.sets

    def weighted_projection(self, x):
        """sum_l w_l P_l(x) for x of shape (n,) or (..., n), accumulated in
        index order through the members' `project`.  The anchored steps run
        in the kernels, which write this sum out inline."""
        x = np.asarray(x, dtype=float)
        weights = self._weight_list
        acc = weights[0] * self.sets[0].project(x)
        for w, s in zip(weights[1:], self.sets[1:]):
            acc += w * s.project(x)
        return acc

    def contains(self, x, tol=REFERENCE_TOL):
        """Whether x lies in every member within tol, shape (...); the
        members are tested in order until no point of x is left."""
        inside = self.sets[0].contains(x, tol)
        for s in self.sets[1:]:
            if not inside.any():
                break
            inside &= s.contains(x, tol)
        return inside

    def within(self, x, bound):
        """Whether the point x, a list of n floats, lies within `bound` of
        each member by its `project_point` and `max_distance`, tested in
        order up to the first member farther away, or at a NaN distance."""
        for s in self.sets:
            if not max_distance(x, s.project_point(x)) <= bound:
                return False
        return True

    def member_distances(self, x):
        """Distances ||x - P_l(x)|| to every member, shape (L, ...)."""
        x = np.asarray(x, dtype=float)
        return np.stack(
            [row_norm(x - s.project(x)) for s in self.sets]
        )


def anchored_steps(family: Family, taus, anchor, y=None):
    """An iterator of y <- tau*anchor + (1-tau)*sum_l w_l P_l(y), one step
    for each tau.

    The iteration starts from y = anchor unless a start is given.  The
    single step, the sweep path, the anchored projection and the solver's
    sweeps run it.  Arguments are not checked; `taus` is any iterable of
    floats, read one step at a time.

    When anchor and y both have shape (n,), the iterator is the family's step
    kernel on scalars, and each step is a list of floats.  Otherwise the two
    broadcast to a batch, the iterator is the kernel on columns, and each
    step is the list of the columns y[..., j], which `np.stack(step,
    axis=-1)` stacks.  Both give the same bits on the same point.
    """
    anchor = np.asarray(anchor, dtype=float)
    y = anchor if y is None else np.asarray(y, dtype=float)
    if anchor.shape == y.shape == (family.dim,):
        return family.kernel(_point_steps)(anchor.tolist(), y.tolist(), zip(taus))
    anchor, y = np.broadcast_arrays(anchor, y)
    return family.kernel(_column_steps)(columns_of(anchor), columns_of(y), zip(taus))


def _step_function(family: Family, columns):
    """The kernel of the generator steps(anchor, y, blocks): the anchored
    steps, written as source for this family's shape, on a point's scalars
    or a batch's columns.

    anchor and y hold n floats or n columns.  The coordinates live in
    locals y0, y1, ..., set from y; each step runs every member's
    projection on them, from `sets.point_projection_source`, then
    y_j = tau*a_j + s*(w_0*m0_j + w_1*m1_j + ...) with s = 1 - tau.  After
    the taus of each block it yields [y0, y1, ...].  These are the
    operations of `project_point` and of `weighted_projection`, in their
    order, so the steps keep their bits, and a batch row has the bits of its
    point.  Weights, and the form's helpers and each member's numbers from
    `sets.member_constants`, are the kernel's constants, never text, so
    every family of one shape (member types, count and n) shares its code.
    """
    consts = member_constants(family.sets, columns)
    consts.update({f"w{i}": w for i, w in enumerate(family._weight_list)})

    def body():
        n = family.dim
        a, y = [f"a{j}" for j in range(n)], [f"y{j}" for j in range(n)]
        lines, outs = [], []
        for i, s in enumerate(family.sets):
            out = [f"m{i}_{j}" for j in range(n)]
            lines += point_projection_source(s, y, out, f"m{i}_", columns)
            outs.append(out)
        lines += [
            f"{yj} = tau * {aj} + s * ({' + '.join(f'w{i} * {o[j]}' for i, o in enumerate(outs))})"
            for j, (aj, yj) in enumerate(zip(a, y))
        ]
        return [
            f"{', '.join(a)}, = anchor",
            f"{', '.join(y)}, = y",
            "for taus in blocks:",
            "    for tau in taus:",
            "        s = 1.0 - tau",
            *(f"        {line}" for line in lines),
            f"    yield [{', '.join(y)}]",
        ]

    return "def steps(anchor, y, blocks):", consts, body


# the builds of the step kernel's two forms, for `Family.kernel`: on one
# point, each step a list of floats, and on a batch, a list of columns
_point_steps = partial(_step_function, columns=False)
_column_steps = partial(_step_function, columns=True)


def _sweep_taus(family: Family, q: int) -> list:
    """tau_0, ..., tau_q as Python floats, from the schedule's kept list."""
    return family.schedule.taus(as_count(q, "q", 0) + 1)


def point_sweep(family: Family, q: int, x: list) -> list:
    """The sweep of q+1 anchored steps from the point x, a list of n floats,
    anchored at x: one run of the family's step kernel over one block of
    taus, tau_0, ..., tau_q.  Unchecked, like `project_point`; returns a
    list of n floats."""
    [y] = family.kernel(_point_steps)(x, x, (family.schedule.taus(q + 1),))
    return y


def apply_m(family: Family, tau: float, anchor, x):
    """One anchored step: tau*anchor + (1-tau)*weighted projection of x."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    anchor = finite_points(anchor, family.dim, "anchor")
    x = finite_points(x, family.dim)
    return np.stack(next(anchored_steps(family, (tau,), anchor, x)), axis=-1)


def apply_m_hat(family: Family, tau: float, x):
    """Self-anchored step: apply_m with anchor = x."""
    x = finite_points(x, family.dim)
    return apply_m(family, tau, x, x)


def apply_q_hat(family: Family, q: int, x):
    """Anchored sweep of q+1 steps; the last row of `q_hat_path`.

    The anchor is the original input at every inner step and the steering
    index restarts at 0 on every call.  The sweep's taus are one block of
    the family's step kernel, so a sweep is one kernel run, which yields
    only the last step.
    """
    q = as_count(q, "q", 0)
    x = finite_points(x, family.dim)
    if x.ndim == 1:
        return np.asarray(point_sweep(family, q, x.tolist()))
    start = columns_of(x)
    [y] = family.kernel(_column_steps)(start, start, (_sweep_taus(family, q),))
    return np.stack(y, axis=-1)


def q_hat_path(family: Family, q: int, x):
    """All sweep outputs [Q_0(x), ..., Q_q(x)] in one pass, shape (q+1, ..., n).

    Successive sweep outputs share their prefix because the anchor is fixed,
    so the whole path costs the same as the longest single sweep.
    """
    taus = _sweep_taus(family, q)
    x = finite_points(x, family.dim)
    out = np.empty((q + 1,) + x.shape)
    columns = np.moveaxis(out, -1, 1)  # columns[t, j] is out[t, ..., j]
    for t, y in enumerate(anchored_steps(family, taus, x)):
        columns[t] = y
    return out


def shlwb_project(family: Family, anchor, tol: float = SHLWB_DEFAULT_TOL):
    """Approximate the projection of `anchor` onto the family's intersection.

    Runs x_{k+1} = tau_k*anchor + (1-tau_k)*sum_l w_l P_l(x_k) from
    x_0 = anchor until ||x_{k+1} - x_k|| <= tol*tau_k.  The stop test is
    scaled by tau_k because the per-step displacement of an anchored iteration
    is Theta(tau_k) even at the limit, so an unscaled gap test would stall.

    Accepts a batch of anchors of shape (..., n); the stop test then uses the
    largest row gap, measured on the steps' columns.  A non-finite anchor, or
    a tol that is not positive and finite, is rejected with ValueError before
    any step.  Raises MaxIterExceeded (carrying the last iterate and gap,
    and naming the bound tol*tau_k the gap missed) when the SHLWB_MAX_ITER
    budget runs out, which signals slow steering or an empty intersection.
    """
    as_positive(tol, "tol")
    anchor = finite_points(anchor, family.dim, "anchor")
    # one copy of the taus drives the steps, the other the stop test
    taus, stop_taus = itertools.tee(_read_taus(family.schedule, SHLWB_MAX_ITER))
    x = anchor.tolist() if anchor.ndim == 1 else list(columns_of(anchor))
    distance = max_distance if anchor.ndim == 1 else column_distance
    gap = bound = np.inf
    for tau, x_next in zip(stop_taus, anchored_steps(family, taus, anchor)):
        gap, bound = distance(x_next, x), tol * tau
        x = x_next
        if gap <= bound:
            return np.stack(x, axis=-1)
    raise MaxIterExceeded(
        f"no convergence within {SHLWB_MAX_ITER} iterations "
        f"(last gap {gap:.3e} > tol*tau_k = {bound:.3e})",
        last=np.stack(x, axis=-1),
        gap=gap,
    )


def _read_taus(schedule: SteeringSchedule, count: int):
    """tau_0, ..., tau_{count-1}, one at a time, from the list `taus` keeps,
    so they have its bits.  The list grows by doubling as they are read: the
    budget is large and most runs stop early, and k steps from a list that
    starts empty evaluate fewer than 2k + 1 taus."""
    done = 0
    while done < count:
        block = schedule.taus(min(count, 2 * done + 1))[done:]
        yield from block
        done += len(block)
