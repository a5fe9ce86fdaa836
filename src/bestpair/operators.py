"""Anchored simultaneous-projection operators and steering schedules.

The core operator is M[d](x) = tau*d + (1-tau)*sum_l w_l P_l(x) over a family
of convex sets.  Products of these operators with a fixed anchor, applied with
a vanishing steering sequence, converge to the metric projection of the anchor
onto the family's intersection; `shlwb_project` runs that iteration directly.
Every anchored step, here and in the solver, runs in `anchored_steps` or, for
a whole sweep of one point, in the same step compiled as a sweep.

A single point runs in its family's point kernels: straight-line Python
source written once for the family's members, weights and dimension, and
compiled under two heads.  `steps(anchor, y, taus)` is a generator that
yields every step, for `anchored_steps`; `sweep(anchor, taus)` runs all the
steps of a sweep from y = anchor and returns only the last point, for
`apply_q_hat`, so a sweep is one call.  Each is compiled on its first use
and kept by the family (`Family.point_kernel`).  The source holds the
coordinates in scalar locals and runs each member's projection from
`sets.point_projection_source`: a member of one of the five kinds inlined
from its `point_source`, any other member, a subclass too, called through
its `project_point`.  `sets.compiled_function` compiles the source (see
`sets`).  The kernels do the IEEE operations of the numpy forms in the same
order, so the results keep their bits; so does the list stop test of
`shlwb_project`, whose norm `square_sum_source` writes out.
Batches of shape (..., n) run the same step source on columns, each local
a column y[..., j] and each member inlined in its column form or called
through its `project`; the steps are lists of columns, and a function
stacks only the steps it returns.  The public functions take and return
arrays, and check their points with `sets.finite_points`.
`Family.contains` is the one membership test of an intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded
from .sets import (
    CONTAINS_TOL, as_count, as_number, as_positive, as_vector, column_distance, columns_of,
    compiled_function, finite_points, max_distance, point_projection_source, row_norm, row_sum,
)

SHLWB_DEFAULT_TOL = 1e-4
SHLWB_MAX_ITER = 200_000


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
class Family:
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
        if abs(float(row_sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weight_list", w.tolist())
        object.__setattr__(self, "_kernels", {})

    def __getstate__(self):
        # compiled kernels are rebuilt after unpickling; pickle cannot find
        # generated code by name
        return {**self.__dict__, "_kernels": {}}

    @property
    def dim(self):
        return self.sets[0].dim

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

    def point_kernel(self, build):
        """The kernel `build(self)`, compiled for this family on its first use
        and kept: the anchored steps and the sweep of `operators` and
        Dykstra's cycles of `intersection`, on a point or a batch."""
        kernel = self._kernels.get(build)
        if kernel is None:
            kernel = self._kernels[build] = build(self)
        return kernel

    def contains(self, x, tol=CONTAINS_TOL):
        """Whether x lies in every member within tol, shape (...); the
        members are tested in order until no point of x is left."""
        inside = self.sets[0].contains(x, tol)
        for s in self.sets[1:]:
            if not inside.any():
                break
            inside &= s.contains(x, tol)
        return inside

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
    single step, the sweep path, the anchored projection and a batch's
    sweeps run it; a point's sweep runs the same step source compiled as
    `sweep` (see `apply_q_hat`).  Arguments are not checked; `taus` is any
    iterable of floats, read one step at a time.

    When anchor and y both have shape (n,), the iterator is the family's point
    kernel (see `_compile_point_steps`), and each step is a list of floats.
    Otherwise the two broadcast to a batch, the iterator is the same source
    on columns (see `_compile_column_steps`), and each step is the list of
    the columns y[..., j], which `np.stack(step, axis=-1)` stacks.  Both
    give the same bits on the same point.
    """
    anchor = np.asarray(anchor, dtype=float)
    y = anchor if y is None else np.asarray(y, dtype=float)
    if anchor.shape == y.shape == (family.dim,):
        return family.point_kernel(_compile_point_steps)(anchor.tolist(), y.tolist(), taus)
    anchor, y = np.broadcast_arrays(anchor, y)
    return family.point_kernel(_compile_column_steps)(columns_of(anchor), columns_of(y), taus)


def _compile_point_steps(family: Family):
    """The generator steps(anchor, y, taus) of `anchored_steps` on one point,
    which yields every step as a list."""
    return _step_function(family, "def steps(anchor, y, taus):", "y", "    yield", False)


def _compile_column_steps(family: Family):
    """The generator column_steps(anchor, y, taus) of `anchored_steps` on a
    batch, which yields every step as the list of its columns."""
    return _step_function(family, "def column_steps(anchor, y, taus):", "y", "    yield", True)


def _compile_point_sweep(family: Family):
    """sweep(anchor, taus) of `apply_q_hat` on one point: the steps from
    y = anchor, of which it returns only the last, as a list."""
    return _step_function(family, "def sweep(anchor, taus):", "anchor", "return", False)


def _step_function(family: Family, head, start, end, columns):
    """The anchored steps, written as source for this family and compiled
    under the def line `head`, on a point's scalars or a batch's columns.

    anchor and `start` hold n floats or n columns.  The coordinates live in
    locals y0, y1, ..., set from `start`; each step runs every member's
    projection on them, from `sets.point_projection_source`, then
    y_j = tau*a_j + s*(w_0*m0_j + w_1*m1_j + ...) with s = 1 - tau; `end`
    hands out [y0, y1, ...], a yield in the loop or a return after it.
    These are the operations of `project_point` and of `weighted_projection`,
    in their order, so the steps keep their bits, and a batch row has the
    bits of its point.  Weights and set constants reach the code through
    `sets.compiled_function`, never as text, so every family of one shape
    (member kinds, count and n) shares its code.
    """
    n = family.dim
    a, y = [f"a{j}" for j in range(n)], [f"y{j}" for j in range(n)]
    consts, body, outs = {}, [], []
    for i, (w, s) in enumerate(zip(family._weight_list, family.sets)):
        k = f"m{i}_"
        out = [f"{k}{j}" for j in range(n)]
        lines, names = point_projection_source(s, y, out, k, columns)
        body += lines
        consts.update(names)
        consts[f"w{i}"] = w
        outs.append(out)
    steps = [
        f"{yj} = tau * {aj} + s * ({' + '.join(f'w{i} * {o[j]}' for i, o in enumerate(outs))})"
        for j, (aj, yj) in enumerate(zip(a, y))
    ]
    return compiled_function(head, consts, [
        f"{', '.join(a)}, = anchor",
        f"{', '.join(y)}, = {start}",
        "for tau in taus:",
        "    s = 1.0 - tau",
        *(f"    {line}" for line in body + steps),
        f"{end} [{', '.join(y)}]",
    ])


def _sweep_taus(family: Family, q: int) -> list:
    """tau_0, ..., tau_q as Python floats, from the schedule's kept list."""
    return family.schedule.taus(as_count(q, "q", 0) + 1)


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
    index restarts at 0 on every call.  One point runs as one call of the
    family's sweep kernel; a batch stacks only its last step.
    """
    taus = _sweep_taus(family, q)
    x = finite_points(x, family.dim)
    if x.ndim == 1:
        return np.asarray(family.point_kernel(_compile_point_sweep)(x.tolist(), taus))
    for y in anchored_steps(family, taus, x):
        pass
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
    any step.  Raises MaxIterExceeded (carrying the last iterate and gap)
    when the SHLWB_MAX_ITER budget runs out, which signals slow steering or an
    empty intersection.
    """
    as_positive(tol, "tol")
    anchor = finite_points(anchor, family.dim, "anchor")
    # tau_k is evaluated lazily, one scalar at a time: the budget is large and
    # most runs stop early.  One copy drives the steps, the other the stop test.
    taus, stop_taus = itertools.tee(map(family.schedule.tau, range(SHLWB_MAX_ITER)))
    x = anchor.tolist() if anchor.ndim == 1 else list(columns_of(anchor))
    distance = max_distance if anchor.ndim == 1 else column_distance
    gap = np.inf
    for tau, x_next in zip(stop_taus, anchored_steps(family, taus, anchor)):
        gap = distance(x_next, x)
        x = x_next
        if gap <= tol * tau:
            return np.stack(x, axis=-1)
    raise MaxIterExceeded(
        f"no convergence within {SHLWB_MAX_ITER} iterations (last gap {gap:.3e})",
        last=np.stack(x, axis=-1),
        gap=gap,
    )
