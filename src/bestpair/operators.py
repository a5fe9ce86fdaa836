"""Anchored simultaneous-projection operators and steering schedules.

The core operator is M[d](x) = tau*d + (1-tau)*sum_l w_l P_l(x) over a family
of convex sets.  Products of these operators with a fixed anchor, applied with
a vanishing steering sequence, converge to the metric projection of the anchor
onto the family's intersection; `shlwb_project` runs that iteration directly.
Every anchored step, here and in the solver, runs in `anchored_steps`.

A single point runs in its family's point kernel: straight-line Python
source written for the family's members, weights and dimension, compiled on
the family's first point step and kept.  It holds the coordinates in
scalar locals, inlines each ball, box, half-space and hyperplane from the
member's `point_source`, and calls any other member's `project_point`.
`point_source` is the one point form of those four kinds: their
`project_point` runs the same source, and `sets.compiled_function` compiles
both (see `sets`).  The kernel does the IEEE operations of the numpy forms
in the same order, so the results keep their bits; so does the list stop
test of `shlwb_project`, whose norm `square_sum_source` writes out.
Batches of shape (..., n) run on arrays.  The public functions take and
return arrays, and check their points with `sets.finite_points`.
`Family.contains` is the one membership test of an intersection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded
from .sets import (
    CONTAINS_TOL, Ball, Box, HalfSpace, Hyperplane, as_count, as_number, as_positive,
    as_vector, compiled_function, finite_points, max_distance, row_norm,
)

SHLWB_DEFAULT_TOL = 1e-4
SHLWB_MAX_ITER = 200_000

# the kinds whose `point_source` the point kernel inlines; a subclass may
# change `project_point`, so the kernel calls it like any other member's
_INLINED = (Ball, Box, HalfSpace, Hyperplane)


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

    def tau(self, k):
        """tau_k for an integer index or an array of indices."""
        return self.c / (k + self.k0) ** self.p


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
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weight_list", w.tolist())

    @property
    def dim(self):
        return self.sets[0].dim

    def weighted_projection(self, x):
        """sum_l w_l P_l(x) for x of shape (n,) or (..., n), accumulated in
        index order through the members' `project`.  A single point's steps
        run in the point kernel, which writes this sum out inline."""
        x = np.asarray(x, dtype=float)
        weights = self._weight_list
        acc = weights[0] * self.sets[0].project(x)
        for w, s in zip(weights[1:], self.sets[1:]):
            acc += w * s.project(x)
        return acc

    @cached_property
    def _point_steps(self):
        """The point kernel of `anchored_steps`, compiled on its first use."""
        return _compile_point_steps(self)

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
    """Yield y <- tau*anchor + (1-tau)*sum_l w_l P_l(y), once for each tau.

    The iteration starts from y = anchor unless a start is given.  This is
    the one place the anchored step is written: the single step, the sweeps,
    the sweep path and the anchored projection all run it.  Arguments are not
    checked; `taus` is any iterable of floats, read one step at a time.

    When anchor and y both have shape (n,), the steps run in the family's
    point kernel (see `_compile_point_steps`) and each yields a list of
    floats.  Otherwise the two broadcast, and each step yields an array from
    `family.weighted_projection`.  Both give the same bits on the same point,
    except that `x @ normal` may round a batch row differently (see `sets`).
    """
    anchor = np.asarray(anchor, dtype=float)
    y = anchor if y is None else np.asarray(y, dtype=float)
    if anchor.shape == y.shape == (family.dim,):
        yield from family._point_steps(anchor.tolist(), y.tolist(), taus)
        return
    for tau in taus:
        y = tau * anchor + (1.0 - tau) * family.weighted_projection(y)
        yield y


def _compile_point_steps(family: Family):
    """The generator function steps(anchor, y, taus) of `anchored_steps` on
    one point, written as source for this family and compiled.

    anchor and y are lists of n floats.  The coordinates live in locals
    y0, y1, ...; each step runs every member's projection on them, then
    y_j = tau*a_j + s*(w_0*m0_j + w_1*m1_j + ...) with s = 1 - tau, and
    yields [y0, y1, ...].  A member whose type is exactly Ball, Box,
    HalfSpace or Hyperplane is inlined from its `point_source`; any other
    member's `project_point` is called on the list of the coordinates.  These
    are the operations of `project_point` and of `weighted_projection`, in
    their order, so the steps keep their bits.  Weights and set constants
    reach the code through `sets.compiled_function`, never as text, so
    every family of one shape (member kinds, count and n) shares its code.
    """
    n = family.dim
    a, y = [f"a{j}" for j in range(n)], [f"y{j}" for j in range(n)]
    consts, body, outs = {}, [], []
    for i, (w, s) in enumerate(zip(family._weight_list, family.sets)):
        k = f"m{i}_"
        out = [f"{k}{j}" for j in range(n)]
        if type(s) in _INLINED:
            lines, names = s.point_source(y, out, k)
        else:
            lines = [f"{', '.join(out)}, = {k}project([{', '.join(y)}])"]
            names = {f"{k}project": s.project_point}
        body += lines
        consts.update(names)
        consts[f"w{i}"] = w
        outs.append(out)
    steps = [
        f"{yj} = tau * {aj} + s * ({' + '.join(f'w{i} * {o[j]}' for i, o in enumerate(outs))})"
        for j, (aj, yj) in enumerate(zip(a, y))
    ]
    return compiled_function("def steps(anchor, y, taus):", consts, [
        f"{', '.join(a)}, = anchor",
        f"{', '.join(y)}, = y",
        "for tau in taus:",
        "    s = 1.0 - tau",
        *(f"    {line}" for line in body + steps),
        f"    yield [{', '.join(y)}]",
    ])


def _sweep_taus(family: Family, q: int) -> list:
    """tau_0, ..., tau_q as Python floats, evaluated as one array."""
    return family.schedule.tau(np.arange(as_count(q, "q", 0) + 1)).tolist()


def apply_m(family: Family, tau: float, anchor, x):
    """One anchored step: tau*anchor + (1-tau)*weighted projection of x."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    anchor = finite_points(anchor, family.dim, "anchor")
    x = finite_points(x, family.dim)
    return np.asarray(next(anchored_steps(family, (tau,), anchor, x)))


def apply_m_hat(family: Family, tau: float, x):
    """Self-anchored step: apply_m with anchor = x."""
    x = finite_points(x, family.dim)
    return apply_m(family, tau, x, x)


def apply_q_hat(family: Family, q: int, x):
    """Anchored sweep of q+1 steps; the last row of `q_hat_path`.

    The anchor is the original input at every inner step and the steering
    index restarts at 0 on every call.
    """
    taus = _sweep_taus(family, q)
    x = finite_points(x, family.dim)
    for y in anchored_steps(family, taus, x):
        pass
    return np.asarray(y)


def q_hat_path(family: Family, q: int, x):
    """All sweep outputs [Q_0(x), ..., Q_q(x)] in one pass, shape (q+1, ..., n).

    Successive sweep outputs share their prefix because the anchor is fixed,
    so the whole path costs the same as the longest single sweep.
    """
    taus = _sweep_taus(family, q)
    x = finite_points(x, family.dim)
    out = np.empty((q + 1,) + x.shape)
    for t, y in enumerate(anchored_steps(family, taus, x)):
        out[t] = y
    return out


def shlwb_project(family: Family, anchor, tol: float = SHLWB_DEFAULT_TOL):
    """Approximate the projection of `anchor` onto the family's intersection.

    Runs x_{k+1} = tau_k*anchor + (1-tau_k)*sum_l w_l P_l(x_k) from
    x_0 = anchor until ||x_{k+1} - x_k|| <= tol*tau_k.  The stop test is
    scaled by tau_k because the per-step displacement of an anchored iteration
    is Theta(tau_k) even at the limit, so an unscaled gap test would stall.

    Accepts a batch of anchors of shape (..., n); the stop test then uses the
    largest row gap.  A non-finite anchor, or a tol that is not positive and
    finite, is rejected with ValueError before any step.  Raises
    MaxIterExceeded (carrying the last iterate and gap) when the
    SHLWB_MAX_ITER budget runs out, which signals slow steering or an empty
    intersection.
    """
    as_positive(tol, "tol")
    anchor = finite_points(anchor, family.dim, "anchor")
    # tau_k is evaluated lazily, one scalar at a time: the budget is large and
    # most runs stop early.  One copy drives the steps, the other the stop test.
    taus, stop_taus = itertools.tee(map(family.schedule.tau, range(SHLWB_MAX_ITER)))
    x = anchor.tolist() if anchor.ndim == 1 else anchor
    gap = np.inf
    for tau, x_next in zip(stop_taus, anchored_steps(family, taus, anchor)):
        gap = max_distance(x_next, x)
        x = x_next
        if gap <= tol * tau:
            return np.asarray(x)
    raise MaxIterExceeded(
        f"no convergence within {SHLWB_MAX_ITER} iterations (last gap {gap:.3e})",
        last=np.asarray(x),
        gap=gap,
    )
