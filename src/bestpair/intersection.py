"""Reference projection onto an intersection of convex sets.

Dykstra's cyclic scheme with correction terms converges to the exact metric
projection onto the intersection, and does so geometrically for the set
variants shipped here.  It serves as the high-accuracy reference everywhere a
projection onto an intersection is needed at tolerances the anchored
iteration cannot reach in reasonable time (its residual decays like tau_k).
"""

from __future__ import annotations

import numpy as np

from .errors import MaxIterExceeded
from .sets import max_distance

# The one accuracy of the reference projection: the solver's stop test, pair
# residuals and validation, and the oracles all run at this value.
REFERENCE_TOL = 1e-9
REFERENCE_MAX_ITER = 50_000


def project_intersection(family_or_sets, x, tol: float = REFERENCE_TOL,
                         max_iter: int = REFERENCE_MAX_ITER):
    """Project x onto the intersection of the given sets.

    Accepts a Family or a plain sequence of set descriptors, and a point of
    shape (n,) or a batch (..., n); the result is an array of the same shape.
    A single point runs as a list of floats through the members'
    `project_point`, with the increments, gap and feasibility test of the
    batch path on lists.  Stops when the per-cycle displacement and the worst
    member distance both fall below tol.  A single-member family
    short-circuits to the member's exact projection.  A non-finite x is
    rejected with ValueError before any cycle.
    """
    sets = list(getattr(family_or_sets, "sets", family_or_sets))
    if not sets:
        raise ValueError("empty set list")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must have finite coordinates")
    if len(sets) == 1:
        return sets[0].project(x)

    if x.shape == (sets[0].dim,):
        projections = [s.project_point for s in sets]
        y = x.tolist()
        zero = [0.0] * len(y)

        def subtract(u, v):
            return [a - b for a, b in zip(u, v)]
    else:
        projections = [s.project for s in sets]
        y = x
        zero = np.zeros_like(y)
        subtract = np.subtract
    # no increment is changed in place, so they can start as one object
    incs = [zero] * len(sets)
    gap = np.inf
    for _ in range(max_iter):
        y_prev = y
        for i, project in enumerate(projections):
            z = subtract(y, incs[i])
            y = project(z)
            incs[i] = subtract(y, z)
        gap = max_distance(y, y_prev)
        if gap <= tol:
            feas = max(max_distance(y, project(y)) for project in projections)
            if feas <= tol:
                return np.asarray(y)
    raise MaxIterExceeded(
        f"reference projection did not converge in {max_iter} cycles "
        f"(last gap {gap:.3e}); the intersection may be empty",
        last=np.asarray(y),
        gap=gap,
    )
