"""Inputs, operations and correctness checks of the three benchmark workloads.

Every workload is a list of inputs. One operation (op) runs the program once
on one input; the benchmark runs the inputs in rounds, each round being every
input once in a seeded order. The generated inputs depend only on the seed.

- desk: `bestpair run` (in-process `cli.main`) on the three shipped problems.
- ellipsoid: `bestpair run` on generated ellipsoid-and-half-space problems.
- batch: `oracles.dini_monotonicity_check` on thousands of anchors at once.

References are computed once per run, untimed, with an independent method.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from bestpair import cli, oracles, solver
from bestpair.intersection import project_intersection
from bestpair.operators import Family, SteeringSchedule, apply_q_hat
from bestpair.sets import Ball, HalfSpace, Hyperplane

WORKLOADS = ("desk", "ellipsoid", "batch")
DESK_FILES = ("two_balls", "lens", "boxes")

# Problems whose best pair is not unique: boxes touches B along a whole edge
# ({(1, y), (3, y) : 0 <= y <= 1}), so the solver and the baseline may
# legitimately return different pairs.
NON_UNIQUE_PAIR = {"boxes"}

ELLIPSOID_DIM = 20
ELLIPSOID_TOL = 3e-3
ELLIPSOID_TIP_AXIS = 2.0
ELLIPSOID_SEPARATION = 7.0
SCHEDULE = {"c": 0.004, "k0": 2.0, "p": 1.0}

BATCH_DIM = 10
BATCH_RADIUS = 2.0
BATCH_SAMPLED_ROWS = 8
ROW_MATCH_TOL = 1e-12

# Workload sizes: "full" is what the benchmark measures, "tiny" is for the
# self-test.
SIZES = {
    "full": {"desk_files": DESK_FILES, "ellipsoid_problems": 4,
             "batch_anchors": 2000, "batch_K": 100},
    "tiny": {"desk_files": ("two_balls",), "ellipsoid_problems": 1,
             "batch_anchors": 64, "batch_K": 10},
}


@dataclass
class Input:
    """One input of a workload; `ref` is filled in by `compute_references`."""

    label: str
    path: str | None = None  # problem file, for the solve workloads
    problem: object = None  # bestpair Problem, for the solve workloads
    family: Family | None = None  # for batch
    anchors: np.ndarray | None = None  # for batch
    rows: np.ndarray | None = None  # sampled anchor rows checked in batch
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: list
    workdir: str
    K: int = 0  # sweeps per Dini check, for batch

    @property
    def solves(self) -> bool:
        return self.name != "batch"


# ---------------------------------------------------------------- generation


def ellipsoid_document(rng, seed: int) -> dict:
    """A problem with two ellipsoid-and-half-space families in dimension 20.

    Both ellipsoids have semi-axis 2 along coordinate 0 and centres 7 apart
    along it, so the best pair is the facing tips, 3 apart. The other axes
    and a small tilt of each half-space are random. Each half-space cuts away
    the far side of its ellipsoid, so it is inactive at the pair: a half-space
    facing the other family puts the pair on a rim and the solver ends in
    MaxSweeps.
    """
    n = ELLIPSOID_DIM
    center_a = rng.normal(0.0, 0.3, n)
    center_b = center_a.copy()
    center_b[0] += ELLIPSOID_SEPARATION

    def family(center, toward):
        axes = rng.uniform(1.0, 2.0, n)
        axes[0] = ELLIPSOID_TIP_AXIS
        normal = np.zeros(n)
        normal[0] = -toward
        normal[1:] = rng.normal(0.0, 0.1, n - 1)
        normal /= np.linalg.norm(normal)
        return {
            "sets": [
                {"type": "ellipsoid", "center": center.tolist(), "axes": axes.tolist()},
                {"type": "halfspace", "normal": normal.tolist(),
                 "offset": float(normal @ center) + 1.0},
            ],
            "schedule": dict(SCHEDULE),
        }

    return {
        "dimension": n,
        "familyA": family(center_a, 1.0),
        "familyB": family(center_b, -1.0),
        "options": {"max_sweeps": 200, "pair_gap_tol": ELLIPSOID_TOL,
                    "fixed_point_tol": ELLIPSOID_TOL},
        "seed": seed,
    }


def batch_family(rng) -> Family:
    """Ball, half-space and hyperplane in dimension 10.

    The hyperplane passes through the ball's centre, and the half-space's
    boundary lies 0.5 from the centre with its normal 60 degrees from the
    hyperplane's. Only the centre and the orientation are random:

    - the cost of the Dykstra reference projection depends on the angles
      between the sets;
    - with the hyperplane 0.5 off the centre, the Dini audit finds residuals
      that rise over a few sweeps (by up to 1.7e-6, at one anchor in 2000)
      on 3 seeds of 40, and so does not pass.
    """
    n = BATCH_DIM
    center = rng.normal(0.0, 0.5, n)
    frame, _ = np.linalg.qr(rng.normal(size=(n, 2)))
    h = frame[:, 0]  # hyperplane normal
    g = 0.5 * h + np.sqrt(0.75) * frame[:, 1]  # half-space normal, 60 degrees from h
    sets = (
        Ball(center, BATCH_RADIUS),
        HalfSpace(g, float(g @ center) + 0.5),
        Hyperplane(h, float(h @ center)),
    )
    return Family(sets, schedule=SteeringSchedule(**SCHEDULE))


def uniform_ball(rng, count: int, center: np.ndarray, radius: float) -> np.ndarray:
    """`count` points drawn uniformly from a ball."""
    dim = center.size
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return center + g * (radius * rng.random(count) ** (1.0 / dim))[:, None]


def setup(name: str, root: str, workdir: str, seed: int, size: str = "full") -> Workload:
    """Generate or load the inputs of a workload (the work `setup_s` times)."""
    spec = SIZES[size]
    problems = os.path.join(root, "problems")
    rng = np.random.default_rng(seed)
    if name == "desk":
        inputs = []
        for label in spec["desk_files"]:
            path = os.path.join(problems, label + ".json")
            inputs.append(Input(label, path=path, problem=cli.load_problem(path).problem))
        return Workload(name, inputs, workdir)
    if name == "ellipsoid":
        inputs = []
        for i in range(spec["ellipsoid_problems"]):
            path = os.path.join(workdir, f"ellipsoid-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ellipsoid_document(rng, seed), fh)
            inputs.append(Input(f"ellipsoid-{i:02d}", path=path,
                                problem=cli.load_problem(path).problem))
        return Workload(name, inputs, workdir)
    if name == "batch":
        count = spec["batch_anchors"]
        families = []  # (label, family, centre and radius of the anchor ball)
        for label in ("lens", "boxes"):
            p = cli.load_problem(os.path.join(problems, label + ".json")).problem
            origin = np.zeros(p.dim)
            families += [(label + "-A", p.family_a, origin, p.rho),
                         (label + "-B", p.family_b, origin, p.rho)]
        fam = batch_family(rng)
        # anchors centred on the ball, so that they too are the same up to rotation
        families.append(("ball-halfspace-hyperplane", fam, fam.sets[0].center,
                         2.0 * BATCH_RADIUS))
        inputs = []
        for label, fam, center, radius in families:
            anchors = uniform_ball(rng, count, center, radius)
            rows = np.sort(rng.choice(count, size=min(BATCH_SAMPLED_ROWS, count), replace=False))
            inputs.append(Input(label, family=fam, anchors=anchors, rows=rows))
        return Workload(name, inputs, workdir, K=spec["batch_K"])
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- references


def compute_references(wl: Workload):
    """Fill each input's `ref` from a method independent of the one timed."""
    for inp in wl.inputs:
        if wl.name == "batch":
            inp.ref["rows"] = np.stack(
                [apply_q_hat(inp.family, wl.K, inp.anchors[i]) for i in inp.rows]
            )
            continue
        p = inp.problem
        inp.ref["tol"] = p.options.pair_gap_tol
        if inp.label == "two_balls":
            pair = oracles.analytic_two_ball_pair(p)
            inp.ref.update(a=pair.pair[0], b=pair.pair[1], gap=pair.gap, method="analytic")
        else:
            pair = solver.run_cheney_goldstein(p)
            inp.ref.update(a=pair.a, b=pair.b, gap=pair.gap, method="cheney-goldstein")


# ---------------------------------------------------------------- operations


class PathCapture:
    """Keeps the last `q_hat_path` result so a batch op's rows can be checked.

    Installed on `bestpair.oracles` for the whole run, traced or not, so both
    runs execute the same code; it adds one Python call per Dini check.
    """

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


def run_op(wl: Workload, inp: Input):
    """Run one op on `inp` and return its raw output (not yet checked)."""
    if wl.solves:
        out = os.path.join(wl.workdir, "op")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", inp.path, "--out", out])
        return {"rc": rc, "out": out}
    return {"report": oracles.dini_monotonicity_check(inp.family, inp.anchors, wl.K)}


def check_op(wl: Workload, inp: Input, raw: dict, capture: PathCapture | None = None):
    """Check an op's output against the reference.

    Returns (record, error): the record holds what two commits should agree
    on, and error is None when the op is correct, else the reason it is not.
    """
    if not wl.solves:
        return check_batch(inp, raw["report"], capture.last[-1])
    summary_path = raw["out"] + ".json"
    if not os.path.exists(summary_path):
        return {"rc": raw["rc"], "err": math.inf}, f"exit code {raw['rc']}, no output written"
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    # removed so that a later op that writes nothing cannot pass on this output
    for ext in (".json", ".csv"):
        os.remove(raw["out"] + ext)
    return check_solve(inp, raw["rc"], summary)


def check_solve(inp: Input, rc: int, summary: dict):
    ref = inp.ref
    a = np.asarray(summary["pair"]["a"])
    b = np.asarray(summary["pair"]["b"])
    p = inp.problem
    if inp.label in NON_UNIQUE_PAIR:
        # any best pair will do: a and b must be mutual projections
        err = max(
            float(np.linalg.norm(a - project_intersection(p.family_a, b))),
            float(np.linalg.norm(b - project_intersection(p.family_b, a))),
        )
        gap_ok = abs(summary["gap"] - ref["gap"]) <= 2.0 * ref["tol"]
    else:
        err = max(float(np.linalg.norm(a - ref["a"])), float(np.linalg.norm(b - ref["b"])))
        gap_ok = True
    record = {"terminal": summary["terminal"], "sweeps": summary["sweeps"],
              "gap": summary["gap"], "err": err}
    if rc != 0 or summary["terminal"] != "Converged":
        return record, f"exit code {rc}, terminal {summary['terminal']}"
    if not err <= ref["tol"]:
        return record, f"pair error {err:.3e} over tolerance {ref['tol']:.1e} ({ref['method']})"
    if not gap_ok:
        return record, f"gap {summary['gap']!r} differs from {ref['gap']!r} by over 2*tol"
    return record, None


def check_batch(inp: Input, report, final_sweep: np.ndarray):
    row_err = float(np.max(np.abs(final_sweep[inp.rows] - inp.ref["rows"])))
    record = {"passed": report.passed, "final_sup": report.final_sup,
              "max_violation": report.max_violation, "row_err": row_err,
              "err": report.final_sup}
    if not report.passed:
        return record, f"{len(report.violations)} monotonicity violations"
    if not row_err <= ROW_MATCH_TOL:
        return record, f"sampled rows differ from solo apply_q_hat by {row_err:.3e}"
    return record, None

