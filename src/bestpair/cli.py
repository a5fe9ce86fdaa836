"""Command-line front end: problem files, solver runs, reports.

Problem files are strict JSON: unknown keys anywhere are an error.  Top-level
schema:

    {
      "dimension": 2,
      "familyA": {"sets": [...], "weights": [...], "schedule": {"c":..,"k0":..,"p":..}},
      "familyB": {...},
      "options": {"max_sweeps":.., "pair_gap_tol":.., "fixed_point_tol":..,
                  "record_inner_steps": false},
      "seed": 0
    }

weights/schedule/options/seed are optional.  Set records are tagged:
{"type":"ball","center":[..],"radius":r}, {"type":"halfspace","normal":[..],
"offset":b}, {"type":"hyperplane",...}, {"type":"box","lo":[..],"hi":[..]},
{"type":"ellipsoid","center":[..],"axes":[..]}.  The bounding radius rho is
derived from the families.  All randomness flows from the file-level seed.

Exit codes: 0 success/Converged, 1 malformed command-line argument, parse
or validation error (a non-finite --x0 or --point, or an empty field in a
list of numbers, included), 2 MaxSweeps, 3 projection failure (iteration
budget exceeded, ellipsoid root-find or sampling failed), 4 solver
disagreement in `compare`.  Every failure prints one `error:` line on
stderr, except a failed validation in `check`, which its report holds in
`mandatory.validation.error`.  Commands run with numpy's floating-point
warnings off, so none of them reaches stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    EllipsoidRootFindError,
    MaxIterExceeded,
    MaxOuterExceeded,
    ProblemValidationError,
    SamplingFailure,
)
from .intersection import project_intersection
from .operators import SHLWB_DEFAULT_TOL, Family, SteeringSchedule, shlwb_project
from .oracles import (
    FIX_SET_OUTSIDE_MARGIN,
    brute_force_pair,
    dini_monotonicity_check,
    fix_set_audit,
    uniqueness_certificate,
)
from .sets import as_count, max_distance, row_norm, set_from_dict, set_to_dict
from .solver import (
    Problem,
    SolverOptions,
    extract_best_pair,
    run_ashlwb,
    run_cheney_goldstein,
    validate_problem,
)

_TOP_KEYS = {"dimension", "familyA", "familyB", "options", "seed"}
_FAMILY_KEYS = {f.name for f in fields(Family)}
_SCHEDULE_KEYS = {f.name for f in fields(SteeringSchedule)}
_OPTION_KEYS = {f.name for f in fields(SolverOptions)}
AGREEMENT_TOL = 1e-2


@dataclass
class ParsedProblem:
    problem: Problem


def _reject_unknown(record, allowed: set, where: str):
    """ValueError unless `record` is an object whose keys all lie in `allowed`."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object")
    for key in record:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")


def _parse_family(record, dimension: int, where: str) -> Family:
    _reject_unknown(record, _FAMILY_KEYS, where)
    records = record.get("sets")
    if not isinstance(records, list) or not records:
        raise ValueError(f"{where} needs a nonempty 'sets' list")
    sets = tuple(set_from_dict(r) for r in records)
    for s in sets:
        if s.dim != dimension:
            raise ValueError(f"{where} contains a set of dimension {s.dim}, expected {dimension}")
    weights = record.get("weights")
    sched = record.get("schedule")
    if sched is not None:
        _reject_unknown(sched, _SCHEDULE_KEYS, f"{where}.schedule")
        schedule = SteeringSchedule(**sched)
    else:
        schedule = SteeringSchedule()
    return Family(sets, weights, schedule)


def parse_problem(doc: dict) -> ParsedProblem:
    """Build a Problem from a decoded problem document (strict schema)."""
    if not isinstance(doc, dict):
        raise ValueError("problem file must contain a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "problem file")
    for key in ("dimension", "familyA", "familyB"):
        if key not in doc:
            raise ValueError(f"missing key {key!r} in problem file")
    dimension = as_count(doc["dimension"], "dimension", 1)
    fam_a = _parse_family(doc["familyA"], dimension, "familyA")
    fam_b = _parse_family(doc["familyB"], dimension, "familyB")
    opts_rec = doc.get("options", {})
    _reject_unknown(opts_rec, _OPTION_KEYS, "options")
    options = SolverOptions(**opts_rec)
    return ParsedProblem(Problem(fam_a, fam_b, options, doc.get("seed", 0)))


def serialize_problem(problem: Problem) -> dict:
    """Canonical key-ordered document for a problem (round-trip stable)."""

    def fam(f: Family):
        return {
            "sets": [set_to_dict(s) for s in f.sets],
            "weights": [float(w) for w in f.weights],
            "schedule": asdict(f.schedule),
        }

    return {
        "dimension": problem.dim,
        "familyA": fam(problem.family_a),
        "familyB": fam(problem.family_b),
        "options": asdict(problem.options),
        "seed": problem.seed,
    }


def load_problem(path: str) -> ParsedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return parse_problem(doc)


def _parse_point(text: str, option: str):
    """Coordinates of a comma-separated point; ValueError naming the option on
    an empty field, a non-number, NaN or an infinity."""
    try:
        point = np.array([float(t) for t in text.split(",")])
        if np.isfinite(point).all():
            return point
    except ValueError:
        pass
    raise ValueError(f"{option} must be comma-separated finite numbers, got {text!r}")


def _schedule_arg(text: str) -> SteeringSchedule:
    """The --schedule value 'c,k0,p'; argparse names the option in any error."""
    try:
        c, k0, p = map(float, text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected three numbers 'c,k0,p', got {text!r}") from exc
    try:
        return SteeringSchedule(c=c, k0=k0, p=p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _with_overrides(problem: Problem, args) -> Problem:
    """The problem with the command's --max-sweeps and --schedule, where it
    has them and they are given."""
    if getattr(args, "max_sweeps", None) is not None:
        options = dataclasses.replace(problem.options, max_sweeps=args.max_sweeps)
        problem = dataclasses.replace(problem, options=options)
    if args.schedule is not None:
        problem = dataclasses.replace(
            problem,
            family_a=dataclasses.replace(problem.family_a, schedule=args.schedule),
            family_b=dataclasses.replace(problem.family_b, schedule=args.schedule),
        )
    return problem


def _write_trace_csv(path: str, trace, dim: int):
    header = "k,phase,sweep,gap," + ",".join(f"coord_{d}" for d in range(dim))
    lines = [header]

    def row(k, phase, sweep, gap, x):
        return f"{k},{phase},{sweep},{gap!r},{','.join(map(repr, x.tolist()))}"

    prev = trace.x0
    for e in trace.entries:
        if e.inner is not None:
            base = prev
            for step in e.inner:
                lines.append(row(e.k, f"{e.phase}-inner", e.sweep, max_distance(step, base), step))
                base = step
        lines.append(row(e.k, e.phase, e.sweep, e.gap, e.x))
        prev = e.x
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_run(problem: Problem, args) -> int:
    problem = _with_overrides(problem, args)
    x0 = None if args.x0 is None else _parse_point(args.x0, "--x0")
    trace = run_ashlwb(problem, x0)
    pair = extract_best_pair(trace, problem)
    out = args.out or "trace"
    _write_trace_csv(out + ".csv", trace, problem.dim)
    summary = {
        "pair": pair.to_dict(),
        "gap": pair.gap,
        "terminal": trace.terminal,
        "sweeps": trace.sweeps,
        "x0_projected": trace.x0_projected,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    with open(out + ".json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if trace.terminal == "Converged" else 2


def cmd_project(problem: Problem, args) -> int:
    problem = _with_overrides(problem, args)
    fam = problem.family_a if args.family == "A" else problem.family_b
    point = _parse_point(args.point, "--point")
    try:
        y = shlwb_project(fam, point, tol=args.tol)
    except MaxIterExceeded as exc:
        # the schedule, not the stop rule, is the usual cause: name it, and
        # how far the last iterate is from the answer
        off = max_distance(exc.last, project_intersection(fam, point))
        s = fam.schedule
        raise MaxIterExceeded(
            f"{exc}; with schedule c={s.c:g}, k0={s.k0:g}, p={s.p:g} the last iterate "
            f"lies {off:.3e} from the reference projection",
            last=exc.last, gap=exc.gap,
        ) from exc
    residuals = [float(v) for v in fam.member_distances(y)]
    print(json.dumps({"point": [float(v) for v in y], "member_residuals": residuals}, indent=2))
    return 0


def cmd_check(problem: Problem, args) -> int:
    report = {"mandatory": {}, "advisory": {}}
    try:
        vrep = validate_problem(problem)
    except (ProblemValidationError, MaxIterExceeded, MaxOuterExceeded) as exc:
        report["mandatory"]["validation"] = {"passed": False, "error": str(exc)}
    else:
        report["mandatory"]["validation"] = {
            "passed": True,
            "distance_estimate": vrep.distance,
            "feasibility_a": vrep.feasibility_a,
            "feasibility_b": vrep.feasibility_b,
            "rho": problem.rho,
        }
        cert = uniqueness_certificate(problem)
        report["advisory"]["uniqueness"] = cert.to_dict()
        grid = _check_grid(problem.dim, problem.rho)
        for label, fam in (("A", problem.family_a), ("B", problem.family_b)):
            report["advisory"][f"dini_{label}"] = dini_monotonicity_check(fam, grid, 50).to_dict()
            report["advisory"][f"fix_set_{label}"] = _fix_set_for(fam, problem.rho).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["mandatory"]["validation"]["passed"] else 1


def _check_grid(dim: int, rho: float):
    """625 points of the 5^dim grid on [-rho, rho]^dim inside B[0, rho], spread over it.

    The grid itself is never built.  The candidates are the index vectors i
    in {0..4}^dim with sum_d (i_d - 2)^2 <= 4, built in C order one
    coordinate at a time: grid point i lies about (rho/2) * sqrt(sum_d
    (i_d - 2)^2) from the origin, so any other point lies at least 1.1 rho
    out.  Every candidate takes the ball test with `sets.row_norm`, in
    chunks of 625 rows; it rounds each row as it would on the whole grid.
    When at most 625 pass (dim <= 6), all are kept in C order.  Otherwise
    the kept positions are spread evenly over the N that pass and closed
    under j -> N-1-j, which maps a grid point to its negation; the first
    625 in C order would all have x_0 <= 0.
    """
    axis = np.linspace(-rho, rho, 5)
    idx, budget = np.zeros((1, 0), dtype=np.int8), np.array([4])
    for _ in range(dim):
        rows, i = np.nonzero((np.arange(5) - 2) ** 2 <= budget[:, None])  # keeps C order
        idx = np.column_stack([idx[rows], i.astype(np.int8)])
        budget = budget[rows] - (i - 2) ** 2
    idx = np.concatenate([
        chunk[row_norm(axis[chunk]) <= rho]
        for chunk in np.split(idx, range(625, len(idx), 625))
    ])
    n = len(idx)
    if n > 625:
        half = [k * (n - 1) // 624 for k in range(312)]
        idx = idx[half + [(n - 1) // 2] + [n - 1 - j for j in reversed(half)]]
    return axis[idx]


def _fix_set_for(fam: Family, rho: float):
    seeds = np.zeros((2, fam.dim))
    seeds[1, 0] = rho / 2.0
    inside = project_intersection(fam, seeds)
    # every bounded member lies in B[0, rho], so each outside point is at least
    # 2 * FIX_SET_OUTSIDE_MARGIN from one, however small rho is
    far = max(1.05 * rho, rho + 2 * FIX_SET_OUTSIDE_MARGIN)
    outside = np.zeros((2, fam.dim))
    outside[0, 0] = far
    outside[1, -1] = -far
    return fix_set_audit(fam, 3, inside, outside)


def cmd_oracle(problem: Problem, args) -> int:
    result = brute_force_pair(problem, args.resolution)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_compare(problem: Problem, args) -> int:
    problem = _with_overrides(problem, args)
    validate_problem(problem)
    # the oracle rejects a high dimension or a bad resolution before any solve
    oracle = brute_force_pair(problem, args.resolution)
    trace = run_ashlwb(problem)
    sweep_pair = extract_best_pair(trace, problem)
    baseline = run_cheney_goldstein(problem)
    rows = [
        ("a-s-hlwb", sweep_pair.gap, max(sweep_pair.residuals), sweep_pair.iterations),
        ("cheney-goldstein", baseline.gap, max(baseline.residuals), baseline.iterations),
        ("grid-oracle", oracle.gap, 0.0, None),
    ]
    print(f"{'method':<18}{'gap':<24}{'max residual':<16}iterations")
    for name, gap, resid, iters in rows:
        print(f"{name:<18}{gap:<24.12f}{resid:<16.3e}{iters if iters is not None else '-'}")
    gaps = [r[1] for r in rows]
    agree = max(gaps) - min(gaps) <= AGREEMENT_TOL
    bound = np.format_float_scientific(AGREEMENT_TOL, trim="-", exp_digits=1)
    print(f"agreement within {bound}: {agree}")
    return 0 if agree else 4


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as ValueError, which `main` turns into exit 1;
    argparse's own exit 2 is the documented MaxSweeps code."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser():
    """The command-line parser, built on the first `main` call and kept."""
    ap = _ArgumentParser(
        prog="bestpair",
        description="Best approximation pair between two disjoint intersections of convex sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the alternating sweep solver")
    run.add_argument("problem")
    run.add_argument("--x0", default=None, help="comma-separated start point (default origin)")
    run.add_argument("--out", default=None, help="output prefix for .csv/.json (default 'trace')")
    run.set_defaults(func=cmd_run)

    proj = sub.add_parser("project", help="project a point onto one family's intersection")
    proj.add_argument("problem")
    proj.add_argument("--family", choices=("A", "B"), required=True)
    proj.add_argument("--point", required=True, help="comma-separated coordinates")
    proj.add_argument("--tol", type=float, default=SHLWB_DEFAULT_TOL)
    proj.set_defaults(func=cmd_project)

    chk = sub.add_parser("check", help="validate a problem and run advisory diagnostics")
    chk.add_argument("problem")
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="brute-force ground-truth pair")
    orc.add_argument("problem")
    orc.add_argument("--resolution", type=float, default=0.01)
    orc.set_defaults(func=cmd_oracle)

    cmp_ = sub.add_parser("compare", help="compare solver, baseline and oracle")
    cmp_.add_argument("problem")
    cmp_.add_argument("--resolution", type=float, default=0.01)
    cmp_.set_defaults(func=cmd_compare)

    # the overrides `_with_overrides` applies
    for solve in (run, cmp_):
        solve.add_argument("--max-sweeps", type=int, default=None, dest="max_sweeps")
    for solve in (run, cmp_, proj):
        solve.add_argument("--schedule", type=_schedule_arg, default=None,
                           help="override both schedules as 'c,k0,p'")
    return ap


def main(argv=None) -> int:
    # usage errors, DimensionMismatch and ProblemValidationError are ValueErrors;
    # numpy's floating-point warnings are off, since the library's own checks
    # name every failure in one `error:` line
    try:
        with np.errstate(all="ignore"):
            args = _build_parser().parse_args(argv)
            return args.func(load_problem(args.problem).problem, args)
    except (ValueError, TypeError, OSError, MaxOuterExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxIterExceeded, EllipsoidRootFindError, SamplingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
