import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestpair import (
    EllipsoidRootFindError, MaxIterExceeded, SamplingFailure, cli, project_intersection, run_ashlwb,
    solver,
)
from bestpair.cli import load_problem, main, parse_problem, serialize_problem
from bestpair.operators import SHLWB_DEFAULT_TOL

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
TWO_BALLS = str(PROBLEMS / "two_balls.json")
LENS = str(PROBLEMS / "lens.json")
BOXES = str(PROBLEMS / "boxes.json")


def write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def two_ball_doc():
    sched = {"c": 0.004, "k0": 2.0, "p": 1.0}
    return {
        "dimension": 2,
        "familyA": {
            "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0}],
            "schedule": dict(sched),
        },
        "familyB": {
            "sets": [{"type": "ball", "center": [4.0, 0.0], "radius": 1.0}],
            "schedule": dict(sched),
        },
    }


# --- parsing ---------------------------------------------------------------------


def test_load_two_ball_file():
    parsed = load_problem(TWO_BALLS)
    assert parsed.problem.dim == 2
    assert parsed.problem.rho == pytest.approx(5.0)


def test_lens_rho_derived():
    parsed = load_problem(LENS)
    assert parsed.problem.rho == pytest.approx(8.0)


def test_unknown_top_level_key(tmp_path):
    doc = two_ball_doc()
    doc["rho"] = 5.0
    path = write(tmp_path, "p.json", doc)
    with pytest.raises(ValueError, match="unknown key 'rho'"):
        load_problem(path)


def test_unknown_set_key(tmp_path):
    doc = two_ball_doc()
    doc["familyA"]["sets"][0]["color"] = "red"
    path = write(tmp_path, "p.json", doc)
    with pytest.raises(ValueError, match="unknown key 'color'"):
        load_problem(path)


def test_malformed_json_reports_position(tmp_path):
    path = write(tmp_path, "p.json", '{"dimension": 2,\n  "familyA": }')
    with pytest.raises(ValueError, match="line 2"):
        load_problem(path)


def assert_round_trip(doc1):
    parsed2 = parse_problem(doc1)
    doc2 = serialize_problem(parsed2.problem)
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert list(doc1) == list(doc2)  # canonical key order preserved


def test_round_trip_is_idempotent():
    assert_round_trip(serialize_problem(load_problem(TWO_BALLS).problem))


POS = st.floats(0.5, 3.0)
OFFSET = st.floats(-3.0, 3.0)


@st.composite
def all_kinds_document(draw):
    """A 2-D problem whose families hold all five set kinds between them,
    with explicit weights, a schedule and all four options.  Every member
    contains its family's centre (cx, 0), so each intersection is nonempty,
    and the two centres are 10 apart."""

    def family(cx, kinds):
        def record(kind):
            if kind == "ball":
                return {"type": "ball", "center": [cx, draw(st.floats(-0.5, 0.5))],
                        "radius": draw(POS)}
            if kind == "ellipsoid":
                return {"type": "ellipsoid", "center": [cx, 0.0],
                        "axes": [draw(POS), draw(POS)]}
            if kind == "box":
                return {"type": "box", "lo": [cx - draw(POS), -draw(POS)],
                        "hi": [cx + draw(POS), draw(POS)]}
            normal = [draw(st.floats(0.1, 2.0)), draw(OFFSET)]
            # the hyperplane passes through the centre, the half-space beyond it
            offset = normal[0] * cx + (draw(POS) if kind == "halfspace" else 0.0)
            return {"type": kind, "normal": normal, "offset": offset}

        mass = [draw(st.floats(1.0, 10.0)) for _ in kinds]
        return {
            "sets": [record(kind) for kind in kinds],
            "weights": [m / sum(mass) for m in mass],
            "schedule": {"c": draw(st.floats(0.001, 0.9)), "k0": draw(st.floats(1.0, 5.0)),
                         "p": draw(st.floats(0.5, 1.0))},
        }

    return {
        "dimension": 2,
        "familyA": family(-5.0, ["ball", "halfspace", "hyperplane"]),
        "familyB": family(5.0, ["box", "ellipsoid"]),
        "options": {"max_sweeps": draw(st.integers(1, 1000)),
                    "pair_gap_tol": draw(st.floats(1e-8, 1e-2)),
                    "fixed_point_tol": draw(st.floats(1e-8, 1e-2)),
                    "record_inner_steps": draw(st.booleans())},
        "seed": draw(st.integers(0, 2**31)),
    }


@settings(max_examples=50, deadline=None)
@given(all_kinds_document())
def test_round_trip_covers_every_record_field(doc):
    raw = serialize_problem(parse_problem(doc).problem)
    assert json.dumps(raw) == json.dumps(doc)  # every field kept, in schema order
    assert_round_trip(raw)


def test_serialize_matches_schema():
    parsed = load_problem(LENS)
    doc = serialize_problem(parsed.problem)
    assert set(doc) == {"dimension", "familyA", "familyB", "options", "seed"}
    assert doc["options"]["max_sweeps"] == 400


# --- rejected problem files --------------------------------------------------------

DELETE = object()
BALL_A = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}
NAN, INF = float("nan"), float("inf")
HUGE_INT = 10**400

# id: (path into two_balls.json, the value put there or DELETE, the error it
# causes); an empty path replaces the whole document
REJECTED_FILES = {
    "not-an-object": ((), [], "problem file must contain a JSON object"),
    "no-familyB": (("familyB",), DELETE, "missing key 'familyB' in problem file"),
    "dimension-0": (("dimension",), 0, "dimension must be an integer >= 1, got 0"),
    "seed-1.5": (("seed",), 1.5, "seed must be an integer >= 0, got 1.5"),
    "seed--1": (("seed",), -1, "seed must be an integer >= 0, got -1"),
    "familyA-int": (("familyA",), 5, "familyA must be an object"),
    "familyA-list": (("familyA",), [BALL_A], "familyA must be an object"),
    "no-sets": (("familyA", "sets"), [], "familyA needs a nonempty 'sets' list"),
    "sets-int": (("familyA", "sets"), 5, "familyA needs a nonempty 'sets' list"),
    "sets-object": (("familyA", "sets"), BALL_A, "familyA needs a nonempty 'sets' list"),
    "sets-string": (("familyA", "sets"), "a", "familyA needs a nonempty 'sets' list"),
    "set-of-dimension-3": (("familyA", "sets", 0, "center"), [0.0, 0.0, 0.0],
                           "familyA contains a set of dimension 3, expected 2"),
    "set-not-an-object": (("familyA", "sets", 0), 5,
                          "set record must be an object with a 'type' tag"),
    "ball-without-radius": (("familyA", "sets", 0, "radius"), DELETE,
                            "missing key 'radius' in ball record"),
    "center-of-shape-2x2": (("familyA", "sets", 0, "center"), [[0.0, 0.0], [0.0, 0.0]],
                            "center must be a 1-d vector, got shape (2, 2)"),
    "center-nan": (("familyA", "sets", 0, "center"), [NAN, 0.0], "center must be finite"),
    "box-dimensions-differ": (
        ("familyA", "sets", 0), {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0, 1.0]},
        "lo and hi dimensions differ"),
    "ellipsoid-dimensions-differ": (
        ("familyA", "sets", 0), {"type": "ellipsoid", "center": [0.0, 0.0], "axes": [1.0]},
        "center and axes dimensions differ"),
    "k0-0": (("familyA", "schedule", "k0"), 0.0, "k0 must be positive and finite, got 0.0"),
    **{
        f"{kind}-offset-{offset}": (
            ("familyA", "sets"), [BALL_A, {"type": kind, "normal": [1.0, 0.0], "offset": offset}],
            "offset must be finite")
        for kind in ("halfspace", "hyperplane")
        for offset in (NAN, INF, -INF)
    },
    **{
        f"{kind}-normal-{scale:g}": (
            ("familyA", "sets"), [BALL_A, {"type": kind, "normal": [scale, 0.0], "offset": 0.0}],
            "normal must be nonzero, with a squared length that neither underflows nor overflows")
        for kind in ("halfspace", "hyperplane")
        for scale in (1e160, 1e-160)
    },
    "options-int": (("options",), 5, "options must be an object"),
    "options-list": (("options",), [1], "options must be an object"),
    "schedule-int": (("familyA", "schedule"), 5, "familyA.schedule must be an object"),
    "schedule-string": (("familyA", "schedule"), "a", "familyA.schedule must be an object"),
    "pair_gap_tol-string": (("options",), {"pair_gap_tol": "a"},
                            "pair_gap_tol must be positive and finite, got 'a'"),
    "fixed_point_tol-bool": (("options",), {"fixed_point_tol": True},
                             "fixed_point_tol must be positive and finite, got True"),
    "record_inner_steps-string": (("options",), {"record_inner_steps": "yes"},
                                  "record_inner_steps must be true or false, got 'yes'"),
    "weights-string": (("familyA", "weights"), "a", "weights must be numbers, got 'a'"),
    "weights-list-of-strings": (("familyA", "weights"), ["a"],
                                "weights must be numbers, got ['a']"),
    # a JSON number is read where a number is meant, not a bool or a numeric string
    "c-string": (("familyA", "schedule", "c"), "a", "c must be a number, got 'a'"),
    "c-bool": (("familyA", "schedule", "c"), True, "c must be a number, got True"),
    "k0-numeric-string": (("familyA", "schedule", "k0"), "2", "k0 must be a number, got '2'"),
    "seed-bool": (("seed",), True, "seed must be an integer >= 0, got True"),
    "dimension-bool": (("dimension",), True, "dimension must be an integer >= 1, got True"),
    "radius-bool": (("familyA", "sets", 0, "radius"), True, "radius must be a number, got True"),
    "radius-numeric-string": (("familyA", "sets", 0, "radius"), "1",
                              "radius must be a number, got '1'"),
    "offset-numeric-string": (
        ("familyA", "sets"), [BALL_A, {"type": "halfspace", "normal": [1.0, 0.0], "offset": "1"}],
        "offset must be a number, got '1'"),
    "center-bools": (("familyA", "sets", 0, "center"), [True, False],
                     "center must be numbers, got [True, False]"),
    "center-numeric-strings": (("familyA", "sets", 0, "center"), ["0", "0"],
                               "center must be numbers, got ['0', '0']"),
    "weights-bool": (("familyA", "weights"), [True], "weights must be numbers, got [True]"),
    "weights-numeric-strings": (("familyA", "weights"), ["1"],
                                "weights must be numbers, got ['1']"),
    # a 401-digit integer literal is a JSON number no float can hold
    "radius-401-digits": (("familyA", "sets", 0, "radius"), HUGE_INT,
                          "radius must be a number within the float range, got an integer too large"),
    "center-401-digits": (("familyA", "sets", 0, "center"), [HUGE_INT, 0],
                          "center must be numbers within the float range, got an integer too large"),
    "offset-401-digits": (
        ("familyA", "sets"), [BALL_A, {"type": "halfspace", "normal": [1.0, 0.0], "offset": HUGE_INT}],
        "offset must be a number within the float range, got an integer too large"),
    "k0-401-digits": (("familyA", "schedule", "k0"), HUGE_INT,
                      "k0 must be a number within the float range, got an integer too large"),
    "fixed_point_tol-401-digits": (
        ("options",), {"fixed_point_tol": HUGE_INT},
        "fixed_point_tol must be a number within the float range, got an integer too large"),
}


def mutated(path, value):
    doc = json.loads(pathlib.Path(TWO_BALLS).read_text())
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


@pytest.mark.parametrize("case", REJECTED_FILES)
def test_rejected_problem_file_exits_1(case, tmp_path, capsys):
    path, value, message = REJECTED_FILES[case]
    problem = write(tmp_path, "p.json", mutated(path, value))
    assert main(["run", problem, "--out", str(tmp_path / "t")]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_main_builds_its_parser_once(tmp_path, monkeypatch, request):
    """Two `main` calls in one process construct the top-level parser once:
    the first call builds it and the second reuses it."""
    built = []

    class Counting(cli._ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_ArgumentParser", Counting)
    cli._build_parser.cache_clear()
    request.addfinalizer(cli._build_parser.cache_clear)
    missing = str(tmp_path / "missing.json")
    assert [main(["run", missing]), main(["run", missing])] == [1, 1]
    assert built.count("bestpair") == 1


@pytest.mark.parametrize("family", ["familyA", "familyB"])
def test_bounding_radius_that_overflows_names_its_member(family, tmp_path, capsys):
    """A ball centred at (1e308, 1e308) has a bounding radius past the
    largest float: `check` exits 1 with one line naming the family, the
    member and its kind, and numpy warns of no overflow."""
    doc = json.loads(pathlib.Path(TWO_BALLS).read_text())
    doc[family]["sets"][0]["center"] = [1e308, 1e308]
    problem = write(tmp_path, "p.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", problem]) == 1
    label = family[-1]
    assert capsys.readouterr() == (
        "", f"error: family {label} member 0 (ball) has a bounding radius that overflows\n")


def huge_axis_doc(halfspace, center_b, radius_b):
    """Family A: an ellipsoid with a^2 = 1e300 along x, alone or with a
    half-space; family B: one ball."""
    members = [{"type": "ellipsoid", "center": [0, 0], "axes": [1e150, 1]}]
    if halfspace:
        members.append({"type": "halfspace", "normal": [0, 1], "offset": 5})
    return {"dimension": 2, "familyA": {"sets": members},
            "familyB": {"sets": [{"type": "ball", "center": center_b, "radius": radius_b}]}}


@pytest.mark.parametrize("command, halfspace, center_b, radius_b", [
    ("run", False, [2e151, 0], 1e151), ("run", True, [2e151, 0], 1e151), ("check", True, [0, 10], 1),
])
def test_an_overflowing_projection_exits_1_naming_it(command, halfspace, center_b, radius_b, tmp_path,
                                                     capsys):
    """`run` meets the overflow in validation, projecting (1e151, 0) onto
    family A; `check` validates its problem and meets it on the audit grid,
    5e149 out.  Either writes one `error:` line that names the overflow and
    exits 1: it no longer blames the input's finiteness, or an empty
    intersection with exit 3.  numpy warns of nothing on the way."""
    problem = write(tmp_path, "p.json", huge_axis_doc(halfspace, center_b, radius_b))
    argv = [command, problem] + (["--out", str(tmp_path / "t")] if command == "run" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == ["error: reference projection overflowed: an iterate left the float range"]
    assert caught == []


@pytest.mark.parametrize("command", ["run", "check"])
def test_lens_with_a_huge_ball_exits_0(command, tmp_path, capsys):
    """Family A of the lens with a ball of radius 1e300 added: rho is
    1e300, and Dykstra's moves on the audit grid are too long to square.
    Their gap overflows while the iterates stay finite, so the cycles go
    on and both commands succeed, with no numpy warning."""
    doc = json.loads(pathlib.Path(LENS).read_text())
    doc["familyA"]["sets"].append({"type": "ball", "center": [0, 0], "radius": 1e300})
    doc["familyA"]["weights"] = [0.495, 0.495, 0.01]
    problem = write(tmp_path, "p.json", doc)
    argv = [command, problem] + (["--out", str(tmp_path / "t")] if command == "run" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert caught == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "compare", "check"])
def test_baseline_budget_exhausted_exits_1(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "BASELINE_MAX_OUTER", 1)
    message = "no convergence within 1 outer iterations"
    argv = [command, TWO_BALLS] + (["--out", str(tmp_path / "t")] if command == "run" else [])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    if command == "check":  # a failed validation is part of check's report
        assert err == ""
        assert json.loads(out)["mandatory"]["validation"] == {"passed": False, "error": message}
    else:
        assert (out, err) == ("", f"error: {message}\n")


# --- cmd_run -----------------------------------------------------------------------


def test_run_two_ball(tmp_path, capsys):
    out = str(tmp_path / "t")
    code = main(["run", TWO_BALLS, "--out", out])
    assert code == 0
    summary = json.loads((tmp_path / "t.json").read_text())
    assert summary["terminal"] == "Converged"
    assert abs(summary["gap"] - 2.0) <= 1e-3
    csv = (tmp_path / "t.csv").read_text().splitlines()
    assert csv[0] == "k,phase,sweep,gap,coord_0,coord_1"
    first = csv[1].split(",")
    assert first[0] == "1" and first[1] == "A" and first[2] == "0"


def test_run_non_disjoint_exits_1(tmp_path, capsys):
    doc = two_ball_doc()
    doc["familyB"] = doc["familyA"]
    path = write(tmp_path, "same.json", doc)
    code = main(["run", path, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "not disjoint" in capsys.readouterr().err


def test_run_malformed_json_exits_1(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    code = main(["run", path, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_run_max_sweeps_override_exits_2(tmp_path, capsys):
    code = main(["run", TWO_BALLS, "--max-sweeps", "3", "--out", str(tmp_path / "t")])
    assert code == 2
    summary = json.loads((tmp_path / "t.json").read_text())
    assert summary["terminal"] == "MaxSweeps"


def test_run_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", TWO_BALLS, "--out", out1]) == 0
    assert main(["run", TWO_BALLS, "--out", out2]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_run_records_inner_steps(tmp_path, capsys):
    doc = two_ball_doc()
    doc["options"] = {"max_sweeps": 4, "record_inner_steps": True}
    path = write(tmp_path, "inner.json", doc)
    code = main(["run", path, "--out", str(tmp_path / "t")])
    assert code == 2  # 4 sweeps cannot converge
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    inner_a = [r for r in rows if r.split(",")[1] == "A-inner"]
    # sweeps r=0..3 contribute r+1 inner rows each on family A
    assert len(inner_a) == 1 + 2 + 3 + 4


# --- cmd_project -------------------------------------------------------------------


def test_project_single_ball(capsys):
    code = main(["project", TWO_BALLS, "--family", "A", "--point", "2,0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["point"], [1.0, 0.0], atol=1e-4)


def test_project_lens(capsys):
    code = main(["project", LENS, "--family", "A", "--point", "5,0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["point"], [2.0, 0.0], atol=1e-3)
    assert max(out["member_residuals"]) <= 1e-4


def test_project_wrong_dimension_exits_1(capsys):
    code = main(["project", TWO_BALLS, "--family", "A", "--point", "1,2,3"])
    assert code == 1


def test_project_budget_exhausted_exits_3(capsys):
    code = main(["project", LENS, "--family", "A", "--point", "5,0", "--tol", "1e-9"])
    assert code == 3
    assert "last gap" in capsys.readouterr().err


# lens family A from these starts does not stop within the step budget
# with the file's c = 0.004, whose anchor pulls too weakly
LENS_FAR_STARTS = ["-3,0.5", "5,5", "0,3"]


@pytest.mark.parametrize("point", LENS_FAR_STARTS)
def test_project_with_a_schedule_override_converges(point, capsys):
    code = main(["project", LENS, "--family", "A", f"--point={point}", "--schedule", "1,2,1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    family_a = load_problem(LENS).problem.family_a
    reference = project_intersection(family_a, [float(t) for t in point.split(",")])
    assert np.linalg.norm(np.array(out["point"]) - reference) <= SHLWB_DEFAULT_TOL


@pytest.mark.parametrize("point", LENS_FAR_STARTS)
def test_project_budget_message_names_the_schedule_and_the_distance(point, capsys):
    assert main(["project", LENS, "--family", "A", f"--point={point}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence within 200000 iterations (last gap ")
    assert "; with schedule c=0.004, k0=2, p=1 the last iterate lies " in err
    assert err.endswith(" from the reference projection\n")
    assert err.count("\n") == 1
    assert float(err.split(" lies ")[1].split()[0]) > SHLWB_DEFAULT_TOL


@pytest.mark.parametrize("argv", [
    ["run", TWO_BALLS, "--x0", "nan,0"],
    ["run", TWO_BALLS, "--x0", "0,inf"],
    ["project", TWO_BALLS, "--family", "A", "--point", "nan,0"],
    # an empty field is not dropped, and an empty --x0 is not the origin
    ["run", TWO_BALLS, "--x0=1,,0"],
    ["run", TWO_BALLS, "--x0="],
    ["project", LENS, "--family", "A", "--point=5,,0"],
])
def test_non_finite_point_exits_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    option = "--x0" if argv[0] == "run" else "--point"
    assert err.startswith(f"error: {option} ") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("path", [TWO_BALLS, LENS, BOXES])
def test_desk_run_makes_13_reference_projections(path, tmp_path, monkeypatch, capsys):
    """A `run` on a desk file projects onto an intersection 13 times: in
    validation, in the stop tests that member distances cannot refute, and
    for the pair's residuals."""
    calls = []
    monkeypatch.setattr(solver, "project_intersection",
                        lambda *args, **kw: calls.append(1) or project_intersection(*args, **kw))
    assert main(["run", path, "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == 13


def test_huge_x0_starts_on_the_sphere_of_radius_rho(tmp_path, capsys):
    """An --x0 whose squared norm overflows starts within a few ulps of
    rho * x0 / ||x0||, as an ordinary far start does, and numpy warns of no
    overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", TWO_BALLS, "--x0", "1e308,1e308", "--out", str(tmp_path / "t")]) == 0
    assert json.loads(capsys.readouterr().out)["x0_projected"]
    problem = load_problem(TWO_BALLS).problem
    start = run_ashlwb(problem, [1e308, 1e308]).x0
    expected = problem.rho / np.sqrt(2.0) * np.ones(2)
    assert np.all(np.abs(start - expected) <= 4 * np.spacing(expected))


# an infinite resolution gives the oracle one grid cell that an infinite slack
# makes feasible, and an infinite tol stops `project` after one anchored step
@pytest.mark.parametrize("argv, message", [
    (["oracle", LENS, "--resolution", "inf"], "resolution must be positive and finite, got inf"),
    (["project", LENS, "--family", "A", "--point", "5,5", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["project", LENS, "--family", "A", "--point", "5,5", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["project", LENS, "--family", "A", "--point", "5,5", "--tol", "0"],
     "tol must be positive and finite, got 0.0"),
    # a subnormal resolution makes the grid's cell count overflow to inf
    (["oracle", LENS, "--resolution", "1e-320"], "resolution too fine for the grid oracle"),
    (["compare", LENS, "--resolution", "1e-320"], "resolution too fine for the grid oracle"),
])
def test_bad_numeric_option_exits_1(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, option", [
    (["run"], "problem"),
    (["run", TWO_BALLS, "--max-sweeps", "abc"], "--max-sweeps"),
    (["project", TWO_BALLS, "--family", "C", "--point", "0,0"], "--family"),
])
def test_usage_error_exits_1(argv, option, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and err.count("\n") == 1


def test_malformed_schedule_exits_1(capsys):
    for schedule, reason in [
        ("1,2", "expected three numbers 'c,k0,p', got '1,2'"),
        ("0.004,,2,1", "expected three numbers 'c,k0,p', got '0.004,,2,1'"),
        ("1,2,0", "schedule violates the steering axioms: p must lie in (0, 1], got 0.0"),
    ]:
        assert main(["run", TWO_BALLS, "--schedule", schedule]) == 1
        assert capsys.readouterr().err == f"error: argument --schedule: {reason}\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--schedule" in capsys.readouterr().out


@pytest.mark.parametrize("error", [
    MaxIterExceeded("reference projection did not converge in 5 cycles"),
    EllipsoidRootFindError("dual residual 1.000e-06 after at most 110 Newton rounds"),
    SamplingFailure("rejection sampling exhausted 1000000 draws"),
])
def test_projection_failures_exit_3(error, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_ashlwb", fail)
    assert main(["run", TWO_BALLS, "--out", str(tmp_path / "t")]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


def test_project_a_point_too_far_off_an_ellipsoid_exits_3(tmp_path, capsys):
    """Projecting (1e308,) * 4 onto a unit ball written as an ellipsoid:
    Newton's lam overflows and its Newton sum underflows to 0.  `project`
    exits 3 with one `error:` line that names the point, not a traceback."""
    doc = two_ball_doc()
    doc.update(dimension=4)
    doc["familyA"]["sets"] = [{"type": "ellipsoid", "center": [0.0] * 4, "axes": [1.0] * 4}]
    doc["familyB"]["sets"][0].update(center=[4.0, 0.0, 0.0, 0.0])
    problem = write(tmp_path, "far.json", doc)
    assert main(["project", problem, "--family", "A", "--point", "1e308,1e308,1e308,1e308"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: dual residual") and "the point too far off" in err


# --- cmd_check ---------------------------------------------------------------------


def test_check_lens(capsys):
    code = main(["check", LENS])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["advisory"]["uniqueness"]["verdict"] == "UniqueGuaranteed"
    assert report["advisory"]["dini_A"]["passed"]
    assert report["advisory"]["fix_set_A"]["passed"]
    assert report["mandatory"]["validation"]["passed"]


def test_check_small_scale_problem_exits_0(tmp_path, capsys):
    # rho = 0.006: outside points at 1.05 rho would lie only 3e-4 from B's ball
    doc = two_ball_doc()
    doc["familyA"]["sets"][0].update(center=[0.0, 0.0], radius=0.001)
    doc["familyB"]["sets"][0].update(center=[0.005, 0.0], radius=0.001)
    assert main(["check", write(tmp_path, "small.json", doc)]) == 0
    advisory = json.loads(capsys.readouterr().out)["advisory"]
    assert advisory["fix_set_A"]["passed"] and advisory["fix_set_B"]["passed"]


def test_check_overlapping_balls_fails_validation(tmp_path, capsys):
    # a failed validation is the report's result, not an error line
    doc = two_ball_doc()
    doc["familyB"]["sets"][0]["center"] = [1.0, 0.0]
    assert main(["check", write(tmp_path, "overlap.json", doc)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    validation = report["mandatory"]["validation"]
    assert validation["passed"] is False and "not disjoint" in validation["error"]
    assert report["advisory"] == {}
    assert captured.err == ""


def test_check_boxes_advisory_only(capsys):
    code = main(["check", BOXES])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["advisory"]["uniqueness"]["verdict"] == "NotGuaranteed"


@pytest.mark.parametrize("max_sweeps", [float("nan"), 2.5])
def test_check_rejects_bad_max_sweeps(max_sweeps, tmp_path, capsys):
    doc = two_ball_doc()
    doc["options"] = {"max_sweeps": max_sweeps}
    assert main(["check", write(tmp_path, "p.json", doc)]) == 1
    assert "max_sweeps must be an integer >= 1" in capsys.readouterr().err


def test_check_halfspace_only_family_exits_1(tmp_path, capsys):
    doc = two_ball_doc()
    doc["familyA"] = {"sets": [{"type": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}]}
    path = write(tmp_path, "hs.json", doc)
    code = main(["check", path])
    assert code == 1


@pytest.mark.parametrize("label", ["A", "B"])
def test_unbounded_family_error_names_the_family(label, tmp_path, capsys):
    doc = two_ball_doc()
    doc["family" + label] = {"sets": [{"type": "halfspace", "normal": [1.0, 0.0], "offset": 0.0}]}
    assert main(["check", write(tmp_path, "hs.json", doc)]) == 1
    assert capsys.readouterr().err == (
        f"error: family {label} has no bounded member; the bounding hypothesis fails\n"
    )


def meshgrid_check_grid(dim, rho):
    """The check grid built whole: every point of the 5^dim grid, then the ball test."""
    axes = [np.linspace(-rho, rho, 5)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    return pts[np.linalg.norm(pts, axis=1) <= rho][:625]


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("rho", [1.0, 3.0000000000000004, 5.0, 8.0, 0.3, 12.7])
def test_check_grid_equals_meshgrid(dim, rho):
    # at dim 4 and rho 3.0000000000000004 the 2-D norm keeps 84 points; a norm
    # taken one point at a time rounds 3 points on the sphere outside
    expected = meshgrid_check_grid(dim, rho)
    got = cli._check_grid(dim, rho)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [7, 8, 10, 20, 30])
def test_check_grid_spreads_over_the_ball(dim):
    # more than 625 points pass; the first 625 in C order would all have x_0 <= 0
    grid = cli._check_grid(dim, 1.0)
    points = set(map(tuple, grid))
    assert grid.shape == (625, dim) and len(points) == 625
    assert np.all(np.linalg.norm(grid, axis=1) <= 1.0)
    assert set(grid[:, 0]) == {-1.0, -0.5, 0.0, 0.5, 1.0}
    assert points == set(map(tuple, -grid))


def test_check_high_dimension_exits_0(tmp_path, capsys):
    # the whole 5^20 grid would need 694 TiB
    dim = 20
    far = [0.0] * dim
    far[0] = 4.0
    doc = {
        "dimension": dim,
        "familyA": {"sets": [{"type": "ball", "center": [0.0] * dim, "radius": 1.0}]},
        "familyB": {"sets": [{"type": "ball", "center": far, "radius": 1.0}]},
    }
    assert main(["check", write(tmp_path, "balls20.json", doc)]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["advisory"]["dini_A"]["n_points"] == 625
    assert err == ""


# --- cmd_oracle --------------------------------------------------------------------


def test_oracle_two_ball(capsys):
    code = main(["oracle", TWO_BALLS, "--resolution", "0.01"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["a"], [1.0, 0.0], atol=1e-4)
    assert np.allclose(out["b"], [3.0, 0.0], atol=1e-4)


def test_oracle_dimension_limit(tmp_path, capsys):
    doc = {
        "dimension": 4,
        "familyA": {"sets": [{"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0}]},
        "familyB": {"sets": [{"type": "ball", "center": [4, 0, 0, 0], "radius": 1.0}]},
    }
    path = write(tmp_path, "d4.json", doc)
    code = main(["oracle", path, "--resolution", "0.1"])
    assert code == 1
    assert "dimension <= 3" in capsys.readouterr().err


# --- cmd_compare -------------------------------------------------------------------


def test_compare_two_ball(capsys):
    code = main(["compare", TWO_BALLS])
    assert code == 0
    out = capsys.readouterr().out
    assert "agreement within 1e-2: True" in out


def test_compare_insufficient_sweeps_exits_4(capsys):
    code = main(["compare", TWO_BALLS, "--max-sweeps", "1"])
    assert code == 4


@pytest.mark.parametrize("dim, extra, message", [
    (4, [], "oracle limited to dimension <= 3"),
    (2, ["--resolution", "0"], "resolution must be positive and finite, got 0.0"),
    (2, ["--resolution", "inf"], "resolution must be positive and finite, got inf"),
    (2, ["--resolution", "nan"], "resolution must be positive and finite, got nan"),
])
def test_compare_rejects_oracle_input_before_solving(
    dim, extra, message, tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "run_ashlwb", fail)
    far = [0.0] * dim
    far[0] = 4.0
    doc = {
        "dimension": dim,
        "familyA": {"sets": [{"type": "ball", "center": [0.0] * dim, "radius": 1.0}]},
        "familyB": {"sets": [{"type": "ball", "center": far, "radius": 1.0}]},
    }
    assert main(["compare", write(tmp_path, "p.json", doc)] + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
