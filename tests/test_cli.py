import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bestpair import EllipsoidRootFindError, MaxIterExceeded, SamplingFailure, cli
from bestpair.cli import load_problem, main, parse_problem, serialize_problem

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


@pytest.mark.parametrize("argv", [
    ["run", TWO_BALLS, "--x0", "nan,0"],
    ["run", TWO_BALLS, "--x0", "0,inf"],
    ["project", TWO_BALLS, "--family", "A", "--point", "nan,0"],
])
def test_non_finite_point_exits_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


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
    EllipsoidRootFindError("dual residual 1.000e-06 after 110 bisections"),
    SamplingFailure("rejection sampling exhausted 1000000 draws"),
])
def test_projection_failures_exit_3(error, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_ashlwb", fail)
    assert main(["run", TWO_BALLS, "--out", str(tmp_path / "t")]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


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
    (2, ["--resolution", "0"], "resolution must be positive"),
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
