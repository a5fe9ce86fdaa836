"""Byte-for-byte pins of the command line's outputs.

Each case runs `bestpair` in-process and compares the SHA-256 digests of what
it writes: the trace `.csv` and `.json` and stdout of `run`, and stdout of
`check` and of `oracle` at its default resolution, on the shipped desk
problems.  Two more `run` cases pin paths the defaults miss: lens under the
schedule (0.004, 2, 0.7), which takes p != 1 in `SteeringSchedule.tau` and
ends in MaxSweeps, and two_balls with `record_inner_steps`, which writes the
inner rows.

The digests were recorded on numpy 2.4 and Python 3.11.  A change that moves
last bits on purpose re-records them and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from bestpair.cli import main

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"

RUN_DIGESTS = {  # exit code, then the .csv, the .json and stdout
    "two_balls": (
        0,
        "b967c53facc7f0753abdfb2d8f32585b58b0f3805893cccc8186c073e951d73e",
        "535388245f63d47d70663e5bcf11645761f198e6c33f9fdc747315353c1bdde6",
        "535388245f63d47d70663e5bcf11645761f198e6c33f9fdc747315353c1bdde6",
    ),
    "lens": (
        0,
        "1f2cbe79805f5bb2e72fc36688dd9a4615f64ef40db97bf1ffb16196c4bd5255",
        "5a65f7a7410b05eb4307f544412a75fe22666f4df45152befa623a5114e4c3a0",
        "5a65f7a7410b05eb4307f544412a75fe22666f4df45152befa623a5114e4c3a0",
    ),
    "boxes": (
        0,
        "720ad38f524eb95ee73f934e26a85ca7f15df575408493a51b9884912470d2b8",
        "d9de7babfa14e74550d7951cf21ac1e052fb9dd8cabd89061261c014b800f597",
        "d9de7babfa14e74550d7951cf21ac1e052fb9dd8cabd89061261c014b800f597",
    ),
    "lens-p0.7": (
        2,
        "31061e9b08f4f891fdcf060f830fe392f187b59375743257f8c514ac79be8d48",
        "ba60bfc26204502a35e994eae4d5e4891b57a193594141d0788b2939fd73e2bf",
        "ba60bfc26204502a35e994eae4d5e4891b57a193594141d0788b2939fd73e2bf",
    ),
    "two_balls-inner": (
        0,
        "56c03ad7c3c4e2bdf001db3036f8b77d60011cd54b50a36d20134caf631f49c4",
        "535388245f63d47d70663e5bcf11645761f198e6c33f9fdc747315353c1bdde6",
        "535388245f63d47d70663e5bcf11645761f198e6c33f9fdc747315353c1bdde6",
    ),
}
CHECK_DIGESTS = {
    "two_balls": "a31386a6aa083c4bbde8ac87a302426b08e556f4e9d1f39087ef9dde09708d29",
    "lens": "70b2e3bebbb7244ae2e912656d8d43c22330c34ef7e167271ef86f9dbbae97f0",
    "boxes": "55a6b9937c2bfb84d6825f3330b22a3d95e5fec48e2a92ba9b5189cb616267a7",
}
ORACLE_DIGESTS = {
    "two_balls": "fcbb9b8d72f969db443a9b594c58a8ce21fc675e32651242d145a80b9ee2a8b2",
    "lens": "f1aefa31f813d454a51a001cf52b7d0d9b5834e838a7b809ed5c86eefb26c349",
    "boxes": "7d1120c9da821fe3afd4e467bff24b0e2810ca03cd3ba30fc954b8bcf7d692e2",
}


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def run_case(case, tmp_path):
    """(exit code, digests of the .csv, the .json and stdout) of one `run` case."""
    name, _, variant = case.partition("-")
    path = PROBLEMS / f"{name}.json"
    extra = []
    if variant == "p0.7":
        extra = ["--schedule", "0.004,2,0.7", "--max-sweeps", "60"]
    elif variant == "inner":
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["options"] = {"record_inner_steps": True}
        path = tmp_path / "inner.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    prefix = tmp_path / "trace"
    rc, stdout = run_cli(["run", str(path), "--out", str(prefix), *extra])
    files = [pathlib.Path(f"{prefix}{ext}").read_text(encoding="utf-8") for ext in (".csv", ".json")]
    return (rc, *map(sha256, files), sha256(stdout))


def check_case(name):
    rc, stdout = run_cli(["check", str(PROBLEMS / f"{name}.json")])
    assert rc == 0
    return sha256(stdout)


def oracle_case(name):
    rc, stdout = run_cli(["oracle", str(PROBLEMS / f"{name}.json")])
    assert rc == 0
    return sha256(stdout)


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS))
def test_run_bytes(case, tmp_path):
    assert run_case(case, tmp_path) == RUN_DIGESTS[case]


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_bytes(name):
    assert check_case(name) == CHECK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
def test_oracle_bytes(name):
    assert oracle_case(name) == ORACLE_DIGESTS[name]
