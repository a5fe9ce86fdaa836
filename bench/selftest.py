"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Runs every workload at the tiny size, untraced and traced, and checks that
   each run passes and emits exactly the metrics BENCHMARK.json names, each
   with its unit.
2. Checks that the correctness gate fails, and the command exits non-zero,
   when given deliberately perturbed references.
3. Checks that the command fails without printing a result when the checkout
   holds only BENCHMARK.json and the benchmark's own files.
"""

import env  # noqa: I001  (pins threads before numpy loads)

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run_bench
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))


def run_tiny(workload: str, trace: int, cwd: str = env.ROOT, script: str = None):
    script = script or os.path.join(BENCH, "run_bench.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def check_metric_names(spec: dict):
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_tiny(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} --trace {trace}: {len(got)} {section} metrics")


def check_gate_rejects_perturbed_references():
    for name, perturb in (
        ("desk", lambda inp: inp.ref.update(a=inp.ref["a"] + 10 * inp.ref["tol"])),
        ("ellipsoid", lambda inp: inp.ref.update(b=inp.ref["b"] - 10 * inp.ref["tol"])),
        ("batch", lambda inp: inp.ref.update(rows=inp.ref["rows"] + 1e-9)),
    ):
        workdir = tempfile.mkdtemp(dir=env.work_root())
        try:
            wl = workloads.setup(name, env.ROOT, workdir, seed=3, size="tiny")
            workloads.compute_references(wl)
            inp = wl.inputs[0]
            with run_bench.Runner(wl, seed=3) as runner:
                runner.op(inp)
                assert not runner.failures, runner.failures
                perturb(inp)
                runner.records.clear()
                runner.op(inp)
            assert len(runner.failures) == 1, runner.failures
            print(f"ok  {name}: perturbed reference rejected: {runner.failures[0][:90]}")
        finally:
            shutil.rmtree(workdir)

    # the whole command: a failed check is counted and the exit code is 1
    real = workloads.compute_references

    def perturbed(wl):
        real(wl)
        for inp in wl.inputs:
            inp.ref["a"] = inp.ref["a"] + np.full_like(inp.ref["a"], 1.0)

    workloads.compute_references = perturbed
    try:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            rc = run_bench.main(["--workload", "desk", "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--size", "tiny"])
    finally:
        workloads.compute_references = real
    out = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert rc == 1 and not out["correct"] and out["failed"] == out["attempted"] >= 1, (rc, out)
    print(f"ok  command exits 1 with {out['failed']}/{out['attempted']} failed ops")


def check_fails_without_program():
    bare = tempfile.mkdtemp(dir=env.work_root())
    try:
        shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_tiny("desk", 0, cwd=bare, script=os.path.join(bare, "bench", "run_bench.py"))
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print(f"ok  without src/ the command exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_names(spec)
    check_gate_rejects_perturbed_references()
    check_fails_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
