"""bestpair benchmark: one workload, one seed, one process, one thread.

    python3 bench/run_bench.py --workload {desk,ellipsoid,batch} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Closed loop: each op starts when the previous one has ended. The timed phase
runs whole rounds (every input of the workload once, in a seeded order), as
many as come nearest to --seconds. Every op is checked against a reference
computed untimed beforehand; repeated ops on one input must agree bit for bit.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each op twice in a row, untraced then traced, and reports the per-layer
metrics and the tracing overhead. Human-readable lines (machine, per-input records,
metrics) come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every op
passed its check.
"""

import env  # noqa: I001  (pins threads before numpy loads)

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import bestpair
import tracing
import workloads

SETUP_SAMPLES = {"full": 8, "tiny": 1}


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in env.THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, size: str, samples: int):
    """Wall times of fresh interpreters doing the set-up, and of their imports."""
    walls, imports = [], []
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    for _ in range(samples):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, probe, workload, str(seed), size],
            check=True, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(out.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


class Runner:
    """Runs and checks ops, keeping their wall times, records and failures.

    Used as a context manager: for `batch` it installs the PathCapture on
    `bestpair.oracles` on entry and removes it on exit.
    """

    def __init__(self, wl: workloads.Workload, seed: int):
        self.wl = wl
        self.order = np.random.default_rng(seed)
        self.capture = None
        if not wl.solves:
            self.capture = workloads.PathCapture(workloads.oracles.q_hat_path)
        self.spans = None  # set while tracing: spans of each op are summed
        self.totals = tracing.Totals()
        self.records = {}
        self.attempted = 0
        self.failures = []
        self.err_max = 0.0

    def __enter__(self):
        if self.capture is not None:
            workloads.oracles.q_hat_path = self.capture
        return self

    def __exit__(self, *exc):
        if self.capture is not None:
            workloads.oracles.q_hat_path = self.capture.fn

    def op(self, inp: workloads.Input):
        """Run and check one op; returns its wall time."""
        self.attempted += 1
        if self.spans is not None:
            self.spans.clear()
        t0 = time.perf_counter()
        try:
            raw = workloads.run_op(self.wl, inp)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            raw = exc
        wall = time.perf_counter() - t0
        if self.spans is not None:
            self.totals += self.spans.summary()
        if isinstance(raw, Exception):
            self.failures.append(f"{inp.label}: {type(raw).__name__}: {raw}")
            return wall
        record, error = workloads.check_op(self.wl, inp, raw, self.capture)
        first = self.records.setdefault(inp.label, record)
        if error is None and record != first:
            error = f"result differs from an earlier op on the same input: {record} vs {first}"
        if error is not None:
            self.failures.append(f"{inp.label}: {error}")
        self.err_max = max(self.err_max, record["err"])
        return wall

    def traced_op(self, spans: tracing.Spans, inp: workloads.Input):
        """One op with every traced callable wrapped; returns its wall time."""
        self.spans = spans
        try:
            with tracing.tracing(spans):
                return self.op(inp)
        finally:
            self.spans = None

    def rounds(self, seconds: float, op=None):
        """Whole rounds, as many as come nearest to `seconds`.

        Returns the op wall times and the elapsed time of all the rounds,
        checks included.
        """
        op = op or self.op
        walls = []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for i in self.order.permutation(len(self.wl.inputs)):
                walls.append(op(self.wl.inputs[i]))
            now = time.perf_counter()
            if now - t_start + (now - t_round) / 2 >= seconds:
                return walls, now - t_start


def run(args) -> int:
    if os.path.dirname(bestpair.__file__) != os.path.join(env.SRC, "bestpair"):
        raise SystemExit(f"error: imported bestpair from {bestpair.__file__}, not {env.SRC}")
    print("machine", json.dumps(machine_info(), sort_keys=True))
    # Half the set-up samples are taken before the timed phase and half after,
    # so that they see the host's speed at two moments some seconds apart.
    samples = SETUP_SAMPLES[args.size]
    setup_walls, import_walls = measure_setup(args.workload, args.seed, args.size, samples // 2)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.work_root())
    try:
        wl = workloads.setup(args.workload, env.ROOT, workdir, args.seed, args.size)
        workloads.compute_references(wl)
        with Runner(wl, args.seed) as runner:
            runner.op(wl.inputs[0])  # warm-up: checked, not timed
            if args.trace:
                metrics = traced_phases(runner, args.seconds)
            else:
                walls, elapsed = runner.rounds(args.seconds)
                metrics = {
                    "ops_per_s": (len(walls) / elapsed, "1/s"),
                    "op_s_p50": (statistics.median(walls), "s"),
                    "peak_rss_mb": (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                }
                print(f"samples {len(walls)} ops, {len(walls) // len(wl.inputs)} rounds")
        more_walls, more_imports = measure_setup(
            args.workload, args.seed, args.size, samples - samples // 2)
        setup_walls += more_walls
        import_walls += more_imports
        if args.trace:
            metrics["setup.import_s"] = (statistics.median(import_walls), "s")
        else:
            metrics["setup_s"] = (statistics.median(setup_walls), "s")
            print(f"samples {len(setup_walls)} set-ups")
    finally:
        shutil.rmtree(workdir)

    for label, record in sorted(runner.records.items()):
        print("record", label, json.dumps(record, sort_keys=True))
    for failure in runner.failures:
        print("FAILED", failure)
    failed = len(runner.failures)
    print(f"check failed_frac {failed / runner.attempted} ({failed}/{runner.attempted} ops)")
    print(f"check result_err_max {runner.err_max!r}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def traced_phases(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics and tracing overhead.

    Each input is run twice in a row, untraced then traced, so that the two
    runs of a pair see the same machine speed.
    """
    spans = tracing.Spans()
    untraced = []

    def pair(inp):
        untraced.append(runner.op(inp))
        return runner.traced_op(spans, inp)

    traced, _ = runner.rounds(seconds, pair)
    totals = runner.totals
    ops, wall = len(traced), sum(traced)
    metrics = tracing.layer_metrics(totals, ops)
    op_s = wall / ops
    untraced_op_s = sum(untraced) / len(untraced)
    metrics["trace.op_s"] = (op_s, "s/op")
    metrics["trace.untraced_op_s"] = (untraced_op_s, "s/op")
    metrics["trace.overhead_frac"] = (op_s / untraced_op_s - 1.0, "frac")
    metrics["trace.self_sum_frac"] = (sum(totals.self_s.values()) / wall, "frac")
    print(f"samples {len(untraced)} untraced ops, {ops} traced ops")
    print(f"per traced op, by span: {'self s':>10} {'share':>7} {'total s':>10} {'share':>7} "
          f"{'calls':>10}")
    for name, s in sorted(totals.self_s.items(), key=lambda kv: -kv[1]):
        total = totals.total_s[name]
        print(f"  {name:<36} {s / ops:10.6f} {s / wall:7.2%} {total / ops:10.6f} "
              f"{total / wall:7.2%} {totals.calls[name] / ops:10.1f}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
