"""Time one set-up of a workload in a fresh interpreter.

Imports bestpair.cli, then generates or loads the inputs of the workload, and
prints {"import_s": ..., "load_s": ...} on one line. `run_bench.py` runs it
several times and reports the median wall time of the whole process as
`setup_s`.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SIZE
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import env  # noqa: E402
import bestpair.cli  # noqa: E402,F401

_t1 = time.perf_counter()

import workloads  # noqa: E402


def main(workload: str, seed: int, size: str):
    workdir = tempfile.mkdtemp(prefix="setup-", dir=env.work_root())
    try:
        workloads.setup(workload, env.ROOT, workdir, seed, size)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"import_s": _t1 - _t0, "load_s": time.perf_counter() - _t1}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
