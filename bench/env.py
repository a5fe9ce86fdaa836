"""Process set-up shared by the benchmark's entry points.

Importing this module pins the BLAS/OpenMP pools to one thread, which must
happen before numpy is imported, and puts the checkout's `src/` first on the
import path so that the benchmark measures the source tree, not an installed
copy of bestpair.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise RuntimeError("bench/env.py must be imported before numpy")
if not os.path.isfile(os.path.join(SRC, "bestpair", "__init__.py")):
    sys.exit(f"error: no bestpair source tree at {SRC}")
sys.path.insert(0, SRC)


def work_root() -> str:
    """Scratch directory for the files the ops write.

    It lies inside the checkout, not in the system's temporary directory,
    so that the benchmark writes nothing outside the tree it measures.
    """
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path
