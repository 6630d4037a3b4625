"""Benchmark of the maskrec pipeline: workloads, output checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""

import os

#: BLAS threads are pinned before numpy loads so that every commit of a
#: comparison runs alike; ``filter_batch`` p90 moves with this setting.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set every BLAS thread variable; call before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
