"""Benchmark harness for templap: whole convergence studies, timed and traced.

Entry point: ``python3 -m perfbench.run --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See README.md in
this directory for the workloads, the metrics and what each should move.
"""

import os

# BLAS/OpenMP pools read these once, when numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Pin the BLAS/OpenMP pools of this process (and its children) to one thread.

    Must run before numpy is imported: reduction order, and with it the PCG
    iteration counts, depends on the thread count.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no templap sources, no golden data)."""
