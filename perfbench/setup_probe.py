"""One set-up sample, run in a fresh process by ``perfbench.run``.

Prints the seconds from before ``import templap`` (numpy and scipy.linalg
with it) to the end of the workload's first study run cold at its smallest
level.  Run as ``python3 -m perfbench.setup_probe <workload>``; the parent
has already pinned the thread pools in the environment this inherits.
"""

import sys
from dataclasses import replace
from time import perf_counter


def main(workload: str) -> float:
    start = perf_counter()
    from perfbench import studies
    from templap import run_convergence_study

    first = studies.WORKLOADS[workload].configs[0]
    run_convergence_study(replace(first, levels=first.levels[:1]))
    return perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
