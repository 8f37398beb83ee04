"""Record the golden per-level results of every benchmark study.

    python3 -m perfbench.record_golden

Writes perfbench/golden.json: each study's L2/Linf errors, rates and PCG
iteration counts per level, as this checkout computes them with one BLAS
thread.  The golden values are the benchmark's correctness reference;
recording them again makes every later run agree with whatever the code
then computes, so do it only when a change to the numbers is intended and
reviewed.
"""

import json

from perfbench import pin_threads

if __name__ == "__main__":
    pin_threads()
    from perfbench import studies
    from templap import run_convergence_study

    golden = {}
    for workload in studies.WORKLOADS.values():
        for cfg in workload.configs:
            golden[studies.study_id(cfg)] = studies.summarize(run_convergence_study(cfg))
    with open(studies.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"studies": golden}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} studies to {studies.GOLDEN_PATH}")
