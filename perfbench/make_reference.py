"""Regenerate the reference CSVs that every benchmark run compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's reference campaign (its check_argv at CHECK_SEED)
and writes roc.csv and rmsd.csv to perfbench/reference/<workload>/.
Regenerate only when a change is meant to alter results.
"""
import sys

from run import SRC  # importing run pins the BLAS threads before numpy loads

sys.path.insert(0, str(SRC))

import bench  # noqa: E402

if __name__ == "__main__":
    for name in sys.argv[1:] or list(bench.WORKLOADS):
        bench.write_reference(bench.WORKLOADS[name], bench.REFERENCE / name)
        print(f"wrote {bench.REFERENCE / name}")
