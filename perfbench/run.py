"""Run one workload of the pilothop campaign benchmark.

    python3 perfbench/run.py --workload full_paper --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Prints one report line (environment, trial and solve counts,
output checks) and, as the last line, the result object with the keys
correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` replays the same passes with every layer
boundary wrapped and reports the per-layer metrics. ``attempted`` counts
solves and ``failed`` the solves that did not converge.

Exit codes: 0 measured and every check passed, 1 an output check failed,
2 usage error or no program sources, 3 the workload could not be measured.
"""
import os

# single-threaded BLAS, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int, help="non-negative workload seed")
    parser.add_argument("--seconds", required=True, type=float, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pilothop" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import spans

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, report = bench.run(
            bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            work_root=ROOT,
        )
        lines = [json.dumps({"report": report}, allow_nan=False),
                 json.dumps(result, allow_nan=False)]
    except (bench.BenchError, spans.SignatureChanged, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    for problem in report["check"]["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("\n".join(lines), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
