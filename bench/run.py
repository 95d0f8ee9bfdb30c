"""Run one phaselock benchmark workload from the root of a checkout.

    python3 bench/run.py --workload sim-sparse --seed 3 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics (BENCHMARK.json
``end_to_end``); ``--trace 1`` reports the per-layer metrics from one traced
pass. The last line of standard output is the result as one JSON object;
the full record, with provenance, goes to bench/results/.
"""

import os

# pinned before numpy is first imported, so BLAS and OpenMP start one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "phaselock" / "__init__.py").is_file():
        print(f"error: {root} holds no phaselock sources (src/phaselock); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {harness.workloads.WORKLOADS}")
    record = harness.run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_result(record)
    prov = record["provenance"]
    print(f"{args.workload} seed {args.seed}: {record['passes']} passes, "
          f"{record['failed']}/{record['attempted']} failed; numpy {prov['numpy']}, "
          f"{prov['blas']}, nproc {prov['nproc']}; record in {path.relative_to(root)}")
    for line in record["failures"]:
        print("  FAIL", line)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
