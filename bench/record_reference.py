"""Record the reference outputs that benchmark runs are checked against.

    python3 bench/record_reference.py

Run from the root of a checkout of the commit whose outputs define
correctness. For every workload and every input set (seed modulo
workloads.N_SLOTS) it runs one pass and stores each task's observation in
bench/reference.json. It refuses to record a task that exits non-zero or
raises, because the workloads are built so that every task succeeds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    import harness
    import workloads

    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    data = {"input_sets": workloads.N_SLOTS, "provenance": harness.provenance(root), "workloads": {}}
    for workload in workloads.WORKLOADS:
        sets = data["workloads"][workload] = {}
        work = harness.BENCH_DIR / ".work" / f"record-{workload}"
        for slot in range(workloads.N_SLOTS):
            shutil.rmtree(work, ignore_errors=True)
            tasks = workloads.build_tasks(workload, slot, work / "inputs")
            _, results = harness.run_pass(tasks, work)
            observed = {}
            for task, res in zip(tasks, results):
                if res.error is not None or res.exit_code != 0:
                    raise SystemExit(f"{workload} set {slot} {task.name} failed: "
                                     f"exit {res.exit_code}\n{res.error or ''}")
                observed[task.name] = task.observe(work / task.name, res.exit_code, res.raw)
            sets[str(slot)] = observed
            print(f"{workload} set {slot}: {len(tasks)} tasks recorded", flush=True)
        shutil.rmtree(work, ignore_errors=True)
    harness.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
