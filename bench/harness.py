"""Benchmark runner: set-up, timed passes, the peak-memory pass, the
traced pass, reference checks and the result record.

Run through ``run.py``, which pins BLAS and OpenMP to one thread before
numpy is imported.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import phaselock.cli

import spans
import workloads
from check import compare, file_digests

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# set-up probes (one import, one input build) taken before every timed pass
SETUP_PROBES_PER_PASS = 2

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import phaselock\n"
    "print(time.perf_counter() - t)\n"
    "print(phaselock.__file__)\n"
)


@dataclass
class TaskResult:
    exit_code: int | None
    raw: object
    seconds: float
    error: str | None = None


@dataclass
class Tally:
    """Attempted and failed tasks over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # first pass's output hashes per task

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)


# ------------------------------------------------------------------ set-up


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists, in its order."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_seconds(root: Path) -> float:
    """Time to import phaselock in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, location = proc.stdout.split("\n")[:2]
    if not Path(location).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"phaselock imported from {location}, not from the checkout")
    return float(seconds)


def build_seconds(workload: str, slot: int, in_dir: Path):
    """Time to generate, build and write the workload's input networks;
    returns it with the task list."""
    start = perf_counter()
    tasks = workloads.build_tasks(workload, slot, in_dir)
    return perf_counter() - start, tasks


# ------------------------------------------------------------------ passes


def run_task(task: workloads.Task, out_dir: Path) -> TaskResult:
    start = perf_counter()
    try:
        if task.argv is not None:
            # looked up on every call, so the traced pass sees the wrapper
            code = phaselock.cli.main([*task.argv, "--out", str(out_dir)])
            raw = None
        else:
            raw = task.call(out_dir)
            code = 0
    except (Exception, SystemExit):
        return TaskResult(None, None, perf_counter() - start, traceback.format_exc())
    return TaskResult(code, raw, perf_counter() - start)


def run_pass(tasks, work: Path) -> tuple[float, list[TaskResult]]:
    """One closed-loop pass; returns the summed task time and the results.
    Output directories are cleared before the pass, outside the timing."""
    for task in tasks:
        shutil.rmtree(work / task.name, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        results = [run_task(task, work / task.name) for task in tasks]
    return sum(r.seconds for r in results), results


def check_pass(tasks, results, work: Path, reference: dict | None, tally: Tally, label: str):
    """Compare every task's outputs with the reference and with the first
    pass's bytes; each task with any mismatch counts as one failure."""
    for task, res in zip(tasks, results):
        tally.attempted += 1
        problems = []
        if res.error is not None:
            problems.append("raised: " + res.error.strip().splitlines()[-1])
        else:
            out_dir = work / task.name
            obs = task.observe(out_dir, res.exit_code, res.raw)
            if reference is None or task.name not in reference:
                problems.append("no reference recorded")
            else:
                problems.extend(compare(reference[task.name], obs))
            digests = file_digests(out_dir) if out_dir.is_dir() else {}
            first = tally.digests.setdefault(task.name, digests)
            if digests != first:
                problems.append("output files differ from the first pass")
        if problems:
            tally.failed += 1
            tally.fail(f"{label} {task.name}: " + "; ".join(problems[:3]))


def load_reference(workload: str, slot: int) -> dict | None:
    data = json.loads(REFERENCE_PATH.read_text())
    return data["workloads"].get(workload, {}).get(str(slot))


# ------------------------------------------------------------------ provenance


def _git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(root: Path) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinning": {var: os.environ.get(var) for var in PIN_VARS},
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ a run


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result record."""
    slot = workloads.slot_of(seed)
    work = BENCH_DIR / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    targets, missing = spans.resolve_targets()
    reference = load_reference(workload, slot)
    tally = Tally()
    try:
        # set-up is sampled between the timed passes, outside their timing,
        # so it sees the same stretch of machine speed as wall_s does
        build_s, tasks = build_seconds(workload, slot, work / "inputs")
        setup = {"import_s": [], "build_s": [build_s]}

        walls, task_times = [], {t.name: [] for t in tasks}
        start = perf_counter()
        while not walls or perf_counter() - start < seconds:
            for _ in range(SETUP_PROBES_PER_PASS):
                setup["import_s"].append(import_seconds(root))
                if len(setup["build_s"]) < len(setup["import_s"]):
                    # same seed, so the same bytes as the files the passes read
                    setup["build_s"].append(build_seconds(workload, slot, work / "inputs")[0])
            spans.check_pristine(targets)
            wall, results = run_pass(tasks, work)
            walls.append(wall)
            for task, res in zip(tasks, results):
                task_times[task.name].append(res.seconds)
            check_pass(tasks, results, work, reference, tally, f"pass {len(walls)}")
        wall_s = statistics.median(walls)
        setup_s = statistics.median(setup["import_s"]) + statistics.median(setup["build_s"])

        record = {"walls": walls, "setup": setup}
        if trace:
            with spans.traced(targets) as recorder:
                traced_wall, results = run_pass(tasks, work)
            check_pass(tasks, results, work, reference, tally, "traced pass")
            units = metric_units("per_layer")
            metrics = spans.layer_metrics(recorder.spans, traced_wall, wall_s)
            record["traced_wall"] = traced_wall
            record["span_count"] = len(recorder.spans)
            record["span_names"] = {
                name: {k: v for k, v in agg.items() if k != "by_size"}
                for name, agg in spans.aggregate(recorder.spans)["names"].items()
            }
        else:
            spans.check_pristine(targets)
            tracemalloc.start()
            try:
                record["peak_pass_s"], results = run_pass(tasks, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            check_pass(tasks, results, work, reference, tally, "peak pass")
            units = metric_units("end_to_end")
            metrics = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "peak_mb": peak / 1e6,
                "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": workload,
        "seed": seed,
        "input_set": slot,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(root),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "missing_wrap_points": missing,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "task_median_s": {name: statistics.median(v) for name, v in task_times.items()},
        "passes": len(walls),
        **record,
    }


def write_result(record: dict) -> Path:
    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path
