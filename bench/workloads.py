"""Benchmark workloads: inputs generated from the seed, and task lists.

Each workload is a fixed list of tasks run as a closed loop by one client
in one process: a task starts only after the previous one returned. Tasks
are in-process ``phaselock.cli.main`` calls, plus public library calls
where the CLI has no entry point. The program only ever sees the generated
network files and arguments.

Why each workload exists is written down in WORKLOADS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import phaselock
from phaselock import planar

from check import fingerprint, summarize

# Seed s uses input set s % N_SLOTS; reference.json holds the recorded
# outputs of every set (see record_reference.py).
N_SLOTS = 16

WORKLOADS = ("sim-sparse", "analyze-dense")


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    ``argv`` is a CLI invocation (``--out`` is appended per task); a library
    task has ``call(out_dir)`` instead. ``observe(out_dir, exit_code, raw)``
    reads what the task produced and returns the observation that is
    compared with the reference.
    """

    name: str
    observe: Callable
    argv: tuple[str, ...] | None = None
    call: Callable | None = None


def slot_of(seed: int) -> int:
    return seed % N_SLOTS


def _rng(workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), slot])


def _complete_at_thresholds(rng, n: int, factor: float) -> phaselock.OscillatorNetwork:
    """Complete graph with every gain at ``factor`` times its per-edge
    sufficient threshold (N/2)|omega_i - omega_j|."""
    omega = rng.uniform(-1.0, 1.0, n)
    i, j = np.triu_indices(n, 1)  # the lexicographic edge order
    gains = factor * 0.5 * n * np.abs(omega[i] - omega[j])
    return phaselock.OscillatorNetwork(n, omega, gains)


def _ring_plus_chords(rng, n: int) -> phaselock.OscillatorNetwork:
    """Ring plus n/10 random chords, all at gain 5N.

    The per-edge coupling 5 is strong against the frequency spread of 1, so
    the flow contracts and round-off does not grow along a trajectory.
    """
    gains = np.zeros(phaselock.edge_count(n))
    for i in range(n):
        a, b = sorted((i, (i + 1) % n))
        gains[phaselock.edge_index(n, a, b)] = 5.0 * n
    chords = 0
    while chords < n // 10:
        a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        k = phaselock.edge_index(n, a, b)
        if gains[k] == 0.0:
            gains[k] = 5.0 * n
            chords += 1
    omega = rng.uniform(-0.5, 0.5, n)
    return phaselock.OscillatorNetwork(n, omega, gains)


def _theta0_arg(rng, n: int) -> str:
    # one token with '=', because a leading '-' would read as an option
    return "--theta0=" + ",".join(repr(float(v)) for v in rng.uniform(-0.3, 0.3, n))


def _write(net, path: Path) -> str:
    phaselock.write_network(net, path)
    return str(path)


# ---------------------------------------------------------------- observations


def _csv_table(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _trajectory_summary(path: Path) -> dict:
    """Row count, end time and final-row node frequencies of a trajectory."""
    header, table = _csv_table(path)
    dots = [c for c, name in enumerate(header) if name.startswith("thetadot_")]
    return {
        "rows": int(table.shape[0]),
        "t_end": float(table[-1, 0]),
        "final_thetadot": fingerprint(table[-1, dots]),
    }


def observe_outputs(out_dir: Path, exit_code, raw) -> dict:
    """Exit code plus a summary of every file a CLI task wrote: JSON
    reports in full, trajectories by their final row, other CSV tables
    whole."""
    obs = {"exit": exit_code}
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        if path.suffix == ".json":
            obs[path.name] = summarize(json.loads(path.read_text()))
        elif path.name == "trajectory.csv":
            obs[path.name] = _trajectory_summary(path)
        elif path.suffix == ".csv":
            header, table = _csv_table(path)
            obs[path.name] = {"header": header, "table": fingerprint(table)}
    return obs


def _observe_batch(out_dir: Path, exit_code, raw) -> dict:
    steps, final_thetas, final_dots = raw
    # phases enter through sin and cos, so the wrap at +-pi cannot flip them
    return {
        "exit": exit_code,
        "steps": steps,
        "final_phasors": fingerprint([np.cos(final_thetas), np.sin(final_thetas)]),
        "final_thetadot": fingerprint(final_dots),
    }


def _observe_sweep(out_dir: Path, exit_code, raw) -> dict:
    verdicts, fixed_points, finals = raw
    return {
        "exit": exit_code,
        "synchronizes": verdicts,
        "stable_fixed_points": fingerprint([v for v in fixed_points if v is not None]),
        "final_states": fingerprint(finals),
    }


# ---------------------------------------------------------------- workloads


def _cli(name: str, *argv: str) -> Task:
    return Task(name=name, observe=observe_outputs, argv=tuple(argv))


def _batch(path: str, theta0s: np.ndarray) -> Callable:
    """Batched integration through the public ``simulate_many``, from
    starts drawn here rather than by the certificate's sampler."""

    def call(out_dir):
        net = phaselock.parse_network(path)
        # looked up on every call, so the traced pass sees the wrapper
        runs = phaselock.dynamics.simulate_many(net, theta0s, 5.0, 0.01)
        final_thetas = np.array([run.thetas[-1] for run in runs])
        final_dots = np.array([run.theta_dots[-1] for run in runs])
        return [run.n_steps for run in runs], final_thetas, final_dots

    return call


def _sim_sparse(rng, in_dir: Path) -> list[Task]:
    """Integration: large sparse networks, a batched certificate, and the
    small-N field regime."""
    tasks = []
    for n, t_end in ((50, "10"), (100, "5"), (200, "1")):
        path = _write(_ring_plus_chords(rng, n), in_dir / f"ring{n}.json")
        tasks.append(_cli(f"simulate-n{n}", "simulate", "--network", path,
                          "--t-end", t_end, "--dt", "0.01", _theta0_arg(rng, n)))
    path10 = _write(_complete_at_thresholds(rng, 10, 1.2), in_dir / "complete10.json")
    tasks.append(_cli("invariance-n10", "invariance", "--network", path10, "--samples", "400",
                      "--t-end", "5", "--dt", "0.01", "--seed", str(int(rng.integers(0, 2**31)))))
    path = _write(_complete_at_thresholds(rng, 5, 1.5), in_dir / "complete5.json")
    tasks.append(_cli("simulate-n5", "simulate", "--network", path,
                      "--t-end", "20", "--dt", "0.01", _theta0_arg(rng, 5)))
    tasks.append(_cli("experiment-five_network", "experiment", "five_network"))
    # the certificate's CLI output holds only verdicts, which pass whatever
    # the trajectories are; this task checks the batched path's floats
    tasks.append(Task(name="batch-n10", observe=_observe_batch,
                      call=_batch(path10, rng.uniform(-0.6, 0.6, (10, 40)))))
    return tasks


def _dichotomy_sweep(rng) -> Callable:
    """Two-oscillator dichotomy through the planar layer.

    Each (K, delta_omega) pair sits clearly on one side of |delta_omega| = K.
    Starts lie on the consistency line x2 = delta_omega - K sin x1, so the
    planar flow reproduces the pair's own dynamics; they start inside
    |x1| < 1.2, away from the unstable fixed point.
    """
    pairs = []
    for idx in range(4):
        k = float(rng.uniform(0.5, 2.0))
        ratio = rng.uniform(0.0, 0.8) if idx % 2 == 0 else rng.uniform(1.25, 2.0)
        pairs.append((k, float(ratio * k * rng.choice((-1.0, 1.0)))))
    x1 = np.linspace(-1.2, 1.2, 8)

    def call(out_dir):
        verdicts, fixed_points, finals = [], [], []
        for k, dw in pairs:
            p = planar.PlanarParams(k=k, delta_omega=dw)
            report = planar.global_sync_verdict(p)
            x0 = np.column_stack([x1, dw - k * np.sin(x1)])
            _, states = planar.simulate_planar(p, x0, 10.0, 0.01)
            verdicts.append(report.synchronizes)
            fixed_points.append(report.stable_fixed_point)
            finals.append(states[-1])
        return verdicts, fixed_points, np.array(finals)

    return call


def _analyze_dense(rng, in_dir: Path) -> list[Task]:
    """No ``dynamics.simulate`` integration: equilibrium, spectrum and
    bounds on dense and small networks, portraits, the three-chain
    experiment and the planar dichotomy sweep with its own RK4 loop."""
    tasks = []
    for n in (20, 30, 40, 2, 3, 5):
        path = _write(_complete_at_thresholds(rng, n, 1.5), in_dir / f"complete{n}.json")
        tasks.append(_cli(f"analyze-n{n}", "analyze", "--network", path))
        tasks.append(_cli(f"bounds-n{n}", "bounds", "--network", path))
        if n in (2, 3):
            tasks.append(_cli(f"portrait-n{n}", "portrait", "--network", path, "--grid", "41"))
    tasks.append(_cli("experiment-three_chain", "experiment", "three_chain"))
    tasks.append(Task(name="dichotomy-sweep", observe=_observe_sweep, call=_dichotomy_sweep(rng)))
    return tasks


_BUILDERS = {"sim-sparse": _sim_sparse, "analyze-dense": _analyze_dense}


def build_tasks(workload: str, slot: int, in_dir: Path) -> list[Task]:
    """Generate and write the workload's input networks for one input set,
    and return its task list."""
    in_dir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](_rng(workload, slot), in_dir)
