"""Per-layer spans recorded from outside the program.

The benchmark wraps public functions at the names their callers look them
up by (``phaselock.cli.simulate``, ``phaselock.dynamics.theta_dot``, ...),
only for the traced pass, and puts the originals back afterwards. A span
holds its name, start, end and parent, and is kept in memory. The layers
are the package modules: cli, experiments, netfile, network, dynamics,
planar, analysis.

A wrap point whose name no longer exists is skipped and listed as missing
in the result file; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "experiments", "netfile", "network", "dynamics", "planar", "analysis")

# (module, attribute looked up by the caller, span name)
WRAP_POINTS = (
    ("phaselock.cli", "main", "cli.main"),
    ("phaselock.cli", "parse_network", "netfile.parse_network"),
    ("phaselock.network", "OscillatorNetwork.__post_init__", "network.build"),
    ("phaselock.cli", "simulate", "dynamics.simulate"),
    ("phaselock.experiments", "simulate", "dynamics.simulate"),
    ("phaselock.dynamics", "simulate_many", "dynamics.simulate_many"),
    ("phaselock.analysis", "simulate_many", "dynamics.simulate_many"),
    ("phaselock.dynamics", "theta_dot", "dynamics.theta_dot"),
    ("phaselock.dynamics", "Trajectory.edge_x", "dynamics.edge_x"),
    ("phaselock.cli", "vector_field_grid", "dynamics.vector_field_grid"),
    ("phaselock.experiments", "vector_field_grid", "dynamics.vector_field_grid"),
    ("phaselock.cli", "run_experiment", "experiments.run_experiment"),
    ("phaselock.analysis", "coupling_bounds", "analysis.coupling_bounds"),
    ("phaselock.analysis", "solve_equilibrium", "analysis.solve_equilibrium"),
    ("phaselock.experiments", "solve_equilibrium", "analysis.solve_equilibrium"),
    ("phaselock.analysis", "classify_stability", "analysis.classify_stability"),
    ("phaselock.experiments", "classify_stability", "analysis.classify_stability"),
    ("phaselock.analysis", "invariance_certificate", "analysis.invariance_certificate"),
    ("phaselock.analysis", "_sample_box_states", "analysis.sample_box_states"),
    ("phaselock.planar", "simulate_planar", "planar.simulate_planar"),
    ("phaselock.planar", "global_sync_verdict", "planar.global_sync_verdict"),
    ("phaselock.planar", "direction_cone_estimate", "planar.cones"),
    ("phaselock.planar", "nontangency_planar", "planar.cones"),
)

# spans of these names also record the network size of their call
SIZED = {"dynamics.theta_dot": "us", "analysis.classify_stability": "ms"}
THETA_DOT_SIZES = (5, 10, 50, 100, 200)
CLASSIFY_SIZES = (2, 3, 5, 20, 30, 40)
INTEGRATORS = ("dynamics.simulate", "dynamics.simulate_many")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    size: int | None = None  # network size of the call, for SIZED names
    raised: bool = False
    info: object = None  # steps of an integrator call, (stayed, samples) of a certificate

    @property
    def duration(self) -> float:
        return self.end - self.start


def _network_size(args, kwargs):
    for value in (*args, *kwargs.values()):
        n = getattr(value, "n_oscillators", None)
        if n is not None:
            return int(n)
    return None


def _result_info(name: str, result):
    try:
        if name == "dynamics.simulate":
            return result.n_steps
        if name == "dynamics.simulate_many":
            return result[0].n_steps if result else 0
        if name == "analysis.invariance_certificate":
            return (int(result.n_stayed), int(result.n_samples))
    except (AttributeError, TypeError, IndexError):
        pass
    return None


class Recorder:
    """Collects spans from wrapped callables, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        _network_size(args, kwargs) if sized else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            span.info = _result_info(name, result)
            return result

        return wrapper


@dataclass(frozen=True)
class Target:
    owner: object  # module or class that holds the attribute
    attr: str
    name: str
    original: object


def resolve_targets(points=WRAP_POINTS) -> tuple[list[Target], list[str]]:
    """Find every wrap point; returns the targets and the missing points."""
    targets, missing = [], []
    for module_name, path, name in points:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{path}")
            continue
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # only attributes the owner defines itself can be put back exactly
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
            continue
        targets.append(Target(owner, attr, name, vars(owner)[attr]))
    return targets, missing


def check_pristine(targets: list[Target]) -> None:
    """Raise unless every wrapped attribute holds its original again."""
    stale = [f"{t.owner.__name__}.{t.attr}" for t in targets if vars(t.owner)[t.attr] is not t.original]
    if stale:
        raise RuntimeError(f"span wrappers still installed on {stale}")


@contextmanager
def traced(targets: list[Target]):
    """Install span wrappers for the duration of the block."""
    recorder = Recorder()
    try:
        for t in targets:
            setattr(t.owner, t.attr, recorder.wrap(t.name, t.original))
        yield recorder
    finally:
        for t in targets:
            setattr(t.owner, t.attr, t.original)
        check_pristine(targets)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Raises ValueError if a span does not lie inside its parent, which is
    what guarantees that no self time exceeds its parent's duration.
    """
    own = [s.duration for s in spans]
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            p = spans[s.parent]
            if not (s.parent < idx and p.start <= s.start and s.end <= p.end):
                raise ValueError(f"span {idx} ({s.name}) is not nested in its parent {p.name}")
            own[s.parent] -= s.duration
    return own


def aggregate(spans: list[Span]) -> dict:
    """Busy, self and call totals per span name, per layer and per size.

    ``busy`` counts only spans with no ancestor of the same name, so a
    name that calls itself is not counted twice.
    """
    names: dict[str, dict] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    for s, self_time in zip(spans, self_times(spans)):
        outermost = True
        a = s.parent
        while a >= 0:
            if spans[a].name == s.name:
                outermost = False
                break
            a = spans[a].parent
        agg = names.setdefault(
            s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0, "by_size": {}}
        )
        agg["calls"] += 1
        agg["self_s"] += self_time
        agg["raised"] += s.raised
        if outermost:
            agg["busy_s"] += s.duration
        if s.size is not None:
            calls, busy = agg["by_size"].get(s.size, (0, 0.0))
            agg["by_size"][s.size] = (calls + 1, busy + s.duration)
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time
    return {"names": names, "layer_self_s": layers}


def _integrator_steps(spans: list[Span]) -> int:
    """RK4 steps from the trajectories returned by outermost integrator calls."""
    steps = 0
    for s in spans:
        if s.name not in INTEGRATORS or s.info is None:
            continue
        a = s.parent
        while a >= 0 and spans[a].name not in INTEGRATORS:
            a = spans[a].parent
        if a < 0:
            steps += s.info
    return steps


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric the spans give, 0 where its layer did not run.

    BENCHMARK.json ``per_layer`` names the ones a run reports.
    """
    agg = aggregate(spans)
    names = agg["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in sorted({point[2] for point in WRAP_POINTS}):
        for key in ("busy_s", "self_s", "calls", "raised"):
            out[f"{name}.{key}"] = get(name, key)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = agg["layer_self_s"][layer]
    for name, unit in SIZED.items():
        sizes = THETA_DOT_SIZES if name == "dynamics.theta_dot" else CLASSIFY_SIZES
        scale = 1e6 if unit == "us" else 1e3
        by_size = names.get(name, {}).get("by_size", {})
        for n in sizes:
            calls, busy = by_size.get(n, (0, 0.0))
            out[f"{name}.{unit}_per_call.n{n}"] = scale * busy / calls if calls else 0.0

    steps = _integrator_steps(spans)
    out["dynamics.rk4_steps"] = steps
    out["dynamics.evals_per_step"] = get("dynamics.theta_dot", "calls") / steps if steps else 0.0
    certs = [s.info for s in spans if s.name == "analysis.invariance_certificate" and s.info]
    samples = sum(c[1] for c in certs)
    out["analysis.cert.stayed_frac"] = sum(c[0] for c in certs) / samples if samples else 0.0
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
