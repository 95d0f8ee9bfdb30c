"""Self-tests of the benchmark harness: span arithmetic, count ratios,
wrapper install and restore, and failure counting."""

import json
import sys
import types

import numpy as np
import pytest

import harness
import spans
import workloads
from check import compare, file_digests, summarize
from spans import Span



def _span(name, start, end, parent=-1, size=None, info=None):
    return Span(name, float(start), float(end), parent, size, info=info)


def test_self_time_of_nested_spans():
    tree = [
        _span("cli.main", 0, 10),
        _span("dynamics.simulate", 1, 6, parent=0),
        _span("dynamics.theta_dot", 2, 3, parent=1, size=5),
        _span("dynamics.theta_dot", 4, 5.5, parent=1, size=5),
        _span("planar.cones", 7, 9, parent=0),
        _span("planar.cones", 7.5, 8, parent=4),
    ]
    agg = spans.aggregate(tree)
    names = agg["names"]
    assert names["cli.main"]["self_s"] == pytest.approx(3.0)
    assert names["dynamics.simulate"]["self_s"] == pytest.approx(2.5)
    assert names["dynamics.theta_dot"]["busy_s"] == pytest.approx(2.5)
    assert names["dynamics.theta_dot"]["calls"] == 2
    assert names["dynamics.theta_dot"]["by_size"][5] == (2, pytest.approx(2.5))
    # a span nested in one of its own name is not counted twice as busy
    assert names["planar.cones"]["busy_s"] == pytest.approx(2.0)
    assert names["planar.cones"]["self_s"] == pytest.approx(2.0)
    layers = agg["layer_self_s"]
    assert layers["cli"] == pytest.approx(3.0)
    assert layers["dynamics"] == pytest.approx(5.0)
    assert layers["planar"] == pytest.approx(2.0)
    # self times partition the root span
    assert sum(layers.values()) == pytest.approx(tree[0].duration)
    own = spans.self_times(tree)
    assert own == pytest.approx([3.0, 2.5, 1.0, 1.5, 1.5, 0.5])
    for idx, s in enumerate(tree):
        if s.parent >= 0:
            assert own[idx] <= tree[s.parent].duration
    metrics = spans.layer_metrics(tree, traced_wall=10.0, untraced_wall=8.0)
    assert metrics["dynamics.theta_dot.us_per_call.n5"] == pytest.approx(1.25e6)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)


def test_span_outside_its_parent_is_rejected():
    tree = [_span("cli.main", 0, 5), _span("dynamics.simulate", 1, 6, parent=0)]
    with pytest.raises(ValueError, match="not nested"):
        spans.aggregate(tree)


def test_count_ratios():
    tree = [
        _span("dynamics.simulate", 0, 10, info=100),
        _span("dynamics.simulate_many", 0, 10, parent=0, info=100),
        _span("dynamics.simulate_many", 11, 12, info=50),
        _span("analysis.invariance_certificate", 13, 14, info=(100, 100)),
        _span("analysis.invariance_certificate", 15, 16, info=(18, 20)),
    ]
    tree += [_span("dynamics.theta_dot", 1, 1, parent=1)] * 501
    tree += [_span("dynamics.theta_dot", 11, 11, parent=2)] * 251
    metrics = spans.layer_metrics(tree, traced_wall=1.2, untraced_wall=1.0)
    # steps of an integrator called by another integrator count once
    assert metrics["dynamics.rk4_steps"] == 150
    assert metrics["dynamics.theta_dot.calls"] == 752
    assert metrics["dynamics.evals_per_step"] == pytest.approx(752 / 150)
    assert metrics["analysis.cert.stayed_frac"] == pytest.approx(118 / 120)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)
    # layers that did not run read 0
    assert metrics["planar.simulate_planar.busy_s"] == 0
    assert metrics["analysis.classify_stability.ms_per_call.n40"] == 0


def test_wrappers_record_and_are_restored(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Thing:
        def method(self):
            raise KeyError("boom")

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    points = (
        ("fake_layer", "inner", "dynamics.inner"),
        ("fake_layer", "outer", "cli.outer"),
        ("fake_layer", "Thing.method", "analysis.method"),
        ("fake_layer", "gone", "planar.gone"),
    )
    targets, missing = spans.resolve_targets(points)
    assert missing == ["fake_layer.gone"]

    with spans.traced(targets) as recorder:
        assert mod.outer(1) == 4
        with pytest.raises(KeyError):
            Thing().method()
    assert mod.inner is inner and mod.outer is outer and "method" in vars(Thing)
    spans.check_pristine(targets)
    names = [(s.name, s.parent, s.raised) for s in recorder.spans]
    assert names == [("cli.outer", -1, False), ("dynamics.inner", 0, False), ("analysis.method", -1, True)]

    mod.inner = lambda x: x
    with pytest.raises(RuntimeError, match="still installed"):
        spans.check_pristine(targets)


def test_round_off_passes_but_perturbation_and_wrong_verdict_fail():
    x = np.random.default_rng(0).uniform(-1, 1, 780)
    ref = summarize({"classification": "semistable-candidate", "n_zero": 1521, "x": x.tolist()})
    assert compare(ref, ref) == []
    noisy = summarize({"classification": "semistable-candidate", "n_zero": 1521,
                       "x": (x * (1 + 1e-13)).tolist()})
    assert compare(ref, noisy) == []
    bumped = x.copy()
    bumped[123] *= 1 + 1e-5
    for wrong in (
        {"classification": "semistable-candidate", "n_zero": 1521, "x": bumped.tolist()},
        {"classification": "unstable", "n_zero": 1521, "x": x.tolist()},
        {"classification": "semistable-candidate", "n_zero": 1520, "x": x.tolist()},
        {"classification": "semistable-candidate", "n_zero": 1521, "x": x[:-1].tolist()},
        {"classification": "semistable-candidate", "n_zero": 1521},
    ):
        assert compare(ref, summarize(wrong)), wrong


def test_every_bad_task_counts_as_one_failure(tmp_path):
    def observe(out_dir, exit_code, raw):
        return {"exit": exit_code, "verdict": raw}

    tasks = [workloads.Task(name=f"t{i}", observe=observe) for i in range(4)]
    reference = {t.name: {"exit": 0, "verdict": "pass"} for t in tasks}
    for t in tasks:
        (tmp_path / t.name).mkdir()
        (tmp_path / t.name / "out.csv").write_text("1\n")
    tally = harness.Tally()
    ok = [harness.TaskResult(0, "pass", 0.1) for _ in tasks]
    harness.check_pass(tasks, ok, tmp_path, reference, tally, "pass 1")
    assert (tally.attempted, tally.failed) == (4, 0)

    (tmp_path / "t3" / "out.csv").write_text("2\n")  # bytes changed between passes
    bad = [
        harness.TaskResult(0, "pass", 0.1),
        harness.TaskResult(0, "fail", 0.1),  # wrong verdict
        harness.TaskResult(None, None, 0.1, "Traceback\nValueError: boom"),  # raised
        harness.TaskResult(0, "pass", 0.1),
    ]
    harness.check_pass(tasks, bad, tmp_path, reference, tally, "pass 2")
    assert (tally.attempted, tally.failed) == (8, 3)
    assert [f.split(":")[0] for f in tally.failures] == ["pass 2 t1", "pass 2 t2", "pass 2 t3"]
    harness.check_pass(tasks[:1], ok[:1], tmp_path, None, tally, "pass 3")
    assert tally.failed == 4 and "no reference" in tally.failures[-1]


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.build_tasks("analyze-dense", workloads.slot_of(7), tmp_path)
    digests = file_digests(tmp_path)
    second = workloads.build_tasks("analyze-dense", workloads.slot_of(7), tmp_path)
    assert file_digests(tmp_path) == digests
    assert [t.argv for t in first] == [t.argv for t in second]
    workloads.build_tasks("analyze-dense", workloads.slot_of(8), tmp_path)
    assert file_digests(tmp_path) != digests


def test_every_listed_metric_is_computed_and_every_input_set_recorded():
    assert set(harness.metric_units("per_layer")) <= set(spans.layer_metrics([], 1.0, 1.0))
    reference = json.loads(harness.REFERENCE_PATH.read_text())
    assert reference["input_sets"] == workloads.N_SLOTS
    for name in workloads.WORKLOADS:
        assert sorted(reference["workloads"][name], key=int) == [str(s) for s in range(workloads.N_SLOTS)]
