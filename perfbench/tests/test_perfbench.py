"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def dt():
    return W.import_dtlab()


def _content(inputs):
    return {k: v for k, v in inputs.items() if k != "measures"}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(dt, workload):
    v = W.variant_of(7)
    first = _content(W.build_inputs(workload, v, dt))
    again = _content(W.build_inputs(workload, W.variant_of(7), W.import_dtlab()))
    assert repr(first) == repr(again)
    assert first == _content(W.build_inputs(workload, v, dt))
    assert first != _content(W.build_inputs(workload, W.variant_of(8), dt))


def test_altered_answer_counts_as_failure(dt):
    expected = W.load_expected()["workloads"]["params"][0]
    inputs = W.build_inputs("params", 0, dt)
    label, measure = inputs["measures"][0]
    call = W._call("report", dt.solvers.parameter_report, measure, inputs["tables"][0])
    assert W.count_failures([call], expected[:1])[0] == 0

    wrong = dataclasses.replace(call.answer, det_cost=call.answer.det_cost + 1)
    assert W.count_failures([W.Call("report", wrong)], expected[:1])[0] == 1
    assert W.count_failures([W.Call("report", error=ValueError())], expected[:1])[0] == 1
    assert W.count_failures([], expected[:1])[0] == 1


def test_altered_answer_feeds_error_rate(monkeypatch):
    run = R.Run("closure", 0)
    calls = W.run_pass("closure", run.inputs, run.dt)
    run.timed_pass(R.Clock())
    assert (run.attempted, run.failed) == (2, 0)

    members = calls[1].answer.members
    members[0], members[1] = members[1], members[0]  # emission order is part of the answer
    monkeypatch.setattr(W, "run_pass", lambda *a: calls)
    run.timed_pass(R.Clock())
    assert (run.attempted, run.failed) == (4, 1)


def test_metric_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(R.E2E_METRICS)
    assert layer == tracing.layer_metrics()
    names = [n for n, _ in e2e + layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_tracer_patches_every_binding_and_restores():
    dt = W.import_dtlab()  # the tracer patches the copy that sys.modules holds
    inputs = W.build_inputs("params", 0, dt)
    _, measure = inputs["measures"][0]
    table = dt.randgen.random_table(2, 3, 5, seed=1)
    plain = dt.solvers.parameter_report(measure, table)
    original = dt.explorer.det_tree_cost

    tracer = tracing.Tracer()
    tracer.install(dt)
    try:
        assert dt.explorer.det_tree_cost is not original
        traced = dt.solvers.parameter_report(measure, table)
        list(dt.randgen.enumerate_small_tables(2, 1, 1))
    finally:
        tracer.uninstall()
    assert dt.explorer.det_tree_cost is original
    assert W.call_digest(W.Call("report", traced)) == W.call_digest(W.Call("report", plain))

    m = tracer.layer_medians()
    assert m["solvers.parameter_report.calls"] == 1
    assert m["measures.ComplexityMeasure.set_cost.calls"] > 0
    assert m["randgen.enumerate_small_tables.calls"] == 6  # five tables, then exhaustion
    for name in tracing.span_names():
        assert 0 <= m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(W, "SRC", tmp_path)
    with pytest.raises(W.BenchError):
        W.import_dtlab()
