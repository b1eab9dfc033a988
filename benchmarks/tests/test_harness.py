"""Tests of the benchmark harness itself: python -m pytest -q benchmarks/tests"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),         # overlaps a: together they cover [1, 6]
        Span(3, "c", 8.0, 12.0, 0),        # runs past the parent: only [8, 10] counts
        Span(4, "a.child", 2.0, 3.0, 1),   # nested under a, not a child of parent
        Span(5, "d", 5.0, 5.5, 0),         # inside b's interval, adds nothing
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)


def test_tracer_parents_follow_the_call_stack():
    tracer = Tracer("t")
    inner = tracer.wrap(lambda: 1, "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    assert outer() == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize("n, p", [(1000, 99), (100, 90), (101, 90), (50, 80), (20, 50), (19, None)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    assert tracing.tail_percentile(n) == p
    if p is not None:
        assert n - math.ceil(p * n / 100) >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_per_call_summary():
    values = [float(v) for v in range(100, 0, -1)]
    mid, tail, n = tracing.per_call_summary(values)
    assert (mid, tail, n) == (50.5, 90.0, 100)
    assert sum(v > tail for v in values) == 10
    assert tracing.per_call_summary([3.0, 1.0, 2.0]) == (2.0, 2.0, 3)  # n < 20: tail = median
    assert tracing.per_call_summary([]) == (0.0, 0.0, 0)


@pytest.mark.parametrize("bad", ["", ".a", "a b", "a/b", "ms%", "x" * 65, "é"])
def test_metric_names_outside_the_charset_are_refused(bad):
    with pytest.raises(ValueError):
        tracing.check_name(bad)


def test_every_metric_name_is_valid_and_listed_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for name in list(end_to_end) + list(per_layer):
        tracing.check_name(name)
    assert set(end_to_end) == set(run.END_TO_END_UNITS)
    assert set(per_layer) == set(tracing.PER_LAYER_METRICS)
    assert len(tracing.PER_LAYER_METRICS) == len(set(tracing.PER_LAYER_METRICS))
    for name, unit in run.END_TO_END_UNITS.items():
        assert end_to_end[name]["unit"] == unit
    for name in per_layer:
        assert per_layer[name]["unit"] == tracing.metric_unit(name)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_failed_share_arithmetic():
    tally = workloads.Tally()
    with pytest.raises(ValueError):
        tally.failed_share
    for i in range(12):
        tally.check(i % 4 != 0, f"op {i}")
    assert (tally.attempted, tally.failed) == (12, 3)
    assert tally.failed_share == pytest.approx(0.25)
    assert tally.ok_share == pytest.approx(0.75)
    assert tally.failures == ["op 0", "op 4", "op 8"]


def test_instrument_times_forward_and_backward_and_restores_the_package():
    from taxossm import numcore as nc

    original = nc.matmul
    tracer = Tracer("t")
    x = nc.Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    with tracing.instrument(tracer):
        assert nc.matmul is not original
        nc.backward(nc.tsum(nc.silu(nc.matmul(x, x))))
    assert nc.matmul is original
    by_name = {s.name: s for s in tracer.spans}
    assert {"numcore.matmul", "numcore.silu", "numcore.tsum", "numcore.backward",
            "numcore.matmul.bwd", "numcore.silu.bwd"} <= set(by_name)
    sweep = by_name["numcore.backward"].id
    assert by_name["numcore.matmul.bwd"].parent == sweep
    assert by_name["numcore.matmul"].attrs["node"] == 1
    assert x.grad is not None


def test_layer_metrics_sum_self_time_per_train_step():
    spans = [
        Span(0, "train.zero_grad", 0.0, 0.001, None),
        Span(1, "numcore.matmul", 0.010, 0.012, None, {"node": 1}),
        Span(2, "numcore.add", 0.012, 0.013, None, {"node": 1}),
        Span(3, "numcore.backward", 0.020, 0.030, None),
        Span(4, "numcore.matmul.bwd", 0.021, 0.025, 3),
        Span(5, "train.adamw_step", 0.030, 0.031, None),
        Span(6, "numcore.matmul", 0.050, 0.060, None, {"node": 1}),  # outside any step
    ]
    m = tracing.layer_metrics(spans, epochs=1)
    assert m["train.steps"] == 1
    assert m["numcore.matmul.fwd_ms"] == pytest.approx(2.0)
    assert m["numcore.matmul.bwd_ms"] == pytest.approx(4.0)
    assert m["numcore.pointwise.fwd_ms"] == pytest.approx(1.0)
    assert m["numcore.backward.sweep_ms"] == pytest.approx(6.0)
    assert m["numcore.nodes_per_step"] == 2
    assert m["numcore.calls"] == 5
    assert m["ssm.calls"] == 0
    assert set(m) == set(tracing.PER_LAYER_METRICS) - {"trace.overhead_pct"}


def test_best_times_take_each_step_shortest_time_over_rounds():
    rounds = [{"fit": 2.0, "use": 0.5}, {"fit": 1.5, "use": 0.7}, {"fit": 1.8, "use": 0.6}]
    assert workloads.best_times(rounds) == {"fit": 1.5, "use": 0.5}


def test_until_stops_before_a_pass_that_would_overrun(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.5, 4.0])  # start, then the end of each pass
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    # passes end at 1.0 and 2.0; a third, as long as the second (1.0 s), would end at
    # 3.0 <= 3.2, but the one after it (1.5 s) would end at 5.0, so there are three
    assert sum(1 for _ in run.until(3.2)) == 3


def test_until_runs_one_pass_even_past_the_budget(monkeypatch):
    clock = iter([0.0, 10.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    assert sum(1 for _ in run.until(1.0)) == 1
