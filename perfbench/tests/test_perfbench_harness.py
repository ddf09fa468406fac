"""Tests of the benchmark harness itself: percentiles, span arithmetic, op accounting, input determinism.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.data.synthetic import ScenarioSpec  # noqa: E402
from spans import Span, Tracer, inclusive_time, self_time, self_times  # noqa: E402


# --------------------------------------------------------------------------- #
# the percentile rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (21, 52), (100, 90), (199, 94), (200, 95), (210, 95), (999, 98), (1000, 99), (5000, 99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    p = harness.highest_percentile(n)
    assert p == expected
    if p is not None:
        rank = -(-p * n // 100)
        assert n - rank >= 10
        if p < 99:  # one percentile higher would leave fewer than ten beyond
            assert n - (-(-(p + 1) * n // 100)) < 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(200, 0, -1)]
    assert harness.percentile(values, 50) == 100.0
    assert harness.percentile(values, 95) == 190.0
    assert harness.percentile([7.0], 95) == 7.0


def test_latency_summary_refuses_an_unsupported_p95():
    with pytest.raises(ValueError):
        harness.latency_summary("request_ms", [0.001] * 199)
    summary = harness.latency_summary("request_ms", [i / 1000 for i in range(1, 201)])
    assert summary == {"request_ms_p50": 100.0, "request_ms_p95": 190.0}


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 1),  # overlaps a: the union 1..6 is subtracted once
        Span(4, "leaf", 2.0, 3.0, 2, 1),
        Span(5, "b", 7.0, 8.0, 1, 1),
    ]
    times = self_times(spans)
    assert times == {1: 10.0 - 6.0, 2: 3.0 - 1.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert self_time(spans, "b") == 4.0
    assert inclusive_time(spans, {"a", "leaf"}) == 3.0  # the leaf nests in a: counted once
    assert inclusive_time(spans, {"leaf", "b"}) == 5.0


class _Layer:
    def outer(self, depth):
        return self.inner(depth) + 1

    def inner(self, depth):
        return self.outer(depth - 1) if depth else 0


def test_tracer_links_parents_and_roots_and_uninstalls():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer")
    tracer.wrap(_Layer, "inner", after=lambda t, args, result: t.count("inner.calls"))
    try:
        with tracer.span("request"):
            assert _Layer().outer(1) == 2
    finally:
        tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (request,) = by_name["request"]
    assert request.parent is None and request.root == request.sid
    assert all(span.root == request.sid for span in tracer.spans)
    outer_first = min(by_name["_Layer.outer"], key=lambda span: span.start)
    assert outer_first.parent == request.sid
    assert tracer.counts["inner.calls"] == 2
    assert len(tracer.spans) == 5
    for span in tracer.spans:
        assert 0.0 <= self_times(tracer.spans)[span.sid] <= span.duration


class _Checker:
    def __init__(self):
        self.work = 0

    def check(self):
        self.work += 1
        return True


def test_only_calls_inside_a_root_span_are_recorded():
    tracer = Tracer()
    tracer.wrap(_Checker, "check", after=lambda t, args, result: t.count("check.calls"))
    tracer.watch(_Checker, "__init__", lambda t, args, result: t.keep("checkers", args[0]))
    tracer.gauge("check.work", lambda: sum(c.work for c in tracer.objects["checkers"].values()))
    try:
        shared = _Checker()  # created outside any operation, used inside and outside
        shared.check()  # an output check between operations: not recorded
        with tracer.span("request"):
            shared.check()
            _Checker().check()
        shared.check()
    finally:
        tracer.uninstall()
    assert len(tracer.objects["checkers"]) == 2  # watch sees every call
    assert [span.name for span in tracer.spans] == ["_Checker.check", "_Checker.check", "request"]
    assert tracer.counts["check.calls"] == 2
    assert tracer.counts["check.work"] == 2  # growth inside the request only


# --------------------------------------------------------------------------- #
# op accounting
# --------------------------------------------------------------------------- #
def test_op_counter_counts_failures_without_raising():
    ops = harness.OpCounter()
    assert ops.record(True) and not ops.record(False, "mismatch")
    assert (ops.attempted, ops.failed, ops.failures) == (2, 1, ["mismatch"])


def test_a_wrong_prediction_counts_in_ops_failed(monkeypatch):
    world = workloads._world(ScenarioSpec(n_entities=16, n_positives=4, n_negatives=8), seed=5, order_seed=5)
    held_out = world.examples.all()
    requests = [held_out[i : i + 2] for i in range(0, len(held_out), 2)]
    world = workloads.World(**{**world.__dict__, "requests": requests, "warmup": requests[:1]})

    honest = workloads.run_serving([world], workloads.CONFIG)
    assert honest.ops.failed == 0 and honest.ops.attempted == 1 + len(requests)

    def flipped(engine, model, examples):
        return [not verdict for verdict in honest_expected(engine, model, examples)]

    honest_expected = workloads._expected
    monkeypatch.setattr(workloads, "_expected", flipped)
    broken = workloads.run_serving([world], workloads.CONFIG)
    assert broken.ops.attempted == honest.ops.attempted
    assert broken.ops.failed == len(requests)
    assert len(broken.cpu["request"]) == len(requests)


# --------------------------------------------------------------------------- #
# the CPU clock of the process tree
# --------------------------------------------------------------------------- #
def _spin_then_sleep(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    time.sleep(30)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="child CPU clocks are read the Linux way")
def test_cpu_clock_counts_the_work_of_child_processes():
    child = multiprocessing.get_context("spawn").Process(target=_spin_then_sleep, args=(0.4,))
    before = workloads.cpu_times()
    child.start()  # born inside the interval: its clock counts from 0
    try:
        time.sleep(1.5)  # this process only waits
        assert child.pid in workloads.cpu_times()
        used = workloads.cpu_since(before)
        own = time.process_time() - before[0]
    finally:
        child.terminate()
        child.join()
    assert used - own >= 0.4
    assert child.pid not in workloads.cpu_times()


# --------------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", ["churn", "cv-search"])
def test_inputs_are_byte_identical_for_a_seed(workload):
    first = [world.fingerprint() for world in workloads.generate_inputs(workload, 3, 1)]
    again = [world.fingerprint() for world in workloads.generate_inputs(workload, 3, 1)]
    other = [world.fingerprint() for world in workloads.generate_inputs(workload, 4, 1)]
    assert first == again
    assert first != other


def test_churn_holds_back_source_b_rows_as_deltas():
    (world, *_) = workloads.generate_inputs("churn", 3, 1)
    delta_rows = [row for delta in world.deltas for row in delta]
    assert delta_rows and all(delta for delta in world.deltas)
    assert all(name.startswith("syn_b_") for name, _ in delta_rows)
    held_from = workloads.SERVE_SPEC.n_entities - workloads.CHURN_HELD_ENTITIES
    assert all(workloads._entity_of(row[0]) >= held_from for _, row in delta_rows)
    assert all(workloads._entity_of(example.values[0]) < held_from for example in world.examples.all())
    keys = [frozenset(e.values for e in request) for request in world.warmup + world.requests]
    assert len(keys) == len(set(keys))
