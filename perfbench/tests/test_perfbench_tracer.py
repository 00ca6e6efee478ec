"""Tests of the benchmark's span tracer (not of the library it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracer import Tracer, instrument  # noqa: E402


class FakeClock:
    """Advances by a distinct amount on every reading, so no two spans tie."""

    def __init__(self) -> None:
        self.now = 0.0
        self.step = 0.0

    def __call__(self) -> float:
        self.step += 0.125
        self.now += self.step
        return self.now


def _nested_calls(tracer: Tracer):
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def root_body():
        middle()
        leaf()

    return tracer.wrap("root", root_body)


def _children(tracer: Tracer, parent):
    return [span for span in tracer.events if span.parent_id == parent.span_id]


def test_spans_nest():
    tracer = Tracer(clock=FakeClock())
    root = _nested_calls(tracer)
    root()
    root()
    by_id = {span.span_id: span for span in tracer.events}
    assert len(by_id) == len(tracer.events) == 10
    roots = [span for span in tracer.events if span.parent_id is None]
    assert [span.name for span in roots] == ["root", "root"]
    assert all(span.depth == 0 for span in roots)
    for span in tracer.events:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert span.depth == parent.depth + 1
        assert parent.start <= span.start
        assert span.start + span.duration <= parent.start + parent.duration
    assert sorted(span.name for span in _children(tracer, roots[0])) == ["leaf", "middle"]
    middle = next(span for span in tracer.events if span.name == "middle")
    assert [span.name for span in _children(tracer, middle)] == ["leaf", "leaf"]


def test_self_time_plus_children_equals_duration():
    tracer = Tracer(clock=FakeClock())
    root = _nested_calls(tracer)
    root()
    root()
    for span in tracer.events:
        children = sum(child.duration for child in _children(tracer, span))
        assert span.self_s + children == pytest.approx(span.duration, abs=1e-12)
    # Over a whole tree, the self times add up to the root's duration.
    for root_span in (span for span in tracer.events if span.parent_id is None):
        tree, frontier = [root_span], [root_span]
        while frontier:
            frontier = [child for span in frontier for child in _children(tracer, span)]
            tree += frontier
        assert sum(span.self_s for span in tree) == pytest.approx(root_span.duration, abs=1e-12)
    assert tracer.root_seconds() == pytest.approx(sum(t[1] for t in tracer.totals().values()))


def test_totals_and_chrome_trace():
    tracer = Tracer(clock=FakeClock())
    _nested_calls(tracer)()
    totals = tracer.totals()
    assert {name: calls for name, (calls, _) in totals.items()} == {
        "root": 1,
        "middle": 1,
        "leaf": 3,
    }
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert all(event["ph"] == "X" and event["dur"] > 0 for event in events)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    outer = tracer.wrap("outer", tracer.wrap("inner", boom))
    with pytest.raises(ValueError):
        outer()
    assert [span.name for span in tracer.events] == ["inner", "outer"]
    assert tracer._stack == []


def test_instrument_patches_where_looked_up_and_undo_restores():
    sweeps = pytest.importorskip("repro.experiments.sweeps")
    from repro.core import batch_solvers, cost_engine
    from repro.matching import greedy
    from repro.nn.gcn import GCN
    from repro.tensor.module import Module

    original = greedy.greedy_assignment_batch
    execute_spec = sweeps.execute_spec
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        # Patched where it is looked up: the importing module and a registry.
        assert cost_engine.greedy_assignment_batch is not original
        assert batch_solvers.BATCH_SOLVERS["greedy"] is not original
        assert sweeps.execute_spec is not execute_spec
        assert "__call__" in vars(GCN)
    finally:
        undo()
    assert cost_engine.greedy_assignment_batch is original
    assert greedy.greedy_assignment_batch is original
    assert batch_solvers.BATCH_SOLVERS["greedy"] is original
    assert sweeps.execute_spec is execute_spec
    assert "__call__" not in vars(GCN)
    assert GCN.__call__ is Module.__call__
