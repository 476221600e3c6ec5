"""Span recorder: self-time arithmetic, nesting, and wrapping circlelab."""

import pytest

import spans
from circlelab import ModulusSpec, experiments, homeo
from circlelab.core import PiecewiseLinearFunction


def _span(start, end, parent):
    return spans.Span("s", start, end, parent, "r")


def test_self_time_subtracts_children_on_synthetic_spans():
    tree = [
        _span(0.0, 10.0, -1),  # 0: root
        _span(1.0, 4.0, 0),  # 1: child
        _span(2.0, 3.0, 1),  # 2: grandchild
        _span(5.0, 9.0, 0),  # 3: child
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_takes_the_union_of_overlapping_children_clipped_to_parent():
    tree = [
        _span(0.0, 10.0, -1),
        _span(1.0, 5.0, 0),
        _span(4.0, 6.0, 0),  # overlaps the previous child by 1
        _span(9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_requests_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    tracer.blocks, tracer.request_index = 3, 5
    assert outer(1) == 4
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [("outer", -1, "J3/5"), ("inner", 0, "J3/5")]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_install_wraps_every_lookup_site_and_restores_them():
    originals = (experiments.superpose, experiments.minimize, PiecewiseLinearFunction.__call__)
    tracer = spans.Tracer()
    restore = spans.install(tracer, obstruct=True)
    try:
        assert experiments.superpose is not originals[0]
        assert homeo.superpose is experiments.superpose
        records = experiments.run_obstruction(ModulusSpec.power(1 / 3), [1], budget=8, restarts=2)
    finally:
        restore()
    assert (experiments.superpose, experiments.minimize, PiecewiseLinearFunction.__call__) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("experiments.objective") == 8
    assert names.count("scipy.minimize") == 2
    assert names.count("homeo.superpose") == 2 * records[0].evals
    objective = [s for s in tracer.spans if s.name == "experiments.objective"]
    assert [s.request for s in objective] == [f"J1/{i}" for i in range(1, 9)]
    untraced = experiments.run_obstruction(ModulusSpec.power(1 / 3), [1], budget=8, restarts=2)
    assert untraced[0].best_raw == records[0].best_raw
