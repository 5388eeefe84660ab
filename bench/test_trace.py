"""Self-time arithmetic of the benchmark's span recorder."""

from __future__ import annotations

import pytest

from bench.trace import Span, Tracer, layer_times, self_times, union_length


def test_union_length_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(0, "root", 0.0, 10.0),
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),   # overlaps a: counted once
        Span(3, "c", 8.0, 12.0, parent=0),  # runs past the parent: clipped
        Span(4, "d", 1.5, 2.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)


def test_layer_times_are_medians_over_roots_of_summed_self_time():
    spans = [
        Span(0, "setup", 0.0, 10.0),
        Span(1, "exec.compile", 1.0, 3.0, parent=0, key="wide"),
        Span(2, "exec.compile", 4.0, 5.0, parent=0, key="deep"),
        Span(3, "setup", 20.0, 30.0),
        Span(4, "exec.compile", 21.0, 26.0, parent=3, key="wide"),
        Span(5, "setup", 40.0, 50.0),
        Span(6, "exec.compile", 41.0, 42.0, parent=5, key="wide"),
        Span(7, "analysis.check_plan", 42.0, 42.5, parent=6),
    ]
    layers = layer_times(spans)
    # per-root compile sums 3, 5 and 0.5 (the nested check is not compile)
    assert layers["exec.compile_s"] == pytest.approx(3.0)
    assert layers["exec.compile_s.wide"] == pytest.approx(2.0)
    assert layers["exec.compile_s.deep"] == pytest.approx(1.0)
    assert layers["analysis.check_plan_s"] == pytest.approx(0.5)
    assert "setup_s" not in layers


def test_tracer_nests_spans_and_records_external_ones():
    tracer = Tracer()
    with tracer.span("op") as root:
        with tracer.span("exec.solve") as child:
            assert tracer.current() == child
        tracer.record("service.request", 1.0, 2.0, parent=root, request=7)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["exec.solve"].parent == root
    assert by_name["op"].parent is None
    assert by_name["service.request"].request == 7
    assert tracer.current() is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("op"):
        tracer.record("service.request", 0.0, 1.0)
    assert tracer.spans == []
