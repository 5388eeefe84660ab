"""Tests for structured tracing (:mod:`repro.obs.trace`).

Pins the causal-tree contract (per-thread parent stacks, parent ids
across nesting), error status propagation, and the atomic-superset
flush semantics ``repro obs tail`` relies on.
"""

import json
import threading

import pytest

from repro.obs.trace import Tracer


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        events = tracer.events()
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert events[0]["parent_id"] == events[1]["span_id"]
        assert events[1]["parent_id"] is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = tracer.events()
        assert a["parent_id"] == root.span_id
        assert b["parent_id"] == root.span_id

    def test_threads_have_independent_stacks(self):
        tracer = Tracer()
        ready = threading.Event()
        release = threading.Event()

        def other():
            with tracer.span("other.root"):
                ready.set()
                release.wait(timeout=30)

        t = threading.Thread(target=other)
        with tracer.span("main.root"):
            t.start()
            ready.wait(timeout=30)
            with tracer.span("main.child"):
                pass
            release.set()
        t.join()
        by_name = {e["name"]: e for e in tracer.events()}
        # the other thread's open span must not become main's parent
        assert (by_name["main.child"]["parent_id"]
                == by_name["main.root"]["span_id"])
        assert by_name["other.root"]["parent_id"] is None

    def test_exit_time_tags_and_duration(self):
        tracer = Tracer()
        with tracer.span("work", system="s") as sp:
            sp.tag(batch_size=4)
        (event,) = tracer.events()
        assert event["tags"] == {"system": "s", "batch_size": 4}
        assert event["dur_s"] >= 0.0
        assert event["status"] == "ok"

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (event,) = tracer.events()
        assert event["status"] == "error"
        assert event["tags"]["error"] == "ValueError"

    def test_event_is_parented_under_current_span(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            tracer.event("enqueue", system="s")
        event, _ = tracer.events()
        assert event["parent_id"] == root.span_id
        assert event["dur_s"] == 0.0
        assert event["tags"] == {"system": "s"}


class TestFlush:
    def test_flush_jsonl_superset_and_idempotent(self, tmp_path):
        tracer = Tracer()
        path = str(tmp_path / "trace.jsonl")
        with tracer.span("one"):
            pass
        assert tracer.flush_jsonl(path) == 1
        first = path_lines(path)
        with tracer.span("two"):
            pass
        assert tracer.flush_jsonl(path) == 2
        second = path_lines(path)
        # each flush rewrites a superset: old lines are preserved
        assert second[: len(first)] == first
        assert len(second) == 2
        names = [json.loads(line)["name"] for line in second]
        assert names == ["one", "two"]

    def test_flushed_lines_are_valid_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", obj=object()):
            pass
        path = str(tmp_path / "trace.jsonl")
        tracer.flush_jsonl(path)
        (line,) = path_lines(path)
        event = json.loads(line)
        # non-JSON tag values serialize via str(), never crash a flush
        assert isinstance(event["tags"]["obj"], str)


def path_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()
