"""Span nesting, self-time arithmetic and the Chrome trace export."""

import json

import pytest

from perfbench.tracing import (Span, Tracer, chrome_trace, self_times,
                               totals_by_name)


def _span(id, start, end, parent=None, name="s"):
    return Span(id, name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1), _span(3, 5.0, 6.0, 1),
             _span(4, 1.0, 2.0, 2)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_and_clips():
    # Two concurrent requests under one parent overlap on [3, 4]; a third
    # child runs past the parent's end and only its inside part counts.
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 4.0, 1), _span(3, 3.0, 6.0, 1),
             _span(4, 9.0, 12.0, 1)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_tracer_records_parents_and_requests():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", request_id=7) as inner:
            pass
        tracer.add("request", 1.0, 2.0, parent=outer, request_id=8,
                   track="slot 0")
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == outer
    assert by_name["inner"].request_id == 7
    assert by_name["outer"].parent is None
    assert by_name["request"].track == "slot 0"
    assert inner != outer
    totals = totals_by_name(tracer.spans)
    assert totals["outer"]["count"] == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x") as span_id:
        assert span_id is None
    assert tracer.add("y", 0.0, 1.0) is None
    assert tracer.spans == []


def test_chrome_trace_is_valid_trace_event_json():
    tracer = Tracer()
    with tracer.span("lift.trees", scenario="photoshop/blur"):
        pass
    tracer.add("serve.request", 5.0, 5.5, track="request slot 1")
    trace = json.loads(json.dumps(chrome_trace([("main", tracer.spans)])))
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"lift.trees", "serve.request"}
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
    tids = {e["tid"] for e in complete}
    assert len(tids) == 2                      # one track per thread/slot
    names = [e for e in trace["traceEvents"] if e["name"] == "process_name"]
    assert names[0]["args"]["name"] == "main"
