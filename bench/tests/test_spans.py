import json

import pytest

from bench.report import MAX_UNTRACED_SHARE, trace_checks
from bench.spans import Span, SpanRecorder, chrome_trace, self_times, unit_rows


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _recorded():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("chip-fast", "workload"):
        clock.now = 1.0
        with rec.span("chip00-classic", "unit"):
            clock.now = 1.5
            with rec.span("denoise", "layer", denoise_px=100):
                clock.now = 3.5
            with rec.span("register", "layer", candidates=50):
                clock.now = 6.5
            with rec.span("cache.store", "layer", store_bytes=10):
                clock.now = 6.75
            with rec.span("cache.store", "layer", store_bytes=30):
                clock.now = 7.0
            clock.now = 7.25
        clock.now = 8.0
    return rec.spans


def test_self_time_subtracts_children():
    spans = _recorded()
    own = self_times(spans)
    by_name = {s.name: s for s in spans if s.kind != "layer"}
    assert own[by_name["chip00-classic"].id] == pytest.approx(0.75)
    assert own[by_name["chip-fast"].id] == pytest.approx(1.0 + 0.75)
    assert own[next(s.id for s in spans if s.name == "denoise")] == pytest.approx(2.0)


def test_overlapping_children_are_not_double_counted():
    spans = [
        Span(0, "unit", "unit", None, 0.0, 10.0),
        Span(1, "a", "layer", 0, 1.0, 5.0),
        Span(2, "b", "layer", 0, 3.0, 6.0),
        Span(3, "c", "layer", 0, 8.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_unit_rows_sum_layers_and_report_untraced_time():
    (row,) = unit_rows(_recorded())
    assert row["unit"] == "chip00-classic"
    assert row["wall_s"] == pytest.approx(6.25)
    assert row["layers"] == pytest.approx(
        {"denoise": 2.0, "register": 3.0, "cache.store": 0.5}
    )
    assert row["counts"] == {"denoise_px": 100.0, "candidates": 50.0, "store_bytes": 40.0}
    assert row["untraced_s"] == pytest.approx(0.75)
    assert sum(row["layers"].values()) + row["untraced_s"] == pytest.approx(row["wall_s"])


def test_untraced_row_fails_the_completeness_check_above_five_percent():
    (row,) = unit_rows(_recorded())
    assert row["untraced_s"] / row["wall_s"] > MAX_UNTRACED_SHARE
    check = trace_checks([row], "rescore")["untraced time within 5% of each unit's wall"]
    assert not check["ok"]


def test_chrome_trace_is_trace_event_json():
    trace = json.loads(json.dumps(chrome_trace(_recorded())))
    events = trace["traceEvents"]
    assert {e["ph"] for e in events} == {"X"}
    unit = next(e for e in events if e["cat"] == "unit")
    assert unit["ts"] == pytest.approx(1e6)
    assert unit["dur"] == pytest.approx(6.25e6)
    assert unit["args"]["self_us"] == pytest.approx(0.75e6)
    layer = next(e for e in events if e["name"] == "register")
    assert layer["args"]["parent_id"] == unit["args"]["span_id"]


def test_open_span_has_no_duration():
    with pytest.raises(ValueError):
        Span(0, "x", "unit", None, 0.0).seconds
