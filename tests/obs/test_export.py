"""The Prometheus text exposition in repro.obs.export."""

import math

from repro.obs import Telemetry
from repro.obs.export import metric_name, to_prometheus
from repro.obs.telemetry import TelemetrySnapshot


def test_metric_name_sanitization():
    assert metric_name("cache.fleet.hits") == "repro_cache_fleet_hits"
    assert metric_name("serve.batch.size") == "repro_serve_batch_size"
    assert metric_name("weird-name with spaces") == (
        "repro_weird_name_with_spaces"
    )
    assert metric_name("hits", prefix="") == "hits"
    # A leading digit is not a valid metric-name start.
    assert metric_name("9lives", prefix="")[0] == "_"


def test_empty_snapshot_renders_empty_exposition():
    assert to_prometheus(TelemetrySnapshot()) == ""


def test_counters_render_with_type_and_total_suffix():
    text = to_prometheus(
        TelemetrySnapshot(counters={"serve.requests": 7.0})
    )
    assert "# TYPE repro_serve_requests_total counter" in text
    assert "repro_serve_requests_total 7" in text
    assert text.endswith("\n")


def test_histograms_render():
    snapshot = TelemetrySnapshot(
        histograms={"serve.batch.size": (4.0, 10.0, 1.0, 4.0)},
    )
    text = to_prometheus(snapshot)
    assert "# TYPE repro_serve_batch_size summary" in text
    assert "repro_serve_batch_size_count 4" in text
    assert "repro_serve_batch_size_sum 10" in text
    assert "repro_serve_batch_size_min 1" in text
    assert "repro_serve_batch_size_max 4" in text


def test_spans_render_as_seconds_total_counter():
    text = to_prometheus(
        TelemetrySnapshot(spans={"study.kernel": (3, 0.25)})
    )
    assert "# TYPE repro_study_kernel_span_seconds_total counter" in text
    assert "repro_study_kernel_span_seconds_total 0.25" in text
    assert "repro_study_kernel_span_count 3" in text


def test_non_finite_values_use_prometheus_spellings():
    text = to_prometheus(
        TelemetrySnapshot(
            counters={
                "up": math.inf,
                "down": -math.inf,
                "unknown": math.nan,
            }
        )
    )
    assert "repro_up_total +Inf" in text
    assert "repro_down_total -Inf" in text
    assert "repro_unknown_total NaN" in text


def test_custom_prefix_applies_everywhere():
    snapshot = TelemetrySnapshot(
        counters={"a": 1.0},
        histograms={"b": (1.0, 2.0, 2.0, 2.0)},
        spans={"c": (1, 0.5)},
    )
    text = to_prometheus(snapshot, prefix="svc")
    assert "svc_a_total 1" in text
    assert "svc_b_count 1" in text
    assert "svc_c_span_count 1" in text
    assert "repro_" not in text


def test_live_registry_round_trips_through_exposition():
    tel = Telemetry()
    tel.count("cache.serve.hit", 3)
    tel.observe("serve.batch.size", 4)
    with tel.span("kernel"):
        pass
    text = to_prometheus(tel.snapshot())
    assert "repro_cache_serve_hit_total 3" in text
    assert "repro_serve_batch_size_count 1" in text
    assert "repro_kernel_span_count 1" in text
    # Every sample line is "<name> <value>"; every other line is # TYPE.
    for line in text.strip().splitlines():
        if line.startswith("#"):
            assert line.startswith("# TYPE ")
        else:
            name, value = line.split(" ")
            assert name[0].isalpha() or name[0] == "_"
            float(value)  # parseable, incl. +Inf/NaN spellings
