"""The telemetry registry: snapshot merge algebra, sessions, export.

The snapshot merge tests mirror ``tests/fleet/test_aggregate.py``'s
FleetTally properties: the parallel runners absorb worker snapshots in
whatever order the pool completes them, so merging must be associative
and commutative.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.export import metric_name, to_prometheus

_NAMES = st.sampled_from(["a", "b.c", "cache.fleet.hit", "worker"])
_VALUES = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def snapshots(draw):
    counters = draw(
        st.dictionaries(_NAMES, _VALUES, max_size=3)
    )
    histograms = {}
    for name in draw(st.lists(_NAMES, max_size=2, unique=True)):
        count = draw(st.integers(min_value=1, max_value=50))
        lo = draw(_VALUES)
        hi = lo + draw(_VALUES)
        histograms[name] = (float(count), lo * count, lo, hi)
    spans = {}
    for name in draw(st.lists(_NAMES, max_size=2, unique=True)):
        spans[name] = (
            draw(st.integers(min_value=1, max_value=50)),
            draw(_VALUES),
        )
    return obs.TelemetrySnapshot(
        counters=counters,
        histograms=histograms,
        spans=spans,
    )


def _flat(snapshot):
    """One flat name → float dict, so pytest.approx can compare
    whole snapshots (float addition is only approximately associative)."""
    out = {}
    for name, value in snapshot.counters.items():
        out[f"counter:{name}"] = value
    for name, summary in snapshot.histograms.items():
        for label, value in zip(("count", "total", "min", "max"), summary):
            out[f"hist:{name}:{label}"] = value
    for name, (count, seconds) in snapshot.spans.items():
        out[f"span:{name}:count"] = count
        out[f"span:{name}:seconds"] = seconds
    return out


class TestSnapshotMerge:
    @settings(max_examples=50, deadline=None)
    @given(snapshots(), snapshots())
    def test_merge_is_commutative(self, a, b):
        assert _flat(a.merge(b)) == pytest.approx(_flat(b.merge(a)))

    @settings(max_examples=50, deadline=None)
    @given(snapshots(), snapshots(), snapshots())
    def test_merge_is_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert _flat(left) == pytest.approx(_flat(right))

    @settings(max_examples=25, deadline=None)
    @given(snapshots())
    def test_empty_is_identity(self, snap):
        empty = obs.TelemetrySnapshot()
        assert empty.merge(snap).as_dict() == snap.as_dict()
        assert snap.merge(empty).as_dict() == snap.as_dict()

    @settings(max_examples=25, deadline=None)
    @given(snapshots())
    def test_dict_round_trip(self, snap):
        rebuilt = obs.TelemetrySnapshot.from_dict(snap.as_dict())
        assert rebuilt.as_dict() == snap.as_dict()

    @settings(max_examples=25, deadline=None)
    @given(snapshots(), snapshots())
    def test_absorb_equals_merge(self, a, b):
        tel = obs.Telemetry()
        tel.absorb(a)
        tel.absorb(b)
        assert tel.snapshot().as_dict() == a.merge(b).as_dict()


class TestInstruments:
    def test_counters_sum(self):
        tel = obs.Telemetry()
        tel.count("x")
        tel.count("x", 4)
        assert tel.snapshot().counters["x"] == 5

    def test_histogram_summary(self):
        tel = obs.Telemetry()
        for value in (2.0, 5.0, 3.0):
            tel.observe("h", value)
        assert tel.snapshot().histograms["h"] == (3.0, 10.0, 2.0, 5.0)

    def test_spans_nest_into_dotted_paths(self):
        tel = obs.Telemetry()
        with tel.span("kernel"):
            with tel.span("refine"):
                pass
            with tel.span("refine"):
                pass
        spans = tel.snapshot().spans
        assert spans["kernel"][0] == 1
        assert spans["kernel.refine"][0] == 2
        assert spans["kernel"][1] >= spans["kernel.refine"][1]

    def test_worker_span_snapshot(self):
        snap = obs.worker_span_snapshot("worker.fleet_chunk", 0.25)
        assert snap.spans == {"worker.fleet_chunk": (1, 0.25)}

    def test_event_counts_without_trace(self):
        tel = obs.Telemetry()
        tel.event("cache", data={"outcome": "hit"})
        assert tel.snapshot().counters["events.cache"] == 1


class TestSession:
    def test_defaults_to_null(self):
        assert obs.current() is obs.NULL
        assert not obs.current().enabled

    def test_session_installs_and_restores(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            assert obs.current() is tel
        assert obs.current() is obs.NULL

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.session(obs.Telemetry()):
                raise RuntimeError("boom")
        assert obs.current() is obs.NULL

    def test_null_instruments_record_nothing(self):
        null = obs.NullTelemetry()
        null.count("x")
        null.observe("h", 1.0)
        with null.span("s"):
            pass
        null.event("e", data={"k": 1})
        null.absorb(obs.TelemetrySnapshot(counters={"x": 1.0}))
        assert null.snapshot().empty


class TestPrometheusExport:
    def test_metric_name_sanitises(self):
        assert metric_name("cache.fleet.hit") == "repro_cache_fleet_hit"
        assert metric_name("9lives") == "repro_9lives"
        assert metric_name("a b/c") == "repro_a_b_c"

    def test_exposition_covers_every_instrument(self):
        tel = obs.Telemetry()
        tel.count("cache.fleet.hit", 3)
        tel.observe("fleet.chunk_seconds", 0.5)
        tel.observe("fleet.chunk_seconds", 1.5)
        with tel.span("kernel"):
            pass
        text = to_prometheus(tel.snapshot())
        assert "# TYPE repro_cache_fleet_hit_total counter" in text
        assert "repro_cache_fleet_hit_total 3" in text
        assert "repro_fleet_chunk_seconds_count 2" in text
        assert "repro_fleet_chunk_seconds_sum 2" in text
        assert "repro_kernel_span_count 1" in text
        assert text.endswith("\n")

    def test_non_finite_values_render_prometheus_style(self):
        snap = obs.TelemetrySnapshot(counters={"g": math.inf})
        assert "repro_g_total +Inf" in to_prometheus(snap)
