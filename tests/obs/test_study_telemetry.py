"""Telemetry through the study facade: identical answers, rich traces.

The load-bearing contract: instrumentation observes a run without
changing it.  Every engine must produce bit-identical results with
telemetry on and off at the same seed, and the ``data`` payloads of the
emitted trace must be deterministic given that seed.
"""

import json
import warnings

import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.fleet import stationary_timeline
from repro.optimize import DesignSpace
from repro.study import EstimatorPolicy, Scenario, SystemSpec, run
import repro.study.engine as engine_module

MODEL = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def _point_scenario(**policy_kwargs):
    policy_kwargs.setdefault("engine", "auto")
    policy_kwargs.setdefault("trials", 300)
    policy_kwargs.setdefault("seed", 11)
    return Scenario(
        question="mttdl",
        system=SystemSpec(model=MODEL),
        max_time_hours=1e6,
        policy=EstimatorPolicy(**policy_kwargs),
    )


def _fleet_scenario(seed=4):
    return Scenario(
        question="fleet_survival",
        timeline=stationary_timeline(MODEL, 2.0),
        members=400,
        chunk_size=200,
        policy=EstimatorPolicy(engine="fleet", seed=seed),
    )


def _frontier_scenario():
    return Scenario(
        question="frontier",
        space=DesignSpace(media=("drive:cheetah",)),
        budget=500000.0,
        policy=EstimatorPolicy(engine="auto", trials=300, seed=1),
    )


def _headline(result):
    return (
        result.value,
        result.std_error,
        result.ci_low,
        result.ci_high,
        result.trials,
        result.losses,
        result.censored,
        result.method,
    )


class TestObservationDoesNotPerturb:
    @pytest.mark.parametrize(
        "scenario_factory",
        [_point_scenario, _fleet_scenario, _frontier_scenario],
        ids=["point", "fleet", "frontier"],
    )
    def test_bit_identical_with_telemetry_on(self, scenario_factory):
        plain = run(scenario_factory())
        observed = run(scenario_factory(), telemetry=obs.Telemetry())
        assert _headline(observed) == _headline(plain)

    def test_fleet_workers_identical_with_telemetry_on(self):
        plain = run(_fleet_scenario(), jobs=2)
        observed = run(_fleet_scenario(), jobs=2, telemetry=obs.Telemetry())
        assert _headline(observed) == _headline(plain)

    def test_session_always_restored(self):
        with pytest.raises(ValueError):
            run(_point_scenario(), jobs=0, telemetry=obs.Telemetry())
        assert obs.current() is obs.NULL


class TestDetailsSurface:
    def test_no_payloads_by_default(self):
        result = run(_point_scenario())
        assert "telemetry" not in result.details
        assert "profile" not in result.details
        assert result.telemetry is None

    def test_telemetry_payload_when_registry_passed(self):
        result = run(_point_scenario(), telemetry=obs.Telemetry())
        payload = result.telemetry
        assert payload is result.details["telemetry"]
        snapshot = obs.TelemetrySnapshot.from_dict(payload)
        assert snapshot.counters["events.study_start"] == 1
        assert snapshot.counters["events.study_end"] == 1
        assert {"setup", "kernel", "merge"} <= set(snapshot.spans)
        # The payload must serialise: it rides StudyResult.to_json.
        json.dumps(payload)

    def test_frontier_spans_in_telemetry(self):
        result = run(_frontier_scenario(), telemetry=obs.Telemetry())
        spans = obs.TelemetrySnapshot.from_dict(result.telemetry).spans
        assert {"setup", "kernel", "merge"} <= set(spans)

    def test_fleet_spans_cover_the_kernel(self):
        tel = obs.Telemetry()
        result = run(_fleet_scenario(), telemetry=tel)
        snapshot = tel.snapshot()
        covered = sum(
            snapshot.spans[name][1]
            for name in ("setup", "kernel", "merge")
        )
        assert covered <= result.wall_time_seconds
        assert covered >= 0.5 * result.wall_time_seconds
        assert snapshot.counters["fleet.chunks"] == 2
        assert snapshot.spans["worker.fleet_chunk"][0] == 2


class TestTraceDeterminism:
    def _data_sequence(self, tmp_path, name, **run_kwargs):
        path = tmp_path / name
        with obs.TraceWriter(path) as writer:
            run(
                _point_scenario(engine="is", trials=200, bias=8.0),
                telemetry=obs.Telemetry(trace=writer),
                **run_kwargs,
            )
        return [
            (record["event"], record["data"])
            for record in obs.read_trace(path)
        ]

    def test_same_seed_same_data_payloads(self, tmp_path):
        first = self._data_sequence(tmp_path, "a.jsonl")
        second = self._data_sequence(tmp_path, "b.jsonl")
        assert first == second
        events = [event for event, _ in first]
        assert events[0] == "study_start"
        assert events[-1] == "study_end"
        assert "engine_resolved" in events
        assert "estimate" in events

    def test_trace_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.TraceWriter(path) as writer:
            run(_fleet_scenario(), telemetry=obs.Telemetry(trace=writer))
        assert obs.validate_trace(path) > 0


class TestWarningDedup:
    def test_duplicate_warnings_collapse(self, monkeypatch):
        from repro.simulation.estimators import HighCensoringWarning

        reference = run(_point_scenario())

        def noisy_stub(scenario):
            for _ in range(3):
                warnings.warn(
                    "9 of 10 trials were censored", HighCensoringWarning
                )
            warnings.warn("something else", UserWarning)
            warnings.warn("something else", UserWarning)
            return reference

        monkeypatch.setattr(
            engine_module, "_run_point_estimate", noisy_stub
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(_point_scenario())
        assert result.warnings == ("9 of 10 trials were censored",)
        emitted = [(w.category, str(w.message)) for w in caught]
        assert emitted == [
            (HighCensoringWarning, "9 of 10 trials were censored"),
            (UserWarning, "something else"),
        ]


class TestCacheCounters:
    def _corrupt(self, cache_dir):
        entries = list(cache_dir.glob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{not json", encoding="utf-8")
        return len(entries)

    def test_fleet_cache_miss_hit_error(self, tmp_path):
        cache_dir = tmp_path / "cache"

        def counters(run_kwargs):
            tel = obs.Telemetry()
            result = run(
                _fleet_scenario(), cache_dir=cache_dir, telemetry=tel
            )
            return result, tel.snapshot().counters

        cold, cold_counters = counters({})
        assert cold_counters["cache.fleet.miss"] == 2
        assert cold_counters["cache.fleet.store"] == 2
        assert "cache.fleet.hit" not in cold_counters
        assert cold.details["summary"]["cache_errors"] == 0

        warm, warm_counters = counters({})
        assert warm_counters["cache.fleet.hit"] == 2
        assert "cache.fleet.miss" not in warm_counters
        assert warm.details["summary"]["cache_hits"] == 2
        assert _headline(warm) == _headline(cold)

        self._corrupt(cache_dir)
        broken, broken_counters = counters({})
        assert broken_counters["cache.fleet.error"] == 2
        assert broken.details["summary"]["cache_errors"] == 2
        # Corrupt entries degrade to re-simulation, not wrong answers.
        assert _headline(broken) == _headline(cold)

    def test_optimize_cache_errors(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run(_frontier_scenario(), cache_dir=cache_dir)
        assert cold.details["summary"]["cache_errors"] == 0
        corrupted = self._corrupt(cache_dir)

        tel = obs.Telemetry()
        broken = run(
            _frontier_scenario(), cache_dir=cache_dir, telemetry=tel
        )
        assert broken.details["summary"]["cache_errors"] == corrupted
        assert tel.snapshot().counters["cache.optimize.error"] == corrupted
        assert _headline(broken) == _headline(cold)
