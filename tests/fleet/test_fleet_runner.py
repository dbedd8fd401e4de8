"""Tests for chunked, parallel, cached fleet execution."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.fleet.runner import (
    FleetChunkCache,
    _chunk_sizes,
    chunk_cache_key,
    simulate_fleet,
)
from repro.fleet.timeline import FleetEpoch, FleetTimeline, stationary_timeline


def fast_model():
    return FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def timeline():
    return stationary_timeline(fast_model(), 2.0, annual_cost_per_member=50.0)


class TestChunking:
    def test_chunk_sizes_cover_the_fleet(self):
        assert _chunk_sizes(2500, 1000) == [1000, 1000, 500]
        assert _chunk_sizes(1000, 1000) == [1000]
        assert _chunk_sizes(3, 10) == [3]

    def test_parallel_equals_serial(self):
        serial = simulate_fleet(
            timeline(), members=800, seed=5, jobs=1, chunk_size=200
        )
        parallel = simulate_fleet(
            timeline(), members=800, seed=5, jobs=4, chunk_size=200
        )
        assert serial.tally.as_dict() == parallel.tally.as_dict()

    def test_chunk_seeds_are_order_independent(self):
        # The same fleet in one chunk vs several: different layouts are
        # different (equally valid) populations, but each layout is
        # fully deterministic.
        once = simulate_fleet(timeline(), members=600, seed=5, chunk_size=200)
        again = simulate_fleet(timeline(), members=600, seed=5, chunk_size=200)
        assert once.tally.as_dict() == again.tally.as_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fleet(timeline(), members=0)
        with pytest.raises(ValueError):
            simulate_fleet(timeline(), members=10, chunk_size=0)
        with pytest.raises(ValueError):
            simulate_fleet(timeline(), members=10, jobs=0)


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        first = simulate_fleet(
            timeline(), members=600, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        second = simulate_fleet(
            timeline(), members=600, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        assert first.new_chunks == 3
        assert first.cache_hits == 0
        assert second.new_chunks == 0
        assert second.cache_hits == 3
        assert second.tally.as_dict() == first.tally.as_dict()

    def test_different_seed_misses(self, tmp_path):
        simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        other = simulate_fleet(
            timeline(), members=200, seed=6, chunk_size=200,
            cache_dir=tmp_path,
        )
        assert other.new_chunks == 1

    def test_corrupted_entry_degrades_to_resimulation(self, tmp_path):
        run = simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        key = chunk_cache_key(timeline(), 200, 5, 0)
        cache = FleetChunkCache(tmp_path)
        cache._path(key).write_text("not json", encoding="utf-8")
        redo = simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        assert redo.new_chunks == 1
        assert redo.tally.as_dict() == run.tally.as_dict()

    def test_key_depends_on_timeline_content(self):
        base = timeline()
        changed = FleetTimeline(
            years=2.0,
            epochs=(
                FleetEpoch(
                    0.0, fast_model(), annual_cost_per_member=51.0
                ),
            ),
        )
        assert chunk_cache_key(base, 200, 5, 0) != chunk_cache_key(
            changed, 200, 5, 0
        )


class TestFleetResult:
    def test_summary_and_curves(self):
        result = simulate_fleet(timeline(), members=600, seed=5)
        summary = result.summary()
        assert summary["members"] == 600
        assert summary["losses"] == result.tally.losses
        assert 0 <= summary["loss_fraction"] <= 1
        assert summary["loss_ci_low"] <= summary["loss_fraction"]
        assert summary["loss_fraction"] <= summary["loss_ci_high"]
        curve = result.survival_curve()
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 0)

    def test_cost_trajectory_accumulates_base_and_repairs(self):
        result = simulate_fleet(timeline(), members=600, seed=5)
        per_year = result.cost_per_member_by_year()
        # Base cost is $50/member-year; simulated repairs add on top.
        assert per_year[0] >= 50.0
        cumulative = result.cumulative_cost_per_member()
        assert np.all(np.diff(cumulative) >= 0)
        assert cumulative[-1] == pytest.approx(per_year.sum())
        assert result.summary()["total_cost_per_member"] == pytest.approx(
            cumulative[-1]
        )

    def test_as_dict_is_json_serialisable(self):
        result = simulate_fleet(timeline(), members=200, seed=5)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["summary"]["members"] == 200
        # The curve spans year boundaries 0..ceil(years) only — the
        # histogram overflow bin is not a simulated year.
        assert len(payload["survival_curve"]) == 3
        assert len(payload["cumulative_cost_per_member"]) == 2

    def test_shock_schedule_is_shared_across_chunks(self):
        from repro.fleet.timeline import RegionalShockModel

        shocks = RegionalShockModel(
            rate_per_year=0.5, regions=1, replica_penetration=1.0
        )
        shocked = FleetTimeline(
            years=2.0,
            epochs=(FleetEpoch(0.0, fast_model(), shocks=shocks),),
        )
        coarse = simulate_fleet(
            shocked, members=2000, seed=3, chunk_size=2000
        )
        fine = simulate_fleet(shocked, members=2000, seed=3, chunk_size=100)
        # The schedule is a fleet fact keyed by the root seed: cutting
        # the fleet into more chunks must not multiply the shocks.
        assert (
            coarse.summary()["shock_events"]
            == fine.summary()["shock_events"]
        )


class TestRunnerIdentity:
    """Serial and pooled runs, with telemetry off and on, agree exactly."""

    def _run(self, jobs, telemetry):
        with obs.session(telemetry):
            return simulate_fleet(
                timeline(), members=800, seed=5, jobs=jobs, chunk_size=200
            )

    def test_jobs_and_telemetry_do_not_change_the_tally(self):
        tallies = [
            self._run(jobs, telemetry).tally.as_dict()
            for jobs in (1, 2)
            for telemetry in (obs.NULL, obs.Telemetry())
        ]
        assert all(tally == tallies[0] for tally in tallies)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_chunk_time_per_simulated_chunk(self, jobs, tmp_path):
        # Four chunks, one of them cached: only the three simulated
        # chunks report a worker time.
        simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        tel = obs.Telemetry()
        with obs.session(tel):
            result = simulate_fleet(
                timeline(), members=800, seed=5, jobs=jobs, chunk_size=200,
                cache_dir=tmp_path,
            )
        snapshot = tel.snapshot()
        assert result.new_chunks == 3
        assert snapshot.histograms["fleet.chunk_seconds"][0] == 3
        assert snapshot.spans["worker.fleet_chunk"][0] == 3
        assert snapshot.counters["events.chunk"] == 3


class TestAtomicCache:
    def test_failed_publish_leaves_a_miss(self, tmp_path, monkeypatch):
        cache = FleetChunkCache(tmp_path)
        tally = simulate_fleet(timeline(), members=50, seed=1).tally

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            cache.put("k", tally)
        monkeypatch.undo()
        assert cache.lookup("k") == (None, "miss")
        assert list(tmp_path.iterdir()) == []
