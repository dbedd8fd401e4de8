"""Tests for chunked, parallel, cached fleet execution."""

import hashlib
import inspect
import json
import os

import numpy as np
import pytest

from repro import obs, study
from repro.cli import build_parser
from repro.core.parameters import FaultModel
from repro.fleet.aggregate import FleetTally
from repro.fleet.runner import (
    DEFAULT_CHUNK_SIZE,
    _chunk_sizes,
    chunk_cache_key,
    simulate_fleet,
)
from repro.fleet.timeline import FleetEpoch, FleetTimeline, stationary_timeline
from repro.store import Store


def fast_model():
    return FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def timeline():
    return stationary_timeline(fast_model(), 2.0, annual_cost_per_member=50.0)


def lossy_timeline():
    """Two years that lose ~2% of the members.  ``fast_model`` loses
    every member, which would make comparing two tallies vacuous."""
    return stationary_timeline(FaultModel(5e4, 1e4, 1.0, 1.0, 50.0, 1.0), 2.0)


class TestChunking:
    def test_chunk_sizes_cover_the_fleet(self):
        assert _chunk_sizes(2500, 1000) == [1000, 1000, 500]
        assert _chunk_sizes(1000, 1000) == [1000]
        assert _chunk_sizes(3, 10) == [3]
        assert _chunk_sizes(25_000, DEFAULT_CHUNK_SIZE) == [
            10_000, 10_000, 5_000
        ]

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


class TestDefaultGeometry:
    """The default partition depends on the fleet, never on ``jobs``."""

    def test_jobs_do_not_change_a_default_fleet(self):
        serial = simulate_fleet(lossy_timeline(), members=25_000, seed=5)
        pooled = simulate_fleet(
            lossy_timeline(), members=25_000, seed=5, jobs=2
        )
        assert 0 < serial.tally.loss_fraction < 1
        assert serial.chunks == pooled.chunks == 3
        assert serial.tally.as_dict() == pooled.tally.as_dict()

    def test_growing_a_cached_fleet_pays_only_for_new_members(
        self, tmp_path
    ):
        first = simulate_fleet(
            lossy_timeline(), members=20_000, seed=5, cache_dir=tmp_path
        )
        grown = simulate_fleet(
            lossy_timeline(), members=25_000, seed=5, cache_dir=tmp_path
        )
        cold = simulate_fleet(lossy_timeline(), members=25_000, seed=5)
        assert first.new_chunks == 2
        assert grown.cache_hits == 2
        assert grown.new_chunks == 1
        assert grown.tally.as_dict() == cold.tally.as_dict()


class TestSingleDefault:
    """The runner owns the default chunk size; every layer reads it."""

    def test_every_layer_defaults_to_the_runner_constant(self):
        plan = lossy_timeline()
        built = study.Scenario(question="fleet_survival", timeline=plan)
        loaded = study.Scenario.from_dict(
            {"question": "fleet_survival", "timeline": plan.as_dict()}
        )
        cli = build_parser().parse_args(["fleet"])
        runner = inspect.signature(simulate_fleet).parameters["chunk_size"]
        assert DEFAULT_CHUNK_SIZE == 10_000
        assert built.chunk_size == DEFAULT_CHUNK_SIZE
        assert loaded.chunk_size == DEFAULT_CHUNK_SIZE
        assert cli.chunk_size == DEFAULT_CHUNK_SIZE
        assert runner.default == DEFAULT_CHUNK_SIZE

    def test_a_scenario_file_with_chunk_size_1000_keeps_its_chunks(self):
        # Scenario files written under the old default carry the size
        # explicitly, so they keep reproducing their answers.
        payload = study.Scenario(
            question="fleet_survival",
            timeline=lossy_timeline(),
            members=3000,
            policy=study.EstimatorPolicy(engine="fleet", seed=5),
        ).as_dict()
        payload["chunk_size"] = 1000
        result = study.run(study.Scenario.from_dict(payload))
        direct = simulate_fleet(
            lossy_timeline(), members=3000, seed=5, chunk_size=1000
        )
        assert result.details["summary"]["chunks"] == 3000 // 1000
        assert result.details == direct.as_dict()


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
        (tmp_path / f"fleet-{key}.json").write_text(
            "not json", encoding="utf-8"
        )
        redo = simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        assert redo.new_chunks == 1
        assert redo.tally.as_dict() == run.tally.as_dict()

    def test_entry_under_the_unversioned_recipe_is_a_miss(self, tmp_path):
        # The recipe before the kernel version joined the key: a tally
        # stored under it was drawn from an older kernel stream and must
        # be re-simulated, not merged with chunks of the current one.
        legacy_key = hashlib.sha256(
            json.dumps(
                {
                    "timeline": timeline().as_dict(),
                    "members": 200,
                    "seed": 5,
                    "chunk": 0,
                },
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()[:32]
        stale = simulate_fleet(
            timeline(), members=200, seed=6, chunk_size=200
        ).tally
        Store(tmp_path, "fleet").put(legacy_key, stale.as_dict())
        run = simulate_fleet(
            timeline(), members=200, seed=5, chunk_size=200,
            cache_dir=tmp_path,
        )
        assert chunk_cache_key(timeline(), 200, 5, 0) != legacy_key
        assert run.cache_hits == 0
        assert run.new_chunks == 1

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
        store = Store(tmp_path, "fleet")
        tally = simulate_fleet(timeline(), members=50, seed=1).tally

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        assert store.put("k", tally.as_dict()) == "write_error"
        monkeypatch.undo()
        assert store.get("k", FleetTally.from_dict) == (None, "miss")
        assert list(tmp_path.iterdir()) == []
        assert store.counts == {"write_error": 1, "miss": 1}
