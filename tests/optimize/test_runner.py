"""Tests for the parallel runner and its content-hash result cache."""

import json
import os

import pytest

from repro import obs
from repro.optimize.evaluate import CandidateEvaluation, EvaluationSettings
from repro.optimize.runner import (
    evaluation_cache_key,
    optimize,
    refine_evaluations,
)
from repro.optimize.space import DesignSpace
from repro.simulation.batch import STREAM_VERSION
from repro.store import Store, content_key

SMALL_SPACE = DesignSpace(
    dataset_tb=5.0,
    media=("drive:barracuda", "drive:cheetah"),
    replica_counts=(2, 3),
    audit_rates=(0.0, 52.0),
    placements=("single", "multi"),
)

FAST_SETTINGS = EvaluationSettings(trials=200, seed=9)


class TestOptimize:
    def test_pipeline_counts_are_consistent(self):
        result = optimize(SMALL_SPACE, FAST_SETTINGS)
        assert result.candidates == SMALL_SPACE.size
        assert len(result.survivors) + result.pruned == result.candidates
        assert len(result.refined) == len(result.survivors)
        assert result.new_evaluations == len(result.survivors)
        assert result.cache_hits == 0
        assert all(evaluation.refined for evaluation in result.refined)

    def test_screen_prunes_most_of_the_space(self):
        result = optimize(SMALL_SPACE, FAST_SETTINGS)
        assert result.pruned_fraction >= 0.5

    def test_frontier_is_subset_of_refined(self):
        result = optimize(SMALL_SPACE, FAST_SETTINGS)
        refined_keys = {e.candidate.key() for e in result.refined}
        assert result.frontier
        assert all(e.candidate.key() in refined_keys for e in result.frontier)

    def test_screen_only_mode_skips_simulation(self):
        result = optimize(SMALL_SPACE, FAST_SETTINGS, refine_survivors=False)
        assert result.new_evaluations == 0
        assert not any(evaluation.refined for evaluation in result.refined)
        assert result.frontier

    def test_parallel_matches_serial_exactly(self):
        serial = optimize(SMALL_SPACE, FAST_SETTINGS, jobs=1)
        parallel = optimize(SMALL_SPACE, FAST_SETTINGS, jobs=2)
        assert [e.as_dict() for e in serial.refined] == [
            e.as_dict() for e in parallel.refined
        ]

    def test_summary_shape(self):
        summary = optimize(SMALL_SPACE, FAST_SETTINGS).summary()
        assert summary["candidates"] == SMALL_SPACE.size
        assert summary["pruned_by_screen"] + summary["refined"] == summary["candidates"]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            refine_evaluations([], FAST_SETTINGS, jobs=0)


class TestCache:
    def test_rerun_evaluates_zero_new_candidates(self, tmp_path):
        first = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        second = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        assert first.new_evaluations == len(first.survivors)
        assert second.new_evaluations == 0
        assert second.cache_hits == len(second.survivors)
        assert [e.as_dict() for e in first.refined] == [
            e.as_dict() for e in second.refined
        ]

    def test_enlarged_space_only_pays_for_new_candidates(self, tmp_path):
        optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        larger = DesignSpace(
            dataset_tb=SMALL_SPACE.dataset_tb,
            media=SMALL_SPACE.media,
            replica_counts=SMALL_SPACE.replica_counts,
            audit_rates=SMALL_SPACE.audit_rates + (12.0,),
            placements=SMALL_SPACE.placements,
        )
        second = optimize(larger, FAST_SETTINGS, cache_dir=tmp_path)
        assert second.cache_hits > 0
        assert second.new_evaluations == len(second.survivors) - second.cache_hits
        assert second.new_evaluations < len(second.survivors)

    def test_changed_settings_miss_the_cache(self, tmp_path):
        optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        other = EvaluationSettings(trials=200, seed=10)
        second = optimize(SMALL_SPACE, other, cache_dir=tmp_path)
        assert second.cache_hits == 0
        assert second.new_evaluations == len(second.survivors)

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        first = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        second = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        assert second.cache_hits == 0
        assert second.new_evaluations == len(first.survivors)

    def test_entry_under_the_unversioned_recipe_is_a_miss(self, tmp_path):
        # The recipe before the kernel's stream version joined the key:
        # a refinement stored under it was drawn from an older stream,
        # so a warm run would return what a cold run at the same seed
        # no longer produces.
        cold = optimize(SMALL_SPACE, FAST_SETTINGS)
        store = Store(tmp_path, "optimize")
        for evaluation in cold.refined:
            legacy_key = content_key(
                {
                    "candidate": evaluation.candidate.as_dict(),
                    "settings": FAST_SETTINGS.as_dict(),
                }
            )
            store.put(legacy_key, evaluation.as_dict())
        warm = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        assert warm.cache_hits == 0
        assert warm.new_evaluations == len(warm.survivors)

    def test_entry_under_the_sampled_auto_recipe_is_a_miss(self, tmp_path):
        # The recipe before ``auto`` refined 2-way candidates by
        # conditional Monte-Carlo: a refinement stored under it was
        # sampled, so a warm run would return what a cold run at the
        # same seed no longer produces.
        cold = optimize(SMALL_SPACE, FAST_SETTINGS)
        assert "cv" in {e.simulated.method for e in cold.refined}
        store = Store(tmp_path, "optimize")
        for evaluation in cold.refined:
            legacy_key = content_key(
                {
                    "candidate": evaluation.candidate.as_dict(),
                    "settings": FAST_SETTINGS.as_dict(),
                    "kernel": STREAM_VERSION,
                }
            )
            store.put(legacy_key, evaluation.as_dict())
        warm = optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        assert warm.cache_hits == 0
        assert warm.new_evaluations == len(warm.survivors)

    def test_cache_key_depends_on_candidate_and_settings(self):
        settings = FAST_SETTINGS
        evaluations = optimize(SMALL_SPACE, settings, refine_survivors=False).survivors
        a, b = evaluations[0], evaluations[1]
        assert evaluation_cache_key(a, settings) != evaluation_cache_key(b, settings)
        other = EvaluationSettings(trials=201, seed=9)
        assert evaluation_cache_key(a, settings) != evaluation_cache_key(a, other)

    def test_cache_round_trips_evaluations(self, tmp_path):
        store = Store(tmp_path, "optimize")
        result = optimize(SMALL_SPACE, FAST_SETTINGS)
        refined = result.refined[0]
        key = evaluation_cache_key(refined, FAST_SETTINGS)
        store.put(key, refined.as_dict())
        assert store.get(key, CandidateEvaluation.from_dict) == (
            refined,
            "hit",
        )
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]

    def test_cache_miss_returns_none(self, tmp_path):
        store = Store(tmp_path, "optimize")
        assert store.get("deadbeef", CandidateEvaluation.from_dict) == (
            None,
            "miss",
        )

    def test_cache_files_are_json(self, tmp_path):
        optimize(SMALL_SPACE, FAST_SETTINGS, cache_dir=tmp_path)
        files = list(tmp_path.glob("*.json"))
        assert files
        payload = json.loads(files[0].read_text(encoding="utf-8"))
        assert "candidate" in payload and "simulated" in payload


class TestRunnerIdentity:
    """Serial and pooled refinement, telemetry off and on, agree exactly."""

    def _run(self, jobs, telemetry, cache_dir=None):
        with obs.session(telemetry):
            return optimize(
                SMALL_SPACE, FAST_SETTINGS, jobs=jobs, cache_dir=cache_dir
            )

    def test_jobs_and_telemetry_do_not_change_refinements(self):
        runs = [
            self._run(jobs, telemetry).refined
            for jobs in (1, 2)
            for telemetry in (obs.NULL, obs.Telemetry())
        ]
        assert all(refined == runs[0] for refined in runs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_refine_time_per_new_evaluation(self, jobs, tmp_path):
        tel = obs.Telemetry()
        cold = self._run(jobs, tel, cache_dir=tmp_path)
        snapshot = tel.snapshot()
        assert cold.new_evaluations >= 2
        for count in (
            snapshot.histograms["optimize.refine_seconds"][0],
            snapshot.spans["worker.refine"][0],
            snapshot.counters["events.chunk"],
        ):
            assert count == cold.new_evaluations

        warm_tel = obs.Telemetry()
        warm = self._run(jobs, warm_tel, cache_dir=tmp_path)
        assert warm.new_evaluations == 0
        assert "optimize.refine_seconds" not in warm_tel.snapshot().histograms


class TestAtomicCache:
    def test_failed_publish_leaves_a_miss(self, tmp_path, monkeypatch):
        store = Store(tmp_path, "optimize")
        refined = optimize(SMALL_SPACE, FAST_SETTINGS).refined[0]

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        assert store.put("k", refined.as_dict()) == "write_error"
        monkeypatch.undo()
        assert store.get("k", CandidateEvaluation.from_dict) == (None, "miss")
        assert list(tmp_path.iterdir()) == []
        assert store.counts == {"write_error": 1, "miss": 1}
