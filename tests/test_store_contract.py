"""The content-addressed store: key recipe, file names, fault contract."""

import asyncio
import errno
from pathlib import Path

import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.fleet import chunk_cache_key, stationary_timeline
from repro.optimize import (
    CandidateDesign,
    DesignSpace,
    EvaluationSettings,
    evaluation_cache_key,
    screen,
)
from repro.serve import ResultStore, StudyService, question_key
from repro.store import Store, content_key
from repro.study import EstimatorPolicy, Scenario, SystemSpec, run

MODEL = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)
TIMELINE = stationary_timeline(MODEL, 2.0, annual_cost_per_member=50.0)
SETTINGS = EvaluationSettings(trials=200, seed=9)


def point_scenario():
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=FaultModel(2500.0, 500.0, 1.0, 1.0, 25.0)),
        mission_years=0.5,
        policy=EstimatorPolicy(engine="batch", trials=300, seed=3),
    )


def fleet_scenario():
    return Scenario(
        question="fleet_survival",
        timeline=stationary_timeline(MODEL, 2.0),
        members=400,
        chunk_size=200,
        policy=EstimatorPolicy(engine="fleet", seed=4),
    )


def frontier_scenario():
    return Scenario(
        question="frontier",
        space=DesignSpace(
            media=("drive:cheetah",), replica_counts=(2, 3),
            audit_rates=(0.0, 52.0),
        ),
        budget=500000.0,
        policy=EstimatorPolicy(engine="auto", trials=300, seed=1),
    )


def headline(result):
    return (
        result.value,
        result.std_error,
        result.ci_low,
        result.ci_high,
        result.trials,
        result.losses,
    )


class TestKeys:
    def test_digests_are_those_existing_cache_directories_hold(self):
        # Computed before the caches became one store: a changed recipe
        # would turn every --cache-dir cold.  The chunk and refinement
        # digests were re-recorded when ``STREAM_VERSION`` became 3:
        # entries drawn from an older kernel stream must miss.  The
        # refinement digest was re-recorded again when ``REFINE_RECIPE``
        # became 2: ``auto`` refines 2-way candidates by conditional
        # Monte-Carlo, so sampled entries must miss.  Serve keys carry
        # no seed, so stored answers stay valid.
        scenario = point_scenario()
        candidate = CandidateDesign(
            medium="drive:cheetah", replicas=2, audits_per_year=12.0,
            placement="multi", dataset_tb=5.0,
        )
        assert scenario.content_hash() == "42e15001b38c0850bbc44de84c62cd3e"
        assert content_key(scenario.as_dict()) == scenario.content_hash()
        assert question_key(scenario) == "6d7733af7646a3457e71b1991920692c"
        assert (
            chunk_cache_key(TIMELINE, 200, 5, 0)
            == "1d11b1feecef5409cf3e3a931c546585"
        )
        assert (
            evaluation_cache_key(screen(candidate, SETTINGS), SETTINGS)
            == "2b1e31d7d8e58940a9562ccff39c2a44"
        )

    def test_entry_file_names(self, tmp_path):
        fleet = run(fleet_scenario(), cache_dir=tmp_path / "fleet")
        keys = [
            chunk_cache_key(fleet_scenario().timeline, 200, 4, index)
            for index in range(2)
        ]
        assert sorted(p.name for p in (tmp_path / "fleet").iterdir()) == (
            sorted(f"fleet-{key}.json" for key in keys)
        )
        assert fleet.details["summary"]["new_chunks"] == 2

        store = ResultStore(tmp_path / "serve")
        scenario = point_scenario()
        store.put(scenario, run(scenario))
        assert [p.name for p in (tmp_path / "serve").iterdir()] == [
            f"{question_key(scenario)}.json"
        ]
        assert Store(tmp_path, "optimize").path("k").name == "k.json"


class TestStore:
    def test_every_hit_decodes_once(self, tmp_path):
        store = Store(tmp_path, "optimize")
        store.put("k", {"value": [1, 2]})
        calls = []

        def decode(entry):
            calls.append(entry)
            return list(entry["value"])

        first, _ = store.get("k", decode)
        second, outcome = store.get("k", decode)  # from memory
        assert outcome == "hit"
        assert len(calls) == 2
        assert first == second == [1, 2] and first is not second

    def test_outcomes_land_in_the_bound_registry_only(self, tmp_path):
        bound, ambient = obs.Telemetry(), obs.Telemetry()
        store = Store(tmp_path, "serve")
        store.telemetry = bound
        with obs.session(ambient):
            store.get("k", dict)
            store.put("k", {})
            store.get("k", dict, fresh=lambda entry: False)
        assert bound.snapshot().counters == {
            "cache.serve.miss": 1,
            "cache.serve.store": 1,
            "cache.serve.stale": 1,
            "events.cache": 3,
        }
        assert ambient.snapshot().counters == {}

    @pytest.mark.parametrize("entry", ["[1, 2]", '"text"', "{ torn"])
    def test_a_non_object_entry_is_an_error(self, tmp_path, entry):
        store = Store(tmp_path, "fleet")
        store.path("k").write_text(entry, encoding="utf-8")
        assert store.get("k", dict) == (None, "error")


def answer(scope, directory, telemetry):
    """Answer the scope's question with its entries kept in ``directory``."""
    if scope == "fleet":
        return run(fleet_scenario(), cache_dir=directory, telemetry=telemetry)
    if scope == "optimize":
        return run(
            frontier_scenario(), cache_dir=directory, telemetry=telemetry
        )

    async def main():
        service = StudyService(
            store=ResultStore(directory), telemetry=telemetry
        )
        try:
            served = await service.submit(point_scenario())
        finally:
            await service.close()
        assert served.served_from == "engine"
        return served.result

    return asyncio.run(main())


@pytest.mark.parametrize("fault", ["directory", "eio"])
@pytest.mark.parametrize("scope", ["fleet", "optimize", "serve"])
def test_an_unreadable_entry_is_an_error_in_every_scope(
    scope, fault, tmp_path, monkeypatch
):
    cold = answer(scope, tmp_path, obs.Telemetry())
    entries = sorted(tmp_path.glob("*.json"))
    assert entries
    if fault == "directory":
        for entry in entries:
            entry.unlink()
            entry.mkdir()
    else:
        read_text = Path.read_text

        def failing_read_text(path, *args, **kwargs):
            if path.parent == tmp_path:
                raise OSError(errno.EIO, "Input/output error", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)

    tel = obs.Telemetry()
    recomputed = answer(scope, tmp_path, tel)
    counters = tel.snapshot().counters
    assert counters[f"cache.{scope}.error"] == len(entries)
    assert f"cache.{scope}.hit" not in counters
    assert f"cache.{scope}.miss" not in counters
    assert headline(recomputed) == headline(cold)
    # A directory in the way also fails the repair's write: counted,
    # and nothing is left behind.
    if fault == "directory":
        assert counters[f"cache.{scope}.write_error"] == len(entries)
    assert not list(tmp_path.glob("*.tmp"))
