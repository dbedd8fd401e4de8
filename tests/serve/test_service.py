"""StudyService: store layer, single-flight, batching, progress events."""

import asyncio
import errno
import os

import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.fleet import stationary_timeline
from repro.optimize import DesignSpace
from repro.serve import (
    ResultStore,
    StudyService,
    batchable,
    group_key,
    run_group,
)
from repro.study import EstimatorPolicy, Scenario, SystemSpec, run

MODEL = FaultModel(2500.0, 500.0, 1.0, 1.0, 25.0)


def scenario(mission=0.5, trials=300, seed=3, engine="batch", target=None):
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=MODEL),
        mission_years=mission,
        policy=EstimatorPolicy(
            engine=engine,
            trials=trials,
            seed=seed,
            target_relative_error=target,
        ),
    )


def counters(service):
    return service.telemetry.snapshot().counters


# ---------------------------------------------------------------------------
# batch eligibility + grouped kernel correctness
# ---------------------------------------------------------------------------


def test_batchable_is_narrow():
    assert batchable(scenario())
    assert not batchable(scenario(engine="event"))
    assert not batchable(scenario(engine="auto"))
    assert not batchable(scenario(target=0.05))
    mttdl = Scenario(
        question="mttdl",
        system=SystemSpec(model=MODEL),
        policy=EstimatorPolicy(engine="batch"),
    )
    assert not batchable(mttdl)


def test_group_key_ignores_mission_and_label_only():
    base = scenario()
    assert group_key(scenario(mission=40.0)) == group_key(base)
    labelled = Scenario(
        question="loss_probability",
        system=SystemSpec(model=MODEL),
        mission_years=25.0,
        label="renamed",
        policy=base.policy,
    )
    assert group_key(labelled) == group_key(base)
    assert group_key(scenario(seed=9)) != group_key(base)
    assert group_key(scenario(trials=400)) != group_key(base)


def test_run_group_max_mission_member_is_bit_identical_to_solo():
    missions = (5.0, 15.0, 30.0)
    group = [scenario(mission=m) for m in missions]
    results = run_group(group)
    solo = run(scenario(mission=30.0))
    grouped = results[-1]
    assert grouped.value == solo.value
    assert grouped.std_error == solo.std_error
    assert grouped.trials == solo.trials
    assert grouped.losses == solo.losses
    assert grouped.censored == solo.censored
    assert (grouped.ci_low, grouped.ci_high) == (solo.ci_low, solo.ci_high)
    assert grouped.scenario_hash == solo.scenario_hash
    assert grouped.details["batched"]["bit_identical_to_solo"]


def test_run_group_members_are_monotone_and_sane():
    missions = (5.0, 15.0, 30.0)
    results = run_group([scenario(mission=m) for m in missions])
    values = [r.value for r in results]
    # Loss probability cannot decrease with mission length on shared
    # trajectories (each trial's loss time is fixed; longer missions
    # include every shorter mission's losses).
    assert values == sorted(values)
    for result in results:
        assert result.question == "loss_probability"
        assert result.engine == "batch"
        assert result.method == "standard"
        assert 0.0 <= result.value <= 1.0
        assert result.losses + result.censored == result.trials
        assert result.details["batched"]["members"] == 3


def test_run_group_of_one_equals_solo_run():
    s = scenario(mission=12.0)
    (grouped,) = run_group([s])
    solo = run(s)
    assert grouped.value == solo.value
    assert grouped.losses == solo.losses


def test_run_group_rejects_mixed_groups():
    with pytest.raises(ValueError, match="compatibility class"):
        run_group([scenario(), scenario(seed=9)])
    with pytest.raises(ValueError, match="batchable"):
        run_group([scenario(engine="event")])
    assert run_group([]) == []


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------


def test_store_hit_on_resubmission(tmp_path):
    async def main():
        service = StudyService(store=ResultStore(tmp_path))
        first = await service.submit(scenario())
        second = await service.submit(scenario())
        await service.close()
        return first, second, counters(service)

    first, second, stats = asyncio.run(main())
    assert first.served_from == "engine"
    assert second.served_from == "store"
    assert second.result.as_dict() == first.result.as_dict()
    assert stats["serve.engine_runs"] == 1
    assert stats["cache.serve.hit"] == 1
    assert stats["cache.serve.miss"] == 1


def test_single_flight_shares_one_engine_run():
    async def main():
        # No store: every request must resolve via in-flight sharing.
        service = StudyService(batch_window=None)
        s = scenario(engine="auto", trials=400)
        answers = await asyncio.gather(*[service.submit(s) for _ in range(8)])
        await service.close()
        return answers, counters(service)

    answers, stats = asyncio.run(main())
    assert sorted(a.served_from for a in answers) == (
        ["engine"] + ["inflight"] * 7
    )
    assert stats["serve.engine_runs"] == 1
    assert stats["serve.singleflight.shared"] == 7
    payloads = {str(a.result.as_dict()) for a in answers}
    assert len(payloads) == 1


def test_batching_coalesces_compatible_scenarios_into_one_run(tmp_path):
    missions = [4.0, 8.0, 16.0, 32.0]

    async def main():
        service = StudyService(
            store=ResultStore(tmp_path), batch_window=0.05
        )
        answers = await asyncio.gather(
            *[service.submit(scenario(mission=m)) for m in missions]
        )
        await service.close()
        return answers, counters(service)

    answers, stats = asyncio.run(main())
    assert stats["serve.engine_runs"] == 1
    assert stats["serve.batch.flushes"] == 1
    assert stats["serve.batch.members"] == len(missions)
    for answer, mission in zip(answers, missions):
        assert answer.served_from == "engine"
        solo_hash = scenario(mission=mission).content_hash()
        assert answer.result.scenario_hash == solo_hash
    # The batched answers are persisted: resubmission is a store hit.
    async def again():
        service = StudyService(store=ResultStore(tmp_path))
        answer = await service.submit(scenario(mission=16.0))
        await service.close()
        return answer

    assert asyncio.run(again()).served_from == "store"


def test_incompatible_scenarios_do_not_share_a_batch():
    async def main():
        service = StudyService(batch_window=0.05)
        answers = await asyncio.gather(
            service.submit(scenario(mission=10.0, seed=1)),
            service.submit(scenario(mission=10.0, seed=2)),
        )
        await service.close()
        return answers, counters(service)

    answers, stats = asyncio.run(main())
    assert stats["serve.engine_runs"] == 2
    assert answers[0].result.scenario_hash != answers[1].result.scenario_hash


def test_max_batch_flushes_immediately():
    async def main():
        service = StudyService(batch_window=30.0, max_batch=3)
        answers = await asyncio.wait_for(
            asyncio.gather(
                *[service.submit(scenario(mission=m)) for m in (3.0, 6.0, 9.0)]
            ),
            timeout=20.0,
        )
        await service.close()
        return answers, counters(service)

    # With a 30 s window, only the size trigger can flush in time.
    answers, stats = asyncio.run(main())
    assert len(answers) == 3
    assert stats["serve.batch.flushes"] == 1


def test_stale_store_entry_is_refreshed_to_the_tighter_target(tmp_path):
    async def main():
        store = ResultStore(tmp_path)
        service = StudyService(store=store)
        coarse = await service.submit(scenario(trials=200))
        achieved = (
            coarse.result.std_error / coarse.result.value
        )
        # /4 keeps the needed trial count comfortably under the
        # default max_trials cap (64x the base trials).
        tight = scenario(target=achieved / 4, trials=200)
        refreshed = await service.submit(tight)
        hot = await service.submit(tight)
        await service.close()
        return coarse, refreshed, hot, counters(service), achieved

    coarse, refreshed, hot, stats, achieved = asyncio.run(main())
    assert refreshed.served_from == "engine"
    assert refreshed.result.std_error / refreshed.result.value <= achieved / 4
    assert hot.served_from == "store"
    assert stats["cache.serve.stale"] == 1
    assert stats["serve.engine_runs"] == 2


def test_corrupt_store_entry_degrades_to_recompute(tmp_path):
    async def main():
        store = ResultStore(tmp_path)
        service = StudyService(store=store)
        first = await service.submit(scenario())
        for path in tmp_path.glob("*.json"):
            path.write_text("{ torn write", encoding="utf-8")
        second = await service.submit(scenario())
        third = await service.submit(scenario())
        await service.close()
        return first, second, third, counters(service), store

    first, second, third, stats, store = asyncio.run(main())
    assert second.served_from == "engine"  # recomputed, not crashed
    assert third.served_from == "store"  # the recompute repaired the entry
    assert stats["cache.serve.error"] == 1
    assert store.entries.counts["error"] == 1
    assert second.result.value == first.result.value


def test_full_disk_costs_the_cache_not_the_answer(tmp_path, monkeypatch):
    fast = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)
    questions = [
        scenario(),
        Scenario(
            question="fleet_survival",
            timeline=stationary_timeline(fast, 2.0),
            members=400,
            chunk_size=200,
            policy=EstimatorPolicy(engine="fleet", seed=4),
        ),
        Scenario(
            question="frontier",
            space=DesignSpace(
                media=("drive:cheetah",), replica_counts=(2, 3),
                audit_rates=(0.0, 52.0),
            ),
            budget=500000.0,
            policy=EstimatorPolicy(engine="auto", trials=300, seed=1),
        ),
    ]

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)

    async def main():
        service = StudyService(store=ResultStore(tmp_path))
        try:
            answers = [await service.submit(q) for q in questions]
        finally:
            await service.close()
        return answers, counters(service)

    answers, stats = asyncio.run(main())
    assert [answer.served_from for answer in answers] == ["engine"] * 3
    for question, answer in zip(questions, answers):
        assert answer.result.value == run(question).value
    fleet, frontier = (a.result.details["summary"] for a in answers[1:])
    assert stats["cache.serve.write_error"] == 3
    assert stats["cache.fleet.write_error"] == fleet["new_chunks"] == 2
    assert stats["cache.optimize.write_error"] == frontier["new_evaluations"]
    assert frontier["new_evaluations"] > 0
    assert not any(name.endswith(".store") for name in stats)
    assert list(tmp_path.iterdir()) == []


def test_store_outcomes_land_in_the_service_registry(tmp_path):
    ambient = obs.Telemetry()

    async def main():
        service = StudyService(store=ResultStore(tmp_path))
        # The event-loop thread's current registry may be anyone's
        # session; the store must not count into it.
        with obs.session(ambient):
            await service.submit(scenario())
            await service.submit(scenario())
        await service.close()
        return counters(service)

    stats = asyncio.run(main())
    assert stats["cache.serve.miss"] == 1
    assert stats["cache.serve.store"] == 1
    assert stats["cache.serve.hit"] == 1
    assert not any(
        name.startswith("cache.") for name in ambient.snapshot().counters
    )


def test_progress_stream_and_telemetry_stripping():
    events = []

    async def main():
        service = StudyService()
        s = scenario(engine="auto", trials=400)
        answer = await service.submit(s, progress=events.append)
        await service.close()
        return answer

    answer = asyncio.run(main())
    kinds = [record["event"] for record in events]
    assert kinds[0] == "study_start"
    assert "engine_resolved" in kinds
    assert "estimate" in kinds
    assert kinds[-1] == "study_end"
    # The engine-run snapshot is operational data, not payload.
    assert "telemetry" not in answer.result.details
    # Progress-subscribed runs bypass the batching queue but still
    # produce the solo answer.
    solo = run(Scenario.from_dict(
        scenario(engine="auto", trials=400).as_dict()
    ))
    assert answer.result.value == solo.value


def test_deterministic_engines_memoize_forever(tmp_path):
    async def main():
        service = StudyService(store=ResultStore(tmp_path))
        first = await service.submit(scenario(engine="analytic"))
        # A different seed and a brutal target are irrelevant to an
        # exact answer: still a store hit.
        demanding = scenario(engine="analytic", seed=9, target=1e-12)
        second = await service.submit(demanding)
        await service.close()
        return first, second

    first, second = asyncio.run(main())
    assert first.served_from == "engine"
    assert second.served_from == "store"
    assert second.result.std_error == 0.0


def test_submit_after_close_raises():
    async def main():
        service = StudyService()
        await service.close()
        with pytest.raises(RuntimeError, match="closed"):
            await service.submit(scenario())

    asyncio.run(main())


def test_infeasible_run_error_reaches_all_sharers(tmp_path):
    # A scenario that validates but whose engine raises at run time:
    # a frontier recommendation with an impossible budget.
    from repro.optimize import DesignSpace

    space = DesignSpace(
        dataset_tb=10.0,
        media=("drive:cheetah",),
        replica_counts=(2,),
        audit_rates=(12.0,),
        placements=("single",),
    )
    bad = Scenario(
        question="frontier",
        space=space,
        budget=0.01,  # nothing fits one cent a year
        policy=EstimatorPolicy(engine="analytic"),
    )

    async def main():
        service = StudyService()
        results = await asyncio.gather(
            service.submit(bad),
            service.submit(bad),
            return_exceptions=True,
        )
        await service.close()
        return results, counters(service)

    results, stats = asyncio.run(main())
    assert len(results) == 2
    assert all(isinstance(r, ValueError) for r in results)
    assert stats["serve.engine_runs"] == 1
