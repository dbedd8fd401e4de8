"""The persistent ResultStore: keys, staleness, corruption, concurrency."""

import json
import multiprocessing
import os

import pytest

from repro.core.parameters import FaultModel
from repro.serve.store import (
    ENTRY_SCHEMA_VERSION,
    ResultStore,
    achieved_relative_error,
    question_key,
)
from repro.study import EstimatorPolicy, Scenario, StudyResult, SystemSpec, run

#: Compressed-time operating point: losses are common, so a few hundred
#: trials answer in milliseconds.
MODEL = FaultModel(2500.0, 500.0, 1.0, 1.0, 25.0)


def scenario(
    mission=0.5,
    trials=300,
    seed=3,
    engine="batch",
    target=None,
    max_trials=None,
    label=None,
):
    return Scenario(
        question="loss_probability",
        system=SystemSpec(model=MODEL),
        mission_years=mission,
        label=label,
        policy=EstimatorPolicy(
            engine=engine,
            trials=trials,
            seed=seed,
            target_relative_error=target,
            max_trials=max_trials,
        ),
    )


# ---------------------------------------------------------------------------
# question_key
# ---------------------------------------------------------------------------


def test_question_key_invariant_to_precision_knobs_and_label():
    base = scenario()
    for other in (
        scenario(trials=5000),
        scenario(seed=99),
        scenario(target=0.01),
        scenario(trials=500, max_trials=50_000),
        scenario(label="renamed"),
    ):
        assert question_key(other) == question_key(base)
        # ... while the exact-identity content hash does change (except
        # for a pure label change, which as_dict does serialise).
    assert scenario(trials=5000).content_hash() != base.content_hash()


def test_question_key_differs_for_different_questions():
    base = scenario()
    assert question_key(scenario(mission=20.0)) != question_key(base)
    assert question_key(scenario(engine="event")) != question_key(base)
    other_model = Scenario(
        question="loss_probability",
        system=SystemSpec(model=MODEL, replicas=3),
        mission_years=10.0,
        policy=base.policy,
    )
    assert question_key(other_model) != question_key(base)


def test_question_key_matches_content_hash_shape():
    key = question_key(scenario())
    assert len(key) == 32
    assert all(c in "0123456789abcdef" for c in key)


# ---------------------------------------------------------------------------
# round trip + hit/miss/stale semantics
# ---------------------------------------------------------------------------


def test_roundtrip_hit(tmp_path):
    store = ResultStore(tmp_path)
    s = scenario()
    result = run(s)
    stored, outcome = store.lookup(s)
    assert (stored, outcome) == (None, "miss")
    key = store.put(s, result)
    assert (tmp_path / f"{key}.json").exists()
    stored, outcome = store.lookup(s)
    assert outcome == "hit"
    assert stored.as_dict() == result.as_dict()
    assert dict(store.entries.counts) == {"hit": 1, "miss": 1, "store": 1}


def test_precision_variants_share_one_entry(tmp_path):
    store = ResultStore(tmp_path)
    s = scenario()
    store.put(s, run(s))
    for variant in (
        scenario(trials=5000),
        scenario(seed=42),
        scenario(label="renamed"),
    ):
        stored, outcome = store.lookup(variant)
        assert outcome == "hit"
        # Provenance is the producing run's, not the asker's.
        assert stored.seed == s.policy.seed
    assert [p.name for p in tmp_path.iterdir()] == [f"{question_key(s)}.json"]


def test_exact_answers_hit_any_target(tmp_path):
    store = ResultStore(tmp_path)
    s = scenario(engine="analytic")
    store.put(s, run(s))
    demanding = scenario(engine="analytic", target=1e-9)
    stored, outcome = store.lookup(demanding)
    assert outcome == "hit"
    assert stored.std_error == 0.0


def test_tighter_target_is_stale_then_refreshed(tmp_path):
    store = ResultStore(tmp_path)
    coarse = scenario(trials=200)
    store.put(coarse, run(coarse))
    achieved = achieved_relative_error(store.lookup(coarse)[0])
    tight = scenario(target=achieved / 10, trials=200)
    stored, outcome = store.lookup(tight)
    assert (stored, outcome) == (None, "stale")
    assert store.entries.counts["stale"] == 1
    # A satisfiable demand still hits.
    loose = scenario(target=achieved * 10)
    assert store.lookup(loose)[1] == "hit"
    # Refreshing overwrites the shared entry with the sharper answer.
    sharper = run(scenario(target=achieved / 10, trials=200, max_trials=200_000))
    store.put(tight, sharper)
    stored, outcome = store.lookup(tight)
    assert outcome == "hit"
    assert achieved_relative_error(stored) <= achieved / 10
    assert [p.name for p in tmp_path.iterdir()] == [
        f"{question_key(coarse)}.json"
    ]


def test_memory_cache_revalidates_on_external_overwrite(tmp_path):
    writer = ResultStore(tmp_path)
    reader = ResultStore(tmp_path)
    s = scenario()
    first = run(s)
    key = writer.put(s, first)
    assert reader.lookup(s)[1] == "hit"  # primes reader's memory cache
    second = run(scenario(seed=77))
    writer.put(s, second)
    stored, outcome = reader.lookup(s)
    assert outcome == "hit"
    assert stored.seed == 77
    # The overwrite is one file, atomically replaced.
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.json"]


# ---------------------------------------------------------------------------
# corruption degrades to recompute
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "garbage",
    [
        "{ not json",
        '"a bare string"',
        json.dumps({"schema": 999, "result": {}}),
        json.dumps({"schema": ENTRY_SCHEMA_VERSION}),  # missing result
        json.dumps({"schema": ENTRY_SCHEMA_VERSION, "result": {"value": []}}),
    ],
)
def test_corrupt_entry_degrades_to_error(tmp_path, garbage):
    store = ResultStore(tmp_path)
    s = scenario()
    key = store.put(s, run(s))
    (tmp_path / f"{key}.json").write_text(garbage, encoding="utf-8")
    stored, outcome = store.lookup(s)
    assert (stored, outcome) == (None, "error")
    assert store.entries.counts["error"] == 1
    # put() repairs the entry; subsequent lookups hit again.
    store.put(s, run(s))
    assert store.lookup(s)[1] == "hit"


def test_relative_error_edge_cases():
    exact = StudyResult(
        question="mttdl", engine="analytic", method="analytic",
        value=123.0, std_error=0.0,
    )
    assert achieved_relative_error(exact) == 0.0
    zero_mean = StudyResult(
        question="loss_probability", engine="batch", method="standard",
        value=0.0, std_error=1e-3,
    )
    assert achieved_relative_error(zero_mean) is None
    lossless = StudyResult(
        question="mttdl", engine="batch", method="standard",
        value=None, std_error=None,
    )
    assert achieved_relative_error(lossless) is None


# ---------------------------------------------------------------------------
# two processes sharing one directory
# ---------------------------------------------------------------------------


def _hammer(directory, seed, rounds, out):
    """Worker: interleave writes and reads against the shared store."""
    store = ResultStore(directory)
    s = scenario(seed=seed)
    result = run(s)
    corrupt = 0
    for _ in range(rounds):
        store.put(s, result)
        stored, outcome = store.lookup(scenario(seed=seed + 1))
        if outcome == "error":
            corrupt += 1
        elif stored is not None and stored.schema != 1:
            corrupt += 1
    out.put(corrupt)


def test_two_processes_share_one_store_without_corruption(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    out = ctx.Queue()
    workers = [
        ctx.Process(target=_hammer, args=(str(tmp_path), seed, 25, out))
        for seed in (1, 2)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
        assert w.exitcode == 0
    assert out.get() == 0
    assert out.get() == 0
    # Both wrote the same question key; the surviving entry decodes.
    store = ResultStore(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [
        f"{question_key(scenario(seed=1))}.json"
    ]
    stored, outcome = store.lookup(scenario(seed=1))
    assert outcome == "hit"
    assert stored.question == "loss_probability"
    # No staging files leaked.
    assert not list(tmp_path.glob("*.tmp"))


def test_unreadable_directory_is_a_miss_not_a_crash(tmp_path):
    store = ResultStore(tmp_path)
    s = scenario()
    key = store.put(s, run(s))
    os.remove(tmp_path / f"{key}.json")
    assert store.lookup(s)[1] == "miss"
