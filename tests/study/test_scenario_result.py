"""Scenario / StudyResult serialisation, validation, and hashing."""

import json
import math

import pytest

from repro.core.parameters import FaultModel
from repro.fleet import stationary_timeline
from repro.optimize import DesignSpace
from repro.study import (
    ENGINES,
    QUESTIONS,
    SCHEMA_VERSION,
    EstimatorPolicy,
    Scenario,
    StudyResult,
    SweepSpec,
    SystemSpec,
    engine_backend_method,
    engine_for,
)

MODEL = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def _scenarios_of_every_kind():
    """One representative scenario per question kind."""
    system = SystemSpec(model=MODEL, replicas=3, audits_per_year=12.0)
    return [
        Scenario(question="mttdl", system=system, max_time_hours=1e6),
        Scenario(
            question="loss_probability",
            system=system,
            mission_years=2.0,
            policy=EstimatorPolicy(engine="is", trials=200, seed=9, bias=8.0),
        ),
        Scenario(
            question="sweep",
            system=SystemSpec(model=MODEL),
            sweep=SweepSpec(parameter="MDL", values=(5.0, 50.0, 500.0)),
            policy=EstimatorPolicy(engine="batch", trials=100),
        ),
        Scenario(
            question="frontier",
            space=DesignSpace(media=("drive:cheetah",)),
            budget=25000.0,
            slack=2.0,
            policy=EstimatorPolicy(engine="auto", trials=400, seed=1),
        ),
        Scenario(
            question="fleet_survival",
            timeline=stationary_timeline(MODEL, 2.0),
            members=500,
            chunk_size=250,
            policy=EstimatorPolicy(engine="fleet", seed=4),
        ),
    ]


class TestScenarioRoundtrip:
    @pytest.mark.parametrize(
        "scenario", _scenarios_of_every_kind(), ids=lambda s: s.question
    )
    def test_json_roundtrip_is_lossless(self, scenario):
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario
        assert rebuilt.content_hash() == scenario.content_hash()

    def test_roundtrip_through_file(self, tmp_path):
        scenario = _scenarios_of_every_kind()[0]
        path = tmp_path / "scenario.json"
        scenario.to_json(path)
        assert Scenario.from_json(path) == scenario

    def test_unknown_fields_are_tolerated_everywhere(self):
        # A payload written by a future version (extra keys at the top
        # level, inside the system spec, and inside the policy) must
        # still load — forward compatibility of the serialised form.
        scenario = _scenarios_of_every_kind()[1]
        payload = json.loads(scenario.to_json())
        payload["experimental_knob"] = {"nested": True}
        payload["system"]["gpu_accelerated"] = "yes please"
        payload["policy"]["quantum_trials"] = 3
        rebuilt = Scenario.from_dict(payload)
        assert rebuilt == scenario

    def test_content_hash_is_sensitive_to_every_axis(self):
        base = _scenarios_of_every_kind()[0]
        assert base.content_hash() != base.with_policy(seed=1).content_hash()
        assert (
            base.content_hash()
            != Scenario.from_dict(
                {**base.as_dict(), "mission_years": 10.0}
            ).content_hash()
        )

    def test_content_hash_has_cache_key_width(self):
        # Same recipe (and width) as the optimize/fleet caches.
        assert len(_scenarios_of_every_kind()[0].content_hash()) == 32


class TestScenarioValidation:
    def test_unknown_question_rejected(self):
        with pytest.raises(ValueError, match="unknown question"):
            Scenario(question="destiny", system=SystemSpec(model=MODEL))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            EstimatorPolicy(engine="quantum")

    def test_questions_and_engines_are_the_documented_sets(self):
        assert set(QUESTIONS) == {
            "mttdl", "loss_probability", "frontier", "fleet_survival",
            "sweep",
        }
        assert set(ENGINES) == {
            "auto", "analytic", "markov", "event", "batch", "is",
            "splitting", "fleet",
        }

    def test_point_estimate_requires_a_system(self):
        with pytest.raises(ValueError, match="SystemSpec"):
            Scenario(question="mttdl")

    def test_splitting_is_loss_only(self):
        with pytest.raises(ValueError, match="splitting"):
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL),
                policy=EstimatorPolicy(engine="splitting"),
            )

    def test_markov_engine_is_mirrored_only(self):
        with pytest.raises(ValueError, match="mirrored"):
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL, replicas=3),
                policy=EstimatorPolicy(engine="markov"),
            )

    def test_replicas_sweep_is_analytic_only(self):
        with pytest.raises(ValueError, match="analytic"):
            Scenario(
                question="sweep",
                system=SystemSpec(model=MODEL),
                sweep=SweepSpec(parameter="replicas", values=(1.0, 2.0)),
                policy=EstimatorPolicy(engine="batch"),
            )

    def test_fleet_question_requires_a_timeline(self):
        with pytest.raises(ValueError, match="FleetTimeline"):
            Scenario(question="fleet_survival")

    def test_fleet_engine_only_answers_fleet_questions(self):
        with pytest.raises(ValueError, match="fleet"):
            Scenario(
                question="loss_probability",
                system=SystemSpec(model=MODEL),
                policy=EstimatorPolicy(engine="fleet"),
            )

    @pytest.mark.parametrize("scheme", ["6,4", [6, 4]])
    def test_non_object_scheme_names_its_path(self, scheme):
        payload = {
            "question": "loss_probability",
            "system": {"model": MODEL.as_dict(), "scheme": scheme},
        }
        with pytest.raises(ValueError, match=r"'system\.scheme'"):
            Scenario.from_dict(payload)

    def test_policy_seed_and_trials_validated(self):
        with pytest.raises(ValueError, match="seed"):
            EstimatorPolicy(seed=-1)
        with pytest.raises(ValueError, match="trials"):
            EstimatorPolicy(trials=0)
        with pytest.raises(ValueError, match="max_trials"):
            EstimatorPolicy(trials=100, max_trials=50)


class TestEngineMapping:
    def test_engine_for_covers_the_legacy_grid(self):
        assert engine_for("batch", "standard") == "batch"
        assert engine_for("event", "standard") == "event"
        assert engine_for("batch", "auto") == "auto"
        assert engine_for("batch", "is") == "is"
        assert engine_for("event", "is") == "is"
        assert engine_for("event", "splitting") == "splitting"

    def test_event_auto_and_garbage_have_no_engine(self):
        assert engine_for("event", "auto") is None
        assert engine_for("gpu", "standard") is None
        assert engine_for("batch", "psychic") is None

    def test_engine_backend_method_inverts_engine_for(self):
        for engine in ("auto", "batch", "event", "is", "splitting"):
            backend, method = engine_backend_method(engine)
            assert engine_for(backend, method) == engine

    def test_deterministic_engines_have_no_backend(self):
        for engine in ("analytic", "markov", "fleet"):
            with pytest.raises(ValueError, match="no Monte-Carlo"):
                engine_backend_method(engine)


class TestStudyResultSerialisation:
    RESULT = StudyResult(
        question="loss_probability",
        engine="auto",
        method="is",
        value=1.5e-4,
        std_error=2e-5,
        ci_low=1.1e-4,
        ci_high=1.9e-4,
        units="probability",
        trials=4000,
        losses=1200,
        censored=2800,
        effective_sample_size=812.5,
        seed=9,
        scenario_hash="ab" * 16,
        wall_time_seconds=0.25,
        warnings=("something censored",),
        details={"cross_check": {"markov_mttdl_hours": 1e6}},
    )

    def test_json_roundtrip_is_lossless(self):
        rebuilt = StudyResult.from_json(self.RESULT.to_json())
        assert rebuilt == self.RESULT

    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "result.json"
        self.RESULT.to_json(path)
        assert StudyResult.from_json(path) == self.RESULT

    def test_schema_version_is_embedded(self):
        payload = json.loads(self.RESULT.to_json())
        assert payload["schema"] == SCHEMA_VERSION

    def test_unknown_fields_are_tolerated(self):
        payload = json.loads(self.RESULT.to_json())
        payload["provenance_chain"] = ["future", "fields"]
        payload["details"]["new_diagnostic"] = 1
        rebuilt = StudyResult.from_dict(payload)
        assert rebuilt.value == self.RESULT.value
        assert rebuilt.details["new_diagnostic"] == 1

    def test_infinite_values_serialise_as_null(self):
        lossless = StudyResult(
            question="mttdl",
            engine="batch",
            method="standard",
            value=math.inf,
            std_error=math.inf,
            units="hours",
            trials=100,
            censored=100,
        )
        payload = json.loads(lossless.to_json())
        assert payload["value"] is None
        assert payload["std_error"] is None
        # ...and the bridge back to the Monte-Carlo layer restores inf.
        assert StudyResult.from_dict(payload).estimate().mean == math.inf

    def test_cache_key_is_the_scenario_hash(self):
        assert self.RESULT.cache_key == self.RESULT.scenario_hash

    def test_estimate_bridge_preserves_clamps(self):
        estimate = self.RESULT.estimate()
        assert estimate.clamp_hi == 1.0
        assert estimate.method == "is"
        assert estimate.effective_sample_size == 812.5
        hours = StudyResult(
            question="mttdl", engine="batch", method="standard",
            value=1e6, std_error=1e4, units="hours", trials=10,
        )
        assert hours.estimate().clamp_hi is None


class TestVarianceReductionAxis:
    def test_default_policy_payload_has_no_key(self):
        # The key is conditional so pre-existing scenarios keep their
        # content hashes byte for byte.
        payload = EstimatorPolicy().as_dict()
        assert "variance_reduction" not in payload

    def test_round_trips(self):
        policy = EstimatorPolicy(engine="batch", trials=500, variance_reduction="cv")
        payload = policy.as_dict()
        assert payload["variance_reduction"] == "cv"
        assert EstimatorPolicy.from_dict(payload) == policy

    def test_hash_stability_of_existing_scenarios(self):
        # A scenario that never mentions variance_reduction must hash
        # exactly as one built before the axis existed.
        for scenario in _scenarios_of_every_kind():
            rebuilt = Scenario.from_dict(
                json.loads(json.dumps(scenario.as_dict()))
            )
            assert rebuilt.content_hash() == scenario.content_hash()
            assert "variance_reduction" not in json.dumps(scenario.as_dict())

    def test_hash_is_sensitive_to_the_axis(self):
        base = Scenario(
            question="loss_probability",
            system=SystemSpec(model=MODEL),
            mission_years=2.0,
            policy=EstimatorPolicy(engine="batch", trials=200),
        )
        reduced = Scenario(
            question="loss_probability",
            system=SystemSpec(model=MODEL),
            mission_years=2.0,
            policy=EstimatorPolicy(
                engine="batch", trials=200, variance_reduction="cv"
            ),
        )
        assert base.content_hash() != reduced.content_hash()

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError, match="variance_reduction"):
            EstimatorPolicy(engine="batch", variance_reduction="sobol")

    def test_requires_batch_engine(self):
        with pytest.raises(ValueError, match="batch"):
            EstimatorPolicy(engine="is", variance_reduction="cv")
        with pytest.raises(ValueError, match="batch"):
            EstimatorPolicy(engine="event", variance_reduction="cv")
