"""Scenario / StudyResult serialisation, validation, and hashing."""

import json
import math
import re
from dataclasses import replace

import pytest

from repro.core.parameters import FaultModel
from repro.fleet import stationary_timeline
from repro.optimize import DesignSpace
from repro.optimize.space import PLACEMENTS, known_media
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
from repro.study.scenario import SWEEP_METRICS, SWEEP_PARAMETERS

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


def _payload_with(path, value):
    """A representative payload with the field at ``path`` set to
    ``value``: the point scenario, or the sweep or frontier one for a
    path in their section; system.scheme paths get an erasure code and
    space.erasure_schemes paths one scheme."""
    kinds = _scenarios_of_every_kind()
    index = {"sweep": 2, "space": 3}.get(path.split(".")[0], 1)
    payload = kinds[index].as_dict()
    if path.startswith("system.scheme."):
        payload["system"]["scheme"] = {"n": 6, "k": 4}
    if path.startswith("space.erasure_schemes["):
        payload["space"]["erasure_schemes"] = ["6,4"]
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    section = payload
    for name in parents:
        section = section[int(name) if name.isdigit() else name]
    section[int(key) if key.isdigit() else key] = value
    return payload


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
        reseeded = replace(base, policy=replace(base.policy, seed=1))
        assert base.content_hash() != reseeded.content_hash()
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
            "auto", "analytic", "markov", "event", "batch", "is", "fleet",
        }

    def test_point_estimate_requires_a_system(self):
        with pytest.raises(ValueError, match="SystemSpec"):
            Scenario(question="mttdl")

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

    @pytest.mark.parametrize(
        "path,value",
        [
            ("mission_years", math.nan),
            ("mission_years", [1]),
            ("mission_years", "50"),
            ("max_time_hours", math.inf),
            ("budget", True),
            ("members", 2.5),
            ("system.replicas", 2.7),
            ("system.replicas", True),
            ("system.audits_per_year", math.nan),
            ("system.model.MV", [1]),
            ("system.model.alpha", math.nan),
            ("policy.trials", 1999.9),
            ("policy.trials", True),
            ("policy.max_trials", "4000"),
            ("policy.seed", 1.5),
            ("policy.target_relative_error", math.nan),
            ("policy.bias", math.nan),
            ("policy.cross_check", "false"),
            ("policy.cross_check", 0),
            ("space.dataset_tb", "10"),
            ("space.media", 5),
            ("space.media[0]", 5),
            ("space.replica_counts[0]", 2.5),
            ("space.replica_counts[0]", True),
            ("space.audit_rates[0]", math.nan),
            ("space.placements", "single"),
            ("space.site_cost_per_year", math.inf),
            ("space.erasure_schemes", "6,4"),
            ("sweep.parameter", 5),
            ("sweep.values", "123"),
            ("sweep.values[0]", math.nan),
            ("sweep.metric", None),
            ("sweep.correlation_factors", 0.5),
            ("system.scheme.n", 6.5),
            ("system.scheme.k", True),
            # Read with str(), these ran as engine '7' or failed naming
            # no field.
            ("question", 7),
            ("policy.engine", 7),
            ("policy.engine", "warp"),
            ("policy.variance_reduction", ["cv"]),
            # An unparseable scheme failed naming no field.
            ("space.erasure_schemes[0]", "6;4"),
        ],
    )
    def test_malformed_numbers_name_their_path(self, path, value):
        with pytest.raises(ValueError, match=f"'{re.escape(path)}'"):
            Scenario.from_dict(_payload_with(path, value))

    @pytest.mark.parametrize(
        "path,value,choices",
        [
            ("question", "destiny", QUESTIONS),
            ("policy.engine", "splitting", ENGINES),
            ("policy.variance_reduction", "qmc", ("none", "cv")),
            # These failed naming no field (the medium with a KeyError).
            ("sweep.metric", "foo", SWEEP_METRICS),
            ("sweep.parameter", "XX", SWEEP_PARAMETERS),
            ("space.media[0]", "drive:nope", known_media()),
            ("space.placements[0]", "nowhere", PLACEMENTS),
        ],
    )
    def test_unknown_enumerated_value_lists_the_choices(
        self, path, value, choices
    ):
        message = f"'{path}' must be one of {choices}, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario.from_dict(_payload_with(path, value))

    def test_frontier_rejects_a_variance_reduction(self):
        # The planner's refinements take none, so a frontier asked with
        # "cv" used to return the frontier it returns without it.
        payload = _scenarios_of_every_kind()[3].as_dict()
        payload["policy"].update(engine="batch", variance_reduction="cv")
        with pytest.raises(ValueError, match=r"'policy\.variance_reduction'"):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize("engine", ["is", "auto"])
    def test_frontier_rejects_a_bias(self, engine):
        # The planner's refinements take none, so a frontier asked with
        # a bias used to return the frontier it returns without it.
        payload = _scenarios_of_every_kind()[3].as_dict()
        payload["policy"].update(engine=engine, bias=50.0)
        with pytest.raises(ValueError, match=r"'policy\.bias'"):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize(
        "path",
        [
            "question",
            "system.model.MV",
            "system.model.ML",
            "system.model.MRV",
            "system.model.MRL",
            "system.model.MDL",
            "system.model.alpha",
            "timeline.epochs[0].model.alpha",
            "timeline.migrations[0].risk.name",
            # These said "must be a string" and "must be a JSON array".
            "sweep.parameter",
            "sweep.values",
        ],
    )
    def test_missing_field_names_its_path(self, path):
        # These used to escape as a bare KeyError naming only the key.
        kinds = _scenarios_of_every_kind()
        index = {"timeline": 4, "sweep": 2}.get(path.split(".")[0], 1)
        payload = kinds[index].as_dict()
        if "migrations" in path:
            payload["timeline"]["migrations"] = [{
                "year": 1.0,
                "risk": {
                    "name": "format",
                    "mean_years_to_endangered": 8.0,
                    "mean_years_endangered_to_dead": 5.0,
                    "migration_sweep_years": 1.0,
                },
            }]
        *parents, key = path.replace("[", ".").replace("]", "").split(".")
        section = payload
        for name in parents:
            section = section[int(name) if name.isdigit() else name]
        del section[key]
        with pytest.raises(
            ValueError, match=f"^'{re.escape(path)}' is required$"
        ):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize(
        "question,section,path",
        [
            # An empty object used to read as absent: "question 'mttdl'
            # needs a SystemSpec", "... needs a FleetTimeline".
            ("mttdl", "system", "system.model"),
            ("fleet_survival", "timeline", "timeline.years"),
            ("sweep", "sweep", "sweep.parameter"),
        ],
    )
    def test_empty_section_names_its_first_field(self, question, section, path):
        with pytest.raises(ValueError, match=f"^'{re.escape(path)}' "):
            Scenario.from_dict({"question": question, section: {}})

    @pytest.mark.parametrize(
        "space,expected",
        [
            # These failed with "'space.media' must be a JSON array" and
            # "question 'frontier' needs a DesignSpace".
            ({"dataset_tb": 10.0}, DesignSpace()),
            ({}, DesignSpace()),
            (
                {"dataset_tb": 5.0, "audit_rates": [12], "placements": None},
                DesignSpace(dataset_tb=5.0, audit_rates=(12.0,)),
            ),
        ],
    )
    def test_omitted_space_fields_take_their_defaults(self, space, expected):
        scenario = Scenario.from_dict({"question": "frontier", "space": space})
        assert scenario.space == expected

    def test_integral_floats_still_load(self):
        payload = _scenarios_of_every_kind()[1].as_dict()
        payload["policy"]["trials"] = 2000.0
        payload["system"]["replicas"] = 2.0
        scenario = Scenario.from_dict(payload)
        assert scenario.policy.trials == 2000
        assert type(scenario.policy.trials) is int
        assert scenario.system.replicas == 2

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

    def test_event_auto_and_garbage_have_no_engine(self):
        assert engine_for("event", "auto") is None
        assert engine_for("gpu", "standard") is None
        assert engine_for("batch", "psychic") is None

    def test_engine_backend_method_inverts_engine_for(self):
        for engine in ("auto", "batch", "event", "is"):
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
        assert StudyResult.from_dict(payload).value is None


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
