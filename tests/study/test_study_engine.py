"""The engine dispatcher: all five questions, cross-checks, provenance."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.mttdl import mirrored_mttdl
from repro.core.probability import probability_of_loss
from repro.core.units import years_to_hours
from repro.core.parameters import FaultModel
from repro.fleet import simulate_fleet, stationary_timeline
from repro.markov.builders import mirrored_mttdl_markov
from repro.optimize import DesignSpace, EvaluationSettings, optimize, recommend
from repro.simulation.estimators import (
    HighCensoringWarning,
    run_loss_probability,
    run_mttdl,
)
from repro.study import (
    EstimatorPolicy,
    Scenario,
    StudyResult,
    SweepSpec,
    SystemSpec,
    engine_backend_method,
    run,
)

MODEL = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


def _point(question="mttdl", engine="auto", **kwargs):
    policy_kwargs = {
        key: kwargs.pop(key)
        for key in ("trials", "seed", "bias", "target_relative_error",
                    "cross_check")
        if key in kwargs
    }
    return Scenario(
        question=question,
        system=SystemSpec(model=MODEL),
        policy=EstimatorPolicy(engine=engine, **policy_kwargs),
        **kwargs,
    )


class TestAllFiveQuestions:
    """``repro.study.run`` answers every question kind."""

    def test_mttdl(self):
        result = run(_point("mttdl", trials=300, max_time_hours=1e6))
        assert result.question == "mttdl"
        assert result.units == "hours"
        assert result.value > 0
        assert result.ci_low <= result.value <= result.ci_high

    def test_loss_probability(self):
        result = run(_point("loss_probability", trials=300, mission_years=1.0))
        assert result.units == "probability"
        assert 0.0 <= result.value <= 1.0

    def test_sweep(self):
        result = run(
            Scenario(
                question="sweep",
                system=SystemSpec(model=MODEL),
                sweep=SweepSpec(parameter="alpha", values=(1.0, 0.5)),
                policy=EstimatorPolicy(engine="analytic"),
            )
        )
        assert result.details["metrics"]["mttdl_hours"]

    def test_sweep_respects_the_requested_replica_degrees(self):
        result = run(
            Scenario(
                question="sweep",
                system=SystemSpec(model=MODEL),
                sweep=SweepSpec(
                    parameter="replicas",
                    values=(2.0, 4.0),
                    correlation_factors=(1.0, 0.1),
                ),
                policy=EstimatorPolicy(engine="analytic"),
            )
        )
        from repro.core.replication import replicated_mttdl

        assert result.details["values"] == [2.0, 4.0]
        assert result.details["series"]["0.1"]["mttdl_hours"] == [
            replicated_mttdl(MODEL.mv, MODEL.mrv, 2, 0.1),
            replicated_mttdl(MODEL.mv, MODEL.mrv, 4, 0.1),
        ]

    def test_analytic_loss_probability_sweep(self):
        result = run(
            Scenario(
                question="sweep",
                system=SystemSpec(model=MODEL),
                sweep=SweepSpec(
                    parameter="MDL",
                    values=(5.0, 50.0),
                    metric="loss_probability",
                ),
                mission_years=1.0,
                policy=EstimatorPolicy(engine="analytic"),
            )
        )
        series = result.details["metrics"]["loss_probability"]
        expected = [
            probability_of_loss(
                mirrored_mttdl(MODEL.with_detection_time(mdl)),
                years_to_hours(1.0),
            )
            for mdl in (5.0, 50.0)
        ]
        assert series == expected

    def test_analytic_audit_sweep_rejects_the_loss_metric(self):
        with pytest.raises(ValueError, match="MTTDL metric"):
            run(
                Scenario(
                    question="sweep",
                    system=SystemSpec(model=MODEL),
                    sweep=SweepSpec(
                        parameter="audits_per_year",
                        values=(0.0, 12.0),
                        metric="loss_probability",
                    ),
                    policy=EstimatorPolicy(engine="analytic"),
                )
            )

    def test_simulated_sweep_honours_max_trials(self):
        # A converged-by-budget sweep may never exceed max_trials per
        # point, even with an unreachable relative-error target.
        result = run(
            Scenario(
                question="sweep",
                system=SystemSpec(model=MODEL),
                sweep=SweepSpec(parameter="MDL", values=(5.0,)),
                max_time_hours=1e6,
                policy=EstimatorPolicy(
                    engine="batch",
                    trials=50,
                    max_trials=100,
                    target_relative_error=1e-9,
                ),
            )
        )
        assert result.trials == 100

    def test_frontier(self, tmp_path):
        result = run(
            Scenario(
                question="frontier",
                space=DesignSpace(
                    media=("drive:cheetah",),
                    replica_counts=(2,),
                    audit_rates=(12.0,),
                ),
                budget=1e9,
                policy=EstimatorPolicy(engine="auto", trials=200),
            ),
            cache_dir=tmp_path,
        )
        assert result.details["frontier"]
        assert result.details["recommended"] is not None
        assert result.value == pytest.approx(
            result.details["recommended"]["simulated"]["mean"]
        )

    def test_fleet_survival(self):
        result = run(
            Scenario(
                question="fleet_survival",
                timeline=stationary_timeline(MODEL, 2.0),
                members=200,
                policy=EstimatorPolicy(engine="fleet", seed=1),
            )
        )
        assert result.method == "fleet"
        assert result.trials == 200
        assert 0.0 <= result.value <= 1.0


class TestDeterministicEngines:
    def test_analytic_matches_the_paper_closed_form(self):
        result = run(_point("mttdl", engine="analytic"))
        assert result.value == mirrored_mttdl(MODEL)
        assert result.details["convention"] == "paper"
        assert result.std_error == 0.0

    def test_analytic_loss_probability(self):
        result = run(
            _point("loss_probability", engine="analytic", mission_years=1.0)
        )
        expected = probability_of_loss(
            mirrored_mttdl(MODEL), years_to_hours(1.0)
        )
        assert result.value == expected

    def test_markov_matches_the_ctmc(self):
        result = run(_point("mttdl", engine="markov"))
        assert result.value == mirrored_mttdl_markov(
            MODEL, double_first_fault_rate=True
        )
        methods = result.details["methods_mttdl_years"]
        assert set(methods) >= {"analytic_capped", "markov"}

    def test_audit_override_folds_into_mdl(self):
        # audits_per_year=12 means MDL = half a month, not the model's.
        override = run(
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL, audits_per_year=12.0),
                policy=EstimatorPolicy(engine="analytic"),
            )
        )
        expected = mirrored_mttdl(
            MODEL.with_detection_time(8760.0 / 12.0 / 2.0)
        )
        assert override.value == expected


class TestAutoCrossCheck:
    def test_auto_attaches_both_conventions_and_the_ctmc(self):
        result = run(_point("mttdl", trials=300, max_time_hours=1e6))
        check = result.details["cross_check"]
        assert check["analytic_paper_mttdl_hours"] == mirrored_mttdl(MODEL)
        assert check["analytic_simulator_mttdl_hours"] == pytest.approx(
            mirrored_mttdl(MODEL) / 2.0
        )
        assert check["markov_mttdl_hours"] == mirrored_mttdl_markov(
            MODEL, double_first_fault_rate=True
        )
        # The simulated estimate lands near the simulator-consistent
        # references, not the paper convention.
        assert result.value == pytest.approx(
            check["markov_mttdl_hours"], rel=0.25
        )

    def test_cross_check_respects_the_policy_switch(self):
        result = run(
            _point("mttdl", trials=300, max_time_hours=1e6, cross_check=False)
        )
        assert "cross_check" not in result.details

    def test_forced_engines_do_not_cross_check(self):
        result = run(_point("mttdl", engine="batch", trials=300,
                            max_time_hours=1e6))
        assert "cross_check" not in result.details


class TestProvenance:
    def test_result_carries_seed_hash_and_wall_time(self):
        scenario = _point("loss_probability", trials=200, seed=11,
                          mission_years=1.0)
        result = run(scenario)
        assert result.seed == 11
        assert result.scenario_hash == scenario.content_hash()
        assert result.wall_time_seconds > 0

    def test_same_scenario_same_numbers(self):
        scenario = _point("loss_probability", trials=200, seed=5,
                          mission_years=1.0)
        first, second = run(scenario), run(scenario)
        assert first.value == second.value
        assert first.std_error == second.std_error

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run(_point("mttdl"), jobs=0)


class TestWarnings:
    def test_censoring_warning_is_recorded_and_reemitted(self):
        scenario = _point(
            "mttdl", engine="batch", trials=100, max_time_hours=150.0
        )
        with pytest.warns(HighCensoringWarning):
            result = run(scenario)
        assert result.warnings
        assert "censored" in result.warnings[0]


#: (question, engine, variance_reduction) for every Monte-Carlo engine
#: a point question accepts.
LOOP_CASES = [
    ("mttdl", "batch", "none"),
    ("mttdl", "event", "none"),
    ("mttdl", "auto", "none"),
    ("mttdl", "is", "none"),
    ("loss_probability", "batch", "none"),
    ("loss_probability", "event", "none"),
    ("loss_probability", "auto", "none"),
    ("loss_probability", "is", "none"),
    ("loss_probability", "batch", "cv"),
]


class TestPointQuestionsRunTheLoops:
    """A simulated point question is answered by exactly what the
    estimation loop returns for the engine's (backend, method) pair."""

    @pytest.mark.parametrize(
        "question,engine,reduction",
        LOOP_CASES,
        ids=["-".join(case) for case in LOOP_CASES],
    )
    def test_bit_for_bit(self, question, engine, reduction):
        # A 0.01-year mission sees ~10% losses, so the auto pilot
        # escalates to importance sampling; the MTTDL horizon censors
        # nothing, so its auto pilot stays standard.
        mission_years = 0.01
        result = run(
            Scenario(
                question=question,
                system=SystemSpec(model=MODEL),
                mission_years=mission_years,
                max_time_hours=1e5,
                policy=EstimatorPolicy(
                    engine=engine,
                    trials=150,
                    seed=7,
                    variance_reduction=reduction,
                ),
            )
        )
        backend, method = engine_backend_method(engine)
        settings = dict(
            model=MODEL,
            trials=150,
            seed=7,
            backend=backend,
            method=method,
            variance_reduction=reduction,
        )
        if question == "mttdl":
            loop = run_mttdl(max_time=1e5, **settings)
        else:
            loop = run_loss_probability(
                mission_time=years_to_hours(mission_years), **settings
            )
        assert (
            result.value,
            result.std_error,
            result.trials,
            result.censored,
            result.method,
            result.effective_sample_size,
        ) == (
            loop.mean,
            loop.std_error,
            loop.trials,
            loop.censored,
            loop.method,
            loop.effective_sample_size,
        )


class TestFacadeMatchesTheSubsystems:
    """The frontier and fleet engines reproduce direct subsystem calls
    bit-for-bit at a fixed seed."""

    SPACE = DesignSpace(
        media=("drive:barracuda", "drive:cheetah"),
        replica_counts=(2, 3),
        audit_rates=(12.0, 52.0),
    )

    def test_frontier_matches_optimize_plus_recommend(self):
        scenario = Scenario(
            question="frontier",
            space=self.SPACE,
            budget=50000.0,
            policy=EstimatorPolicy(engine="auto", trials=300, seed=2),
        )
        facade = run(scenario)
        direct = optimize(
            self.SPACE,
            EvaluationSettings(trials=300, seed=2, method="auto"),
        )
        recommended = recommend(direct.frontier, budget=50000.0)
        assert facade.details["summary"] == direct.summary()
        assert facade.details["frontier"] == [
            e.as_dict() for e in direct.frontier
        ]
        assert facade.details["recommended"] == recommended.as_dict()

    def test_fleet_matches_simulate_fleet(self):
        timeline = stationary_timeline(MODEL, 2.0)
        scenario = Scenario(
            question="fleet_survival",
            timeline=timeline,
            members=300,
            chunk_size=100,
            policy=EstimatorPolicy(engine="fleet", seed=3),
        )
        facade = run(scenario)
        direct = simulate_fleet(timeline, members=300, seed=3, chunk_size=100)
        assert facade.details == direct.as_dict()
        assert facade.value == direct.loss_estimate().mean


class TestVarianceReducedRuns:
    def _scenario(self, reduction):
        return Scenario(
            question="loss_probability",
            system=SystemSpec(model=MODEL),
            mission_years=1.0,
            policy=EstimatorPolicy(
                engine="batch", trials=2000, seed=3, variance_reduction=reduction
            ),
        )

    def test_cv_answers_through_the_facade(self):
        result = run(self._scenario("cv"))
        assert result.units == "probability"
        assert result.method == "cv"
        assert 0.0 < result.value < 1.0
        assert result.ci_low <= result.value <= result.ci_high

    def test_cv_mttdl_through_the_facade(self):
        result = run(
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL),
                max_time_hours=1e5,
                policy=EstimatorPolicy(
                    engine="batch",
                    trials=2000,
                    seed=3,
                    variance_reduction="cv",
                ),
            )
        )
        assert result.units == "hours"
        assert result.method == "cv"
        assert result.value > 0


    def test_sweeps_honour_the_variance_reduction(self):
        # The sweep used to drop "cv" and answer the plain batch series.
        def sweep(reduction):
            return run(
                Scenario(
                    question="sweep",
                    system=SystemSpec(model=MODEL),
                    mission_years=1.0,
                    sweep=SweepSpec(
                        parameter="MDL",
                        values=(5.0, 50.0),
                        metric="loss_probability",
                    ),
                    policy=EstimatorPolicy(
                        engine="batch",
                        trials=500,
                        seed=1,
                        variance_reduction=reduction,
                    ),
                )
            )

        plain, reduced = sweep("none"), sweep("cv")
        assert (plain.method, reduced.method) == ("standard", "cv")
        series = reduced.details["metrics"]["sim_loss_probability"]
        assert series == [
            run_loss_probability(
                replace(MODEL, mean_detect_latent=mdl),
                mission_time=years_to_hours(1.0),
                trials=500,
                seed=1,
                variance_reduction="cv",
            ).mean
            for mdl in (5.0, 50.0)
        ]
        assert series != plain.details["metrics"]["sim_loss_probability"]


def test_import_does_not_load_scipy_stats():
    # scipy.stats used to be half of the facade's import time; only the
    # Markov chain's scipy.linalg.expm is needed now.
    import repro

    src = Path(repro.__file__).resolve().parents[1]
    code = "import sys, repro.study; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"
