"""Tests for the variance-reduced batch estimator (the control variate).

The control variate is a conditional-Monte-Carlo estimator: its score is
the exact conditional loss probability given the skeleton trajectory, so
its mean must match the exact Markov chain at operating points where the
kernel's physics and the chain agree (the daily-scrubbed mirrored pair,
where the audit-grid vs exponential-detection difference is far below
the Monte-Carlo noise).  It is validated over multiple seeds, plus the
estimator-axis plumbing and validation rules.
"""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.core.redundancy import ErasureCode
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import build_mirrored_chain, mirrored_mttdl_markov
from repro.markov.transient import loss_probability_over_time
from repro.simulation.estimators import (
    VARIANCE_REDUCTIONS,
    run_loss_probability,
    run_mttdl,
)
from repro.simulation.variance_reduction import require_threshold_two

#: Daily-scrubbed Cheetah mirrored pair: the high-reliability regime
#: where variance reduction matters and the kernel agrees with the
#: exact chain far inside Monte-Carlo noise.
RARE_MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=12.0,
    correlation_factor=1.0,
)

MISSION = 50.0 * HOURS_PER_YEAR


@pytest.fixture(scope="module")
def exact_loss():
    return loss_probability_over_time(build_mirrored_chain(RARE_MODEL), MISSION)


class TestControlVariate:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_covers_exact_markov_value(self, exact_loss, seed):
        estimate = run_loss_probability(
            RARE_MODEL, mission_time=MISSION, trials=10_000, seed=seed,
            variance_reduction="cv",
        )
        assert estimate.method == "cv"
        assert estimate.std_error > 0
        assert abs(estimate.mean - exact_loss) <= 3.0 * estimate.std_error

    def test_far_tighter_than_standard(self, exact_loss):
        # At this operating point the binomial estimator needs ~600k
        # trials for a 10% relative error; the control variate is
        # already an order of magnitude tighter at 2,000.
        estimate = run_loss_probability(
            RARE_MODEL, mission_time=MISSION, trials=2000, seed=7,
            variance_reduction="cv",
        )
        assert estimate.relative_error < 0.05

    def test_adaptive_target_reached(self):
        estimate = run_loss_probability(
            RARE_MODEL,
            mission_time=MISSION,
            trials=500,
            seed=3,
            target_relative_error=0.02,
            max_trials=64_000,
            variance_reduction="cv",
        )
        assert estimate.std_error <= 0.02 * estimate.mean
        assert estimate.trials <= 64_000

    def test_deterministic_in_seed(self):
        settings = dict(
            mission_time=MISSION, trials=2000, seed=5, variance_reduction="cv"
        )
        a = run_loss_probability(RARE_MODEL, **settings)
        b = run_loss_probability(RARE_MODEL, **settings)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_threshold_two_required(self):
        with pytest.raises(ValueError, match="threshold"):
            require_threshold_two(None, replicas=3)
        # (n, n-1) codes are threshold-2 and pass.
        require_threshold_two(ErasureCode(4, 3), replicas=4)
        with pytest.raises(ValueError, match="threshold"):
            require_threshold_two(ErasureCode(6, 4), replicas=6)


class TestTracedRounds:
    def rounds(self, **settings):
        sink = io.StringIO()
        with obs.session(obs.Telemetry(trace=obs.TraceWriter(sink))):
            estimate = run_loss_probability(
                RARE_MODEL, variance_reduction="cv", **settings
            )
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        return estimate, [
            record["data"]
            for record in records
            if record["event"] == "pilot_round"
        ]

    def test_one_pilot_round_per_chunk(self):
        estimate, rounds = self.rounds(
            mission_time=MISSION,
            trials=300,
            seed=3,
            target_relative_error=0.001,
            max_trials=1000,
        )
        assert [
            (r["estimator"], r["method"], r["round"], r["trials"])
            for r in rounds
        ] == [
            ("loss_probability", "cv", 1, 300),
            ("loss_probability", "cv", 2, 600),
            ("loss_probability", "cv", 3, 900),
            ("loss_probability", "cv", 4, 1000),
        ]
        assert rounds[-1]["relative_error"] == estimate.relative_error

    def test_an_all_zero_round_has_no_relative_error(self):
        # Seed 1's first three trials open no window of vulnerability.
        estimate, rounds = self.rounds(
            mission_time=60000.0,
            trials=3,
            seed=1,
            target_relative_error=0.5,
        )
        assert rounds[0]["relative_error"] is None
        assert len(rounds) == estimate.trials // 3 > 1


class TestEstimatorAxis:
    def test_axis_vocabulary(self):
        assert VARIANCE_REDUCTIONS == ("none", "cv")

    def test_run_loss_probability_cv(self, exact_loss):
        estimate = run_loss_probability(
            RARE_MODEL,
            mission_time=MISSION,
            trials=4000,
            seed=2,
            backend="batch",
            variance_reduction="cv",
        )
        assert estimate.method == "cv"
        assert abs(estimate.mean - exact_loss) <= 4.0 * estimate.std_error

    def test_run_mttdl_cv(self):
        estimate = run_mttdl(
            RARE_MODEL,
            trials=4000,
            seed=2,
            max_time=MISSION,
            backend="batch",
            variance_reduction="cv",
        )
        assert estimate.method == "cv"
        assert estimate.std_error > 0
        exact = mirrored_mttdl_markov(RARE_MODEL)
        assert abs(estimate.mean - exact) <= 4.0 * estimate.std_error

    def test_validation_rules(self):
        common = dict(mission_time=MISSION, trials=100, seed=0)
        with pytest.raises(ValueError, match="variance_reduction"):
            run_loss_probability(
                RARE_MODEL, variance_reduction="sobol", **common
            )
        # The variance-reduced estimators only compose with the plain
        # batch estimator: every other knob is rejected, with the event
        # backend (the run_loss_probability default) rejected too.
        with pytest.raises(ValueError, match="batch"):
            run_loss_probability(
                RARE_MODEL,
                backend="event",
                variance_reduction="cv",
                **common,
            )
        with pytest.raises(ValueError, match="method"):
            run_loss_probability(
                RARE_MODEL,
                backend="batch",
                method="is",
                variance_reduction="cv",
                **common,
            )
        with pytest.raises(ValueError, match="bias"):
            run_loss_probability(
                RARE_MODEL,
                backend="batch",
                bias=5.0,
                variance_reduction="cv",
                **common,
            )
        with pytest.raises(ValueError, match="threshold"):
            run_loss_probability(
                RARE_MODEL,
                backend="batch",
                replicas=3,
                variance_reduction="cv",
                **common,
            )

    def test_default_axis_untouched(self):
        # variance_reduction="none" must leave the standard path byte
        # identical (same draws, same estimate).
        plain = run_loss_probability(
            RARE_MODEL, mission_time=MISSION, trials=2000, seed=4, backend="batch"
        )
        explicit = run_loss_probability(
            RARE_MODEL,
            mission_time=MISSION,
            trials=2000,
            seed=4,
            backend="batch",
            variance_reduction="none",
        )
        assert plain.mean == explicit.mean
        assert plain.std_error == explicit.std_error
        assert np.isclose(plain.mean, explicit.mean)
