"""Tests for the Monte-Carlo estimation harness and lifetime curves."""

import math
import warnings

import pytest

from repro.core.faults import FaultType
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.simulation.lifetime import loss_probability_curve
from repro.simulation.estimators import (
    HighCensoringWarning,
    MonteCarloEstimate,
    run_loss_probability,
    run_mttdl,
)
from repro.simulation.monte_carlo import (
    double_fault_combination_counts,
    run_single_trace,
)


def fast_model(**overrides):
    base = dict(
        mean_time_to_visible=500.0,
        mean_time_to_latent=100.0,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=5.0,
        correlation_factor=1.0,
    )
    base.update(overrides)
    return FaultModel(**base)


class TestMonteCarloEstimate:
    def test_confidence_interval_brackets_mean(self):
        estimate = MonteCarloEstimate(mean=100.0, std_error=5.0, trials=50)
        low, high = estimate.confidence_interval()
        assert low < 100.0 < high
        assert high - low == pytest.approx(2 * 1.96 * 5.0)

    def test_relative_error(self):
        estimate = MonteCarloEstimate(mean=200.0, std_error=10.0, trials=50)
        assert estimate.relative_error == pytest.approx(0.05)

    def test_relative_error_zero_mean_is_unconverged(self):
        # A zero-loss estimate carries no information about its own
        # precision; reading it as "perfectly converged" (the old 0.0)
        # would terminate adaptive sampling the moment a rare-event run
        # starts.
        assert MonteCarloEstimate(0.0, 1.0, 10).relative_error == math.inf
        assert MonteCarloEstimate(0.0, 0.0, 10).relative_error == math.inf

    def test_zero_loss_estimate_does_not_stop_adaptive_sampling(self):
        # Regression: a first chunk with zero losses must keep adaptive
        # sampling extending (up to its cap) instead of stopping at a
        # "converged" zero.
        model = fast_model(mean_repair_visible=0.01, mean_repair_latent=0.01,
                           mean_detect_latent=0.05)
        estimate = run_loss_probability(
            model,
            mission_time=40.0,
            trials=40,
            seed=9,
            backend="batch",
            target_relative_error=0.5,
            max_trials=160,
        )
        assert estimate.trials > 40 or estimate.losses > 0

    def test_confidence_interval_clamps_below_zero(self):
        # Times and probabilities cannot be negative: the default clamp
        # keeps the normal-approximation interval physical.
        estimate = MonteCarloEstimate(mean=1.0, std_error=2.0, trials=5)
        low, high = estimate.confidence_interval()
        assert low == 0.0
        assert high == pytest.approx(1.0 + 1.96 * 2.0)

    def test_confidence_interval_clamp_can_be_disabled(self):
        estimate = MonteCarloEstimate(mean=1.0, std_error=2.0, trials=5)
        low, _ = estimate.confidence_interval(lo=None)
        assert low == pytest.approx(1.0 - 1.96 * 2.0)

    def test_confidence_interval_upper_clamp(self):
        estimate = MonteCarloEstimate(
            mean=0.98, std_error=0.05, trials=50, clamp_hi=1.0
        )
        low, high = estimate.confidence_interval()
        assert high == 1.0
        assert 0.0 <= low < 0.98

    def test_confidence_interval_with_infinite_mean(self):
        estimate = MonteCarloEstimate(
            mean=float("inf"), std_error=float("inf"), trials=10, censored=10
        )
        low, high = estimate.confidence_interval()
        assert low == 0.0
        assert high == float("inf")

    def test_losses_property(self):
        assert MonteCarloEstimate(1.0, 0.1, 40, censored=15).losses == 25


class TestEstimateMttdl:
    def test_reproducible_for_same_seed(self):
        a = run_mttdl(fast_model(), trials=30, seed=1, max_time=1e6)
        b = run_mttdl(fast_model(), trials=30, seed=1, max_time=1e6)
        assert a.mean == b.mean

    def test_agrees_with_analytic_model_within_noise(self):
        model = fast_model()
        estimate = run_mttdl(model, trials=120, seed=2, max_time=1e6)
        analytic = mirrored_mttdl(model)
        # The simulator counts first faults on both copies (factor ~2 vs
        # the paper's convention) and races detection against the second
        # fault, so agreement within a factor of ~2.5 is the expectation;
        # the order of magnitude must match.
        assert analytic / 3.0 < estimate.mean < analytic * 3.0

    def test_scrubbing_improves_simulated_mttdl(self):
        base = fast_model()
        scrubbed = run_mttdl(base, trials=60, seed=3, max_time=1e6)
        unscrubbed = run_mttdl(
            base.with_detection_time(base.mean_time_to_latent),
            trials=60,
            seed=3,
            max_time=1e6,
        )
        assert scrubbed.mean > unscrubbed.mean

    def test_censoring_reported(self):
        # A 10-hour horizon is far below the MTTDL, so essentially every
        # trial is censored (an occasional early double fault is possible).
        with pytest.warns(HighCensoringWarning):
            estimate = run_mttdl(
                fast_model(), trials=20, seed=4, max_time=10.0
            )
        assert estimate.censored >= 18
        # The censoring-correct MLE never folds horizon times into the
        # mean: with no observed losses the estimate is infinite, and
        # with a handful of losses it is at least total-time / losses,
        # far above the 10-hour horizon.
        assert estimate.mean > 10.0

    def test_censored_trials_do_not_bias_the_mean_downward(self):
        # The same operating point estimated under a tight horizon (heavy
        # censoring) must not come out below the generous-horizon answer,
        # which is what folding horizon times into a plain mean did.
        model = fast_model()
        generous = run_mttdl(model, trials=150, seed=21, max_time=1e6)
        assert generous.censored == 0
        with pytest.warns(HighCensoringWarning):
            tight = run_mttdl(model, trials=150, seed=21, max_time=300.0)
        assert tight.censored > 30
        # Biased estimator would give ~<300; the MLE stays in the same
        # range as the uncensored answer (within a few standard errors).
        assert tight.mean > generous.mean - 4 * (
            tight.std_error + generous.std_error
        )
        assert tight.mean > 400.0

    def test_no_warning_when_censoring_is_rare(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", HighCensoringWarning)
            estimate = run_mttdl(
                fast_model(), trials=40, seed=2, max_time=1e6
            )
        assert estimate.censored <= 0.2 * estimate.trials

    def test_mle_equals_plain_mean_without_censoring(self):
        # With zero censored trials, total time / losses is exactly the
        # sample mean of the loss times.
        estimate = run_mttdl(fast_model(), trials=50, seed=13, max_time=1e6)
        assert estimate.censored == 0
        assert estimate.losses == 50
        assert estimate.std_error == pytest.approx(
            estimate.mean / math.sqrt(50)
        )

    def test_rejects_non_positive_trials(self):
        with pytest.raises(ValueError):
            run_mttdl(fast_model(), trials=0)


class TestEstimateLossProbability:
    def test_probability_between_zero_and_one(self):
        estimate = run_loss_probability(
            fast_model(), mission_time=5000.0, trials=60, seed=5
        )
        assert 0.0 <= estimate.mean <= 1.0

    def test_longer_missions_riskier(self):
        short = run_loss_probability(
            fast_model(), mission_time=1000.0, trials=80, seed=6
        )
        long = run_loss_probability(
            fast_model(), mission_time=50000.0, trials=80, seed=6
        )
        assert long.mean >= short.mean

    def test_rejects_bad_mission(self):
        with pytest.raises(ValueError):
            run_loss_probability(fast_model(), mission_time=0.0, trials=10)


class TestDoubleFaultCombinations:
    def test_counts_cover_all_combinations(self):
        counts = double_fault_combination_counts(
            fast_model(), trials=60, seed=7, max_time=1e6
        )
        assert set(counts) == {
            (first, second) for first in FaultType for second in FaultType
        }

    def test_losses_are_counted(self):
        counts = double_fault_combination_counts(
            fast_model(), trials=60, seed=7, max_time=1e6
        )
        assert sum(counts.values()) > 0

    def test_latent_first_dominates_with_slow_detection(self):
        model = fast_model(mean_detect_latent=100.0)
        counts = double_fault_combination_counts(model, trials=80, seed=8, max_time=1e6)
        latent_first = (
            counts[(FaultType.LATENT, FaultType.VISIBLE)]
            + counts[(FaultType.LATENT, FaultType.LATENT)]
        )
        visible_first = (
            counts[(FaultType.VISIBLE, FaultType.VISIBLE)]
            + counts[(FaultType.VISIBLE, FaultType.LATENT)]
        )
        assert latent_first > visible_first


class TestSingleTrace:
    def test_trace_is_returned(self):
        result = run_single_trace(fast_model(), seed=9, max_time=20000.0)
        assert result.trace is not None
        assert len(result.trace) > 0


class TestLifetimeCurves:
    def test_curve_is_monotone(self):
        horizons = [1000.0, 5000.0, 20000.0, 100000.0]
        curve = loss_probability_curve(
            fast_model(), horizons, trials=60, seed=10
        )
        probabilities = [point.loss_probability for point in curve]
        assert probabilities == sorted(probabilities)
        assert curve[0].mission_years == pytest.approx(1000.0 / 8760.0)

    def test_exponential_prediction_attached(self):
        curve = loss_probability_curve(
            fast_model(),
            [1000.0, 10000.0],
            trials=30,
            seed=11,
            analytic_mttdl=mirrored_mttdl(fast_model()),
        )
        assert all(point.exponential_prediction is not None for point in curve)

    def test_rejects_empty_horizons(self):
        with pytest.raises(ValueError):
            loss_probability_curve(fast_model(), [], trials=10)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ValueError):
            loss_probability_curve(fast_model(), [0.0], trials=10)
