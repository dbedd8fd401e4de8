"""Tests for the rare-event acceleration machinery.

Covers the failure-biased importance sampling mode of the batch backend
(weight validity, estimator agreement with plain Monte-Carlo and the
exact Markov chain), the automatic method selection, and the
bias-choice heuristic.
"""

import io
import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import build_mirrored_chain, mirrored_mttdl_markov
from repro.markov.transient import loss_probability_over_time
from repro.simulation.batch import simulate_batch
from repro.simulation.estimators import (
    AUTO_MIN_LOSSES,
    AUTO_SKIP_PILOT_LOSSES,
    _conditional_pays,
    run_loss_probability,
    run_mttdl,
    time_on_test_mttdl,
)
from repro.simulation.rare_event import (
    WeightedLossTally,
    analytic_loss_rate,
    default_failure_bias,
)

MISSION = 50.0 * HOURS_PER_YEAR


def paper_moderate_model():
    """The paper's scrubbed Cheetah pair: ~2% loss in 50 years."""
    return FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 1460.0, 1.0)


def paper_rare_model():
    """Daily-scrubbed Cheetah pair: ~1.7e-4 loss in 50 years."""
    return FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 12.0, 1.0)


def predicted_pilot_losses(model, horizon, trials, replicas):
    """Losses the analytic screen expects in a standard pilot."""
    rate = analytic_loss_rate(model, replicas)
    return -math.expm1(-rate * horizon) * trials


def intervals_overlap(a, b):
    (a_lo, a_hi), (b_lo, b_hi) = a.confidence_interval(), b.confidence_interval()
    return a_lo <= b_hi and b_lo <= a_hi


class TestAnalyticLossRate:
    def test_matches_optimizer_screen(self, cheetah_scrubbed_model):
        from repro.optimize.evaluate import screen_loss_rate

        for replicas in (2, 3, 4):
            assert analytic_loss_rate(
                cheetah_scrubbed_model, replicas
            ) == pytest.approx(
                screen_loss_rate(cheetah_scrubbed_model, replicas), rel=1e-12
            )

    def test_single_replica_is_total_fault_rate(self, cheetah_scrubbed_model):
        assert analytic_loss_rate(cheetah_scrubbed_model, 1) == pytest.approx(
            cheetah_scrubbed_model.total_fault_rate
        )

    def test_rejects_zero_replicas(self, cheetah_scrubbed_model):
        with pytest.raises(ValueError):
            analytic_loss_rate(cheetah_scrubbed_model, 0)


class TestDefaultFailureBias:
    def test_rare_point_gets_accelerated(self):
        bias = default_failure_bias(paper_rare_model(), 2, MISSION)
        assert bias > 100.0

    def test_lossy_point_is_not_biased(self, fast_model):
        assert default_failure_bias(fast_model, 2, 1e6) == 1.0

    def test_single_replica_is_not_biased(self):
        assert default_failure_bias(paper_rare_model(), 1, MISSION) == 1.0

    def test_cap(self):
        nearly_immortal = FaultModel(1e12, 1e12, 1e-6, 1e-6, 1.0, 1.0)
        assert default_failure_bias(nearly_immortal, 2, 1000.0) == 1e4

    def test_explicit_target_steers_the_bias(self):
        model = paper_rare_model()
        gentle = default_failure_bias(model, 2, MISSION, target=0.05)
        aggressive = default_failure_bias(model, 2, MISSION, target=0.5)
        assert 1.0 < gentle < aggressive <= 1e4

    def test_triple_replication_bias_is_within_bounds(self):
        bias = default_failure_bias(paper_rare_model(), 3, MISSION)
        assert 1.0 < bias <= 1e4


class TestImportanceWeights:
    """Satellite: weight validity and estimator agreement across seeds."""

    def test_is_and_standard_agree_pooled_over_seeds(self):
        # Moderate operating point where both estimators converge: the
        # paper's scrubbed Cheetah pair at ~2% mission loss.  The IS
        # interval is far narrower than the standard one, so a per-seed
        # overlap check fails ~5% of the time without any bias.  Pooling
        # the per-seed z-scores of the difference instead catches a
        # shift of ~0.67 combined standard errors.
        model = paper_moderate_model()
        seeds = range(1, 21)
        scores = []
        for seed in seeds:
            standard = run_loss_probability(
                model,
                mission_time=MISSION,
                trials=3000,
                seed=seed,
                backend="batch",
                method="standard",
            )
            weighted = run_loss_probability(
                model, mission_time=MISSION, trials=3000, seed=seed, method="is"
            )
            assert standard.losses > 0
            assert weighted.method == "is"
            scores.append(
                (weighted.mean - standard.mean)
                / math.hypot(weighted.std_error, standard.std_error)
            )
        assert abs(sum(scores)) / math.sqrt(len(seeds)) < 3.0
        assert max(abs(score) for score in scores) < 4.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_weights_are_finite_and_positive(self, seed):
        result = simulate_batch(
            paper_moderate_model(),
            trials=2000,
            horizon=MISSION,
            seed=seed,
            bias=25.0,
        )
        assert result.log_weight is not None
        assert np.isfinite(result.log_weight).all()
        weights = result.weights
        assert np.isfinite(weights).all()
        assert (weights > 0).all()

    def test_unbiased_run_has_unit_weights(self):
        result = simulate_batch(
            paper_moderate_model(), trials=100, horizon=MISSION, seed=1
        )
        assert result.log_weight is None
        assert np.all(result.weights == 1.0)

    def test_bias_of_one_is_the_plain_backend(self):
        plain = simulate_batch(
            paper_moderate_model(), trials=500, horizon=MISSION, seed=3
        )
        unit = simulate_batch(
            paper_moderate_model(), trials=500, horizon=MISSION, seed=3, bias=1.0
        )
        assert np.array_equal(plain.end_time, unit.end_time)
        assert unit.log_weight is None

    def test_invalid_bias_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(
                paper_moderate_model(), trials=10, horizon=1e4, bias=0.0
            )


class TestImportanceSampledEstimates:
    def test_loss_ci_covers_markov_exact_at_rare_point(self):
        model = paper_rare_model()
        exact = loss_probability_over_time(build_mirrored_chain(model), MISSION)
        estimate = run_loss_probability(
            model,
            mission_time=MISSION,
            trials=2000,
            seed=5,
            method="is",
            target_relative_error=0.1,
        )
        low, high = estimate.confidence_interval()
        assert low <= exact <= high
        assert estimate.relative_error <= 0.1
        assert estimate.effective_sample_size > 50

    def test_mttdl_ci_covers_markov_exact_at_rare_point(self):
        model = paper_rare_model()
        exact = mirrored_mttdl_markov(model)
        estimate = run_mttdl(
            model,
            trials=2000,
            seed=5,
            max_time=MISSION,
            method="is",
            target_relative_error=0.1,
        )
        low, high = estimate.confidence_interval()
        assert low <= exact <= high
        assert estimate.method == "is"

    def test_explicit_bias_is_honoured_and_reproducible(self):
        model = paper_rare_model()
        kwargs = dict(
            mission_time=MISSION, trials=1000, seed=9, method="is", bias=500.0
        )
        a = run_loss_probability(model, **kwargs)
        b = run_loss_probability(model, **kwargs)
        assert a.mean == b.mean
        assert a.trials == b.trials

    def test_adaptive_is_extends_until_target(self):
        estimate = run_loss_probability(
            paper_rare_model(),
            mission_time=MISSION,
            trials=500,
            seed=4,
            method="is",
            target_relative_error=0.05,
        )
        assert estimate.trials > 500
        assert estimate.relative_error <= 0.05

    def test_unknown_method_rejected(self, fast_model):
        with pytest.raises(ValueError):
            run_loss_probability(fast_model, trials=10, method="antithetic")

    def test_is_bias_reads_the_audit_override(self):
        # Never audited, the daily-scrubbed triple loses about half the
        # time in 50 years.  A bias aimed at the model's 12 h MDL would
        # instead sample almost nothing but losses and weight them away.
        kwargs = dict(
            mission_time=MISSION, trials=2000, seed=1, replicas=3,
            audits_per_year=0.0,
        )
        standard = run_loss_probability(paper_rare_model(), **kwargs)
        weighted = run_loss_probability(
            paper_rare_model(), method="is", **kwargs
        )
        assert standard.mean > 0.4
        z = (weighted.mean - standard.mean) / math.hypot(
            weighted.std_error, standard.std_error
        )
        assert abs(z) < 3.0

    def test_is_is_blind_to_the_mdl_an_override_replaces(self):
        # The kernel reads the audit grid from the override, and the
        # bias reads the model with the override folded in, so folding
        # it in first changes no draw.
        model = paper_rare_model()
        kwargs = dict(
            mission_time=MISSION, trials=500, seed=2, replicas=3,
            audits_per_year=4.0, method="is",
        )
        folded = model.with_detection_time(HOURS_PER_YEAR / 4.0 / 2.0)
        assert run_loss_probability(model, **kwargs) == run_loss_probability(
            folded, **kwargs
        )


class TestWeightedLossTally:
    def test_unit_weight_tally_matches_binomial(self):
        tally = WeightedLossTally()
        result = simulate_batch(
            paper_moderate_model(), trials=2000, horizon=MISSION, seed=2
        )
        tally.add(result)
        p = result.losses / result.trials
        assert tally.mean == pytest.approx(p)
        assert tally.ess == pytest.approx(float(result.losses))
        binomial = math.sqrt(p * (1.0 - p) / result.trials)
        assert tally.std_error == pytest.approx(binomial, rel=0.05)

    def test_chunks_accumulate(self):
        one = WeightedLossTally()
        two = WeightedLossTally()
        chunks = [
            simulate_batch(
                paper_moderate_model(),
                trials=500,
                horizon=MISSION,
                seed=2,
                chunk=index,
                bias=10.0,
            )
            for index in range(2)
        ]
        for chunk in chunks:
            one.add(chunk)
        two.add(chunks[0])
        assert one.trials == 1000
        assert one.losses >= two.losses
        assert one.mean > 0

    def test_empty_tally_is_unconverged(self):
        tally = WeightedLossTally()
        assert tally.relative_error == math.inf
        assert tally.ess == 0.0

    def test_one_heavy_path_collapses_the_ess(self):
        # 100 losses, one weighing 1e9 and 99 weighing 1: Kish's ESS is
        # ~1, far below the loss count.
        tally = WeightedLossTally(
            trials=1000, losses=100, sum_x=1e9 + 99.0, sum_x_sq=1e18 + 99.0
        )
        assert tally.ess == pytest.approx(1.0, rel=1e-6)


class TestTimeOnTestMttdl:
    def test_small_probability_reduces_to_horizon_over_p(self):
        # One trial in a million loses, at time 0: every other trial
        # spends the whole horizon on test, so the MTTDL is about T / p.
        mean, std_error = time_on_test_mttdl(
            1e4, 1_000_000, 1.0, 1.0, 1e4, 1e8, 1e4
        )
        assert mean == pytest.approx((1e4 - 1e-2) / 1e-6)
        assert std_error == pytest.approx(mean, rel=1e-3)

    def test_no_positive_score_gives_an_infinite_mttdl(self):
        assert time_on_test_mttdl(1e4, 100, 0.0, 0.0, 0.0, 0.0, 0.0) == (
            math.inf,
            math.inf,
        )

    def test_exponential_losses_give_the_mean_at_any_horizon(self):
        # Plain 0/1 losses and their time past the loss: the ratio is
        # the censored MLE, which finds the exponential mean even when
        # nearly every trial loses data (p = 1 - e^-50), where
        # inverting p = 1 - exp(-T / M) has no resolution left.
        rng = np.random.default_rng(3)
        times = rng.exponential(100.0, 20_000)
        for horizon in (30.0, 5000.0):
            lost = (times < horizon).astype(float)
            after = np.where(times < horizon, horizon - times, 0.0)
            mean, std_error = time_on_test_mttdl(
                horizon, times.size, lost.sum(), lost.sum(), after.sum(),
                np.square(after).sum(), (lost * after).sum(),
            )
            assert std_error > 0
            assert abs(mean - 100.0) <= 4.0 * std_error
            assert mean == pytest.approx(
                np.minimum(times, horizon).sum() / lost.sum()
            )

    def test_unbiased_weights_give_the_plain_mle(self):
        # Unit weights: the weighted time on test over weighted losses
        # is total observed time over losses.
        chunk = simulate_batch(
            paper_moderate_model(), trials=500, horizon=MISSION, seed=4
        )
        tally = WeightedLossTally()
        tally.add(chunk)
        estimate = tally.mttdl_estimate(MISSION)
        assert estimate.mean == pytest.approx(
            chunk.total_observed_time / chunk.losses, rel=1e-12
        )
        assert estimate.method == "is"

    def test_long_horizon_mttdl_agrees_with_standard(self):
        # Regression: at run_mttdl's default horizon (1000 MV, ~60
        # MTTDLs) the paper's alpha = 0.5 pair sees p near 1.
        # Inverting the exponential law clamped p to 1 - 1e-15 and
        # answered 40.5M h +- 0 under both IS and CV, against
        # standard's 22.2M +- 1.0M.
        model = FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 730.0, 0.5)
        settings = dict(trials=500, seed=1)
        standard = run_mttdl(model, **settings)
        for estimate in (
            run_mttdl(model, method="is", **settings),
            run_mttdl(model, variance_reduction="cv", **settings),
        ):
            assert estimate.std_error > 0
            combined = math.hypot(estimate.std_error, standard.std_error)
            assert abs(estimate.mean - standard.mean) <= 4.0 * combined


class TestAutoMethod:
    def test_auto_answers_a_rare_pair_by_the_control_variate(self):
        kwargs = dict(
            model=paper_rare_model(), mission_time=MISSION, trials=500, seed=3,
            target_relative_error=0.02,
        )
        estimate, rounds, escalations, counted = self.traced(
            method="auto", **kwargs
        )
        assert estimate.method == "cv"
        assert estimate == run_loss_probability(
            variance_reduction="cv", **kwargs
        )
        assert len(rounds) > 1 and all(r["method"] == "cv" for r in rounds)
        assert escalations == [] and counted == 0

    def test_auto_leaves_a_long_pair_mttdl_to_plain_sampling(self):
        # Six screened MTTDLs of the alpha 0.5 pair in 2,000-trial
        # chunks: past the MTTDL's break-even, whose skeleton also
        # integrates the time on test, and within the loss probability's.
        model = FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 730.0, 0.5)
        horizon = 6.0 / analytic_loss_rate(model, 2)
        settings = dict(trials=2000, seed=1, method="auto")
        assert run_mttdl(model, max_time=horizon, **settings).method == (
            "standard"
        )
        assert run_loss_probability(
            model, mission_time=horizon, **settings
        ).method == "cv"

    def test_the_control_variate_bound_shrinks_with_the_chunk(self):
        # Per-trial work dominates a large chunk, and a small chunk stops
        # sweeping at its expected last loss, ln n + 0.58 MTTDLs in.
        assert _conditional_pays("mttdl", 4.0, 2000)
        assert not _conditional_pays("mttdl", 4.0, 20_000)
        assert _conditional_pays("loss_probability", 6.0, 2000)
        assert not _conditional_pays("loss_probability", 6.0, 20_000)
        assert not _conditional_pays("loss_probability", 6.0, 200)

    def test_auto_switches_to_is_on_rare_triple(self, fast_model):
        estimate = run_loss_probability(
            fast_model,
            mission_time=100.0,
            trials=500,
            seed=3,
            replicas=3,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "is"
        assert estimate.mean > 0

    def test_auto_stays_standard_on_lossy_triple(self, fast_model):
        estimate = run_loss_probability(
            fast_model,
            mission_time=1500.0,
            trials=500,
            seed=3,
            replicas=3,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "standard"

    def test_auto_mttdl_keeps_a_converged_censoring_pilot(self):
        # Regression: ~30% censoring used to trigger the IS switch even
        # when the standard pilot had already met the adaptive target,
        # throwing away converged work.  A triple, so that the pilot
        # runs at a loss threshold the control variate does not reach.
        estimate = run_mttdl(
            FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0),
            trials=1000,
            seed=3,
            max_time=7700.0,
            replicas=3,
            backend="batch",
            method="auto",
            target_relative_error=0.05,
        )
        assert estimate.censored / estimate.trials > 0.2
        assert estimate.method == "standard"
        assert estimate.relative_error <= 0.05

    @staticmethod
    def traced(**kwargs):
        """A loss estimate run in a recording session: the estimate, the
        data of its ``pilot_round`` and ``escalation`` records, and its
        escalation count."""
        sink = io.StringIO()
        telemetry = obs.Telemetry(trace=obs.TraceWriter(sink))
        with obs.session(telemetry):
            estimate = run_loss_probability(**kwargs)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        rounds = [r["data"] for r in records if r["event"] == "pilot_round"]
        escalations = [
            r["data"] for r in records if r["event"] == "escalation"
        ]
        counted = telemetry.counters.get("estimator.escalations", 0)
        return estimate, rounds, escalations, counted

    def test_auto_skips_a_pilot_the_screen_condemns(self):
        # Three daily-scrubbed replicas: the screen expects ~7e-6 losses
        # in a 500-trial pilot, so ``auto`` answers as ``is`` does.
        kwargs = dict(
            model=paper_rare_model(),
            mission_time=MISSION,
            trials=500,
            seed=3,
            replicas=3,
            target_relative_error=0.2,
        )
        estimate, rounds, escalations, counted = self.traced(
            method="auto", **kwargs
        )
        assert estimate == run_loss_probability(method="is", **kwargs)
        assert rounds and all(r["method"] == "is" for r in rounds)
        [escalation] = escalations
        assert escalation["pilot_trials"] == 0
        assert escalation["pilot_losses"] == 0
        assert 0 < escalation["predicted_losses"] <= AUTO_SKIP_PILOT_LOSSES
        assert counted == 1

    def test_auto_runs_a_pilot_above_the_cut_off(self, fast_model):
        # The compressed-time triple over 20 h at 500 trials: ~1.6
        # expected losses.
        predicted = predicted_pilot_losses(fast_model, 20.0, 500, 3)
        assert AUTO_SKIP_PILOT_LOSSES < predicted < 2.0
        estimate, rounds, escalations, counted = self.traced(
            model=fast_model,
            mission_time=20.0,
            trials=500,
            seed=3,
            replicas=3,
            method="auto",
        )
        assert estimate.method == "is"
        assert rounds[0]["method"] == "standard"
        assert rounds[0]["trials"] == 500
        [escalation] = escalations
        assert escalation["pilot_trials"] == 500
        assert "predicted_losses" not in escalation
        assert counted == 1

    def test_auto_pilot_prediction_reads_the_audit_override(self):
        # Three replicas that are never audited lose often, whatever MDL
        # the model names: the pilot runs, and it keeps standard sampling.
        model = paper_rare_model()
        assert predicted_pilot_losses(
            model, MISSION, 500, 3
        ) <= AUTO_SKIP_PILOT_LOSSES
        assert predicted_pilot_losses(
            model.with_audit_rate(0.0), MISSION, 500, 3
        ) > AUTO_MIN_LOSSES
        assert predicted_pilot_losses(
            model.with_audit_rate(HOURS_PER_YEAR / 24.0), MISSION, 500, 3
        ) == predicted_pilot_losses(model, MISSION, 500, 3)
        estimate, rounds, escalations, _ = self.traced(
            model=model,
            mission_time=MISSION,
            trials=500,
            seed=3,
            replicas=3,
            audits_per_year=0.0,
            method="auto",
        )
        assert estimate.method == "standard"
        assert rounds[0]["method"] == "standard"
        assert escalations == []

    def test_auto_mttdl_switches_on_censoring(self, fast_model):
        estimate = run_mttdl(
            fast_model,
            trials=300,
            seed=3,
            max_time=2000.0,
            replicas=3,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "is"
        assert math.isfinite(estimate.mean)
