"""Tests for the rare-event acceleration machinery.

Covers the failure-biased importance sampling mode of the batch backend
(weight validity, estimator agreement with plain Monte-Carlo and the
exact Markov chain), the fixed-effort multilevel-splitting estimator on
the event backend (including snapshot/resume), the automatic method
selection, and the bias-choice heuristic.
"""

import math

import numpy as np
import pytest

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import build_mirrored_chain, mirrored_mttdl_markov
from repro.markov.transient import loss_probability_over_time
from repro.simulation.batch import simulate_batch
from repro.simulation.engine import SimulationEngine
from repro.simulation.estimators import (
    MonteCarloEstimate,
    run_loss_probability,
    run_mttdl,
)
from repro.simulation.rare_event import (
    WeightedLossTally,
    analytic_loss_rate,
    default_failure_bias,
    effective_sample_size,
    mttdl_from_loss_probability,
    splitting_loss_probability,
)
from repro.simulation.system import system_from_fault_model

MISSION = 50.0 * HOURS_PER_YEAR


def paper_moderate_model():
    """The paper's scrubbed Cheetah pair: ~2% loss in 50 years."""
    return FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 1460.0, 1.0)


def paper_rare_model():
    """Daily-scrubbed Cheetah pair: ~1.7e-4 loss in 50 years."""
    return FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 12.0, 1.0)


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


class TestEffectiveSampleSize:
    def test_unit_weights(self):
        assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)

    def test_degenerate_weights(self):
        weights = np.array([1e9] + [1.0] * 99)
        assert effective_sample_size(weights) == pytest.approx(1.0, rel=1e-6)

    def test_empty(self):
        assert effective_sample_size(np.array([])) == 0.0


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

    def test_splitting_rejected_for_mttdl(self, fast_model):
        with pytest.raises(ValueError):
            run_mttdl(fast_model, trials=10, method="splitting")

    def test_unknown_method_rejected(self, fast_model):
        with pytest.raises(ValueError):
            run_loss_probability(fast_model, trials=10, method="antithetic")


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


class TestMttdlInversion:
    def test_small_probability_reduces_to_horizon_over_p(self):
        p = MonteCarloEstimate(mean=1e-6, std_error=1e-7, trials=1000)
        mttdl = mttdl_from_loss_probability(p, 1e4)
        assert mttdl.mean == pytest.approx(1e4 / 1e-6, rel=1e-3)
        assert mttdl.std_error == pytest.approx(mttdl.mean * 0.1, rel=1e-2)

    def test_zero_probability_gives_infinite_mttdl(self):
        p = MonteCarloEstimate(mean=0.0, std_error=0.0, trials=100)
        mttdl = mttdl_from_loss_probability(p, 1e4)
        assert mttdl.mean == math.inf

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            mttdl_from_loss_probability(
                MonteCarloEstimate(0.1, 0.01, 10), 0.0
            )


class TestAutoMethod:
    def test_auto_switches_to_is_on_rare_model(self):
        estimate = run_loss_probability(
            paper_rare_model(),
            mission_time=MISSION,
            trials=500,
            seed=3,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "is"
        assert estimate.mean > 0

    def test_auto_stays_standard_on_lossy_model(self, fast_model):
        estimate = run_loss_probability(
            fast_model,
            mission_time=1500.0,
            trials=500,
            seed=3,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "standard"

    def test_auto_mttdl_keeps_a_converged_censoring_pilot(self):
        # Regression: ~30% censoring used to trigger the IS switch even
        # when the standard pilot had already met the adaptive target,
        # throwing away converged work.
        estimate = run_mttdl(
            FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0),
            trials=1000,
            seed=3,
            max_time=900.0,
            backend="batch",
            method="auto",
            target_relative_error=0.05,
        )
        assert estimate.censored / estimate.trials > 0.2
        assert estimate.method == "standard"
        assert estimate.relative_error <= 0.05

    def test_auto_mttdl_switches_on_censoring(self):
        estimate = run_mttdl(
            paper_rare_model(),
            trials=300,
            seed=3,
            max_time=MISSION,
            backend="batch",
            method="auto",
        )
        assert estimate.method == "is"
        assert math.isfinite(estimate.mean)


class TestSplitting:
    def test_agrees_with_standard_at_moderate_point(self, fast_model):
        standard = run_loss_probability(
            fast_model,
            mission_time=1500.0,
            trials=20000,
            seed=6,
            backend="batch",
            method="standard",
        )
        split = run_loss_probability(
            fast_model,
            mission_time=1500.0,
            trials=400,
            seed=6,
            method="splitting",
        )
        assert split.method == "splitting"
        assert intervals_overlap(standard, split)

    def test_agrees_with_batch_under_correlation(self, fast_model_factory):
        model = fast_model_factory(correlation_factor=0.2)
        standard = run_loss_probability(
            model, mission_time=60.0, trials=20000, seed=6, backend="batch"
        )
        split = run_loss_probability(
            model, mission_time=60.0, trials=400, seed=6, method="splitting"
        )
        assert split.method == "splitting"
        assert intervals_overlap(standard, split)

    @pytest.mark.parametrize(
        "layout",
        [dict(replicas=2), dict(replicas=3), dict(scheme=RedundancyScheme(3, 2))],
        ids=["2-way", "3-way", "3-2-erasure"],
    )
    def test_losses_come_only_from_the_final_stage(self, fast_model, layout):
        # Faults arrive one at a time, so a stage before the last can
        # reach its level but never lose the data: every loss is a hit
        # of the final stage, and losses never exceed the runs made.
        run = splitting_loss_probability(
            fast_model,
            mission_time=300.0,
            trials_per_level=100,
            seed=5,
            **layout,
        )
        scheme = layout.get("scheme")
        levels = scheme.loss_threshold if scheme else layout["replicas"]
        assert len(run.conditional) == levels
        assert run.trials == run.trials_per_level * levels
        assert run.losses == round(run.conditional[-1] * run.trials_per_level)
        assert 0 < run.losses <= run.trials_per_level

    def test_deterministic_for_same_seed(self, fast_model):
        a = splitting_loss_probability(
            fast_model, mission_time=1500.0, trials_per_level=100, seed=4
        )
        b = splitting_loss_probability(
            fast_model, mission_time=1500.0, trials_per_level=100, seed=4
        )
        assert a.conditional == b.conditional

    def test_chunks_are_independent(self, fast_model):
        a = splitting_loss_probability(
            fast_model, mission_time=1500.0, trials_per_level=100, seed=4, chunk=0
        )
        b = splitting_loss_probability(
            fast_model, mission_time=1500.0, trials_per_level=100, seed=4, chunk=1
        )
        assert a.conditional != b.conditional

    def test_zero_hit_stage_reports_rule_of_three_error(self):
        # Faults are frequent enough for stage 1 but second faults
        # essentially never land inside the short windows: the final
        # stage sees zero hits, the estimate collapses to zero but keeps
        # an informative pseudo-error.
        model = FaultModel(5e5, 1e5, 0.01, 0.01, 0.05, 1.0)
        run = splitting_loss_probability(
            model,
            mission_time=2000.0,
            trials_per_level=50,
            seed=2,
            audits_per_year=8766.0 / 100.0,
        )
        assert run.mean == 0.0
        assert run.std_error > 0.0

    def test_three_replica_levels(self, fast_model):
        run = splitting_loss_probability(
            fast_model,
            mission_time=3000.0,
            trials_per_level=150,
            seed=7,
            replicas=3,
        )
        assert len(run.conditional) <= 3
        assert 0.0 <= run.mean <= 1.0

    def test_validation(self, fast_model):
        with pytest.raises(ValueError):
            splitting_loss_probability(fast_model, mission_time=0.0)
        with pytest.raises(ValueError):
            splitting_loss_probability(
                fast_model, mission_time=100.0, trials_per_level=0
            )


class TestSnapshotResume:
    def _run_to_first_fault(self, seed=3):
        model = FaultModel(500.0, 100.0, 20.0, 20.0, 5.0, 1.0)
        from repro.simulation.rng import RandomStreams

        system = system_from_fault_model(
            model, replicas=2, streams=RandomStreams(seed=seed)
        )
        result = system.run(max_time=1e6, stop_when_faulty=1)
        return system, result

    def test_level_stop_reports_hit_time(self):
        system, result = self._run_to_first_fault()
        assert not result.lost
        assert result.level_hit_time is not None
        assert result.end_time == result.level_hit_time

    def test_snapshot_captures_faulty_state(self):
        system, result = self._run_to_first_fault()
        snapshot = system.capture_snapshot()
        assert snapshot.time == result.level_hit_time
        assert snapshot.faulty_count == 1

    def test_resume_continues_from_snapshot_time(self):
        system, result = self._run_to_first_fault()
        snapshot = system.capture_snapshot()
        from repro.simulation.rng import RandomStreams

        model = FaultModel(500.0, 100.0, 20.0, 20.0, 5.0, 1.0)
        fresh = system_from_fault_model(
            model, replicas=2, streams=RandomStreams(seed=99)
        )
        resumed = fresh.run(
            max_time=snapshot.time + 5000.0, resume_from=snapshot
        )
        assert resumed.end_time > snapshot.time

    def test_resume_already_at_level_hits_immediately(self):
        system, _ = self._run_to_first_fault()
        snapshot = system.capture_snapshot()
        from repro.simulation.rng import RandomStreams

        model = FaultModel(500.0, 100.0, 20.0, 20.0, 5.0, 1.0)
        fresh = system_from_fault_model(
            model, replicas=2, streams=RandomStreams(seed=100)
        )
        result = fresh.run(
            max_time=snapshot.time + 100.0,
            stop_when_faulty=1,
            resume_from=snapshot,
        )
        assert result.level_hit_time == snapshot.time

    def test_resume_rejects_a_horizon_before_the_snapshot(self):
        system, _ = self._run_to_first_fault()
        snapshot = system.capture_snapshot()
        from repro.simulation.rng import RandomStreams

        model = FaultModel(500.0, 100.0, 20.0, 20.0, 5.0, 1.0)
        fresh = system_from_fault_model(
            model, replicas=2, streams=RandomStreams(seed=99)
        )
        with pytest.raises(ValueError, match="precedes the snapshot"):
            fresh.run(max_time=snapshot.time / 2.0, resume_from=snapshot)

    def test_resume_rejects_a_snapshot_of_another_replica_count(self):
        system, _ = self._run_to_first_fault()
        snapshot = system.capture_snapshot()
        from repro.simulation.rng import RandomStreams

        model = FaultModel(500.0, 100.0, 20.0, 20.0, 5.0, 1.0)
        fresh = system_from_fault_model(
            model, replicas=3, streams=RandomStreams(seed=99)
        )
        with pytest.raises(ValueError, match="replica count"):
            fresh.run(max_time=snapshot.time + 100.0, resume_from=snapshot)

    def test_cannot_snapshot_after_loss(self, fast_model):
        from repro.simulation.rng import RandomStreams

        system = system_from_fault_model(
            fast_model, replicas=2, streams=RandomStreams(seed=2)
        )
        result = system.run(max_time=1e6)
        assert result.lost
        with pytest.raises(ValueError):
            system.capture_snapshot()

    def test_stop_when_faulty_validated(self, fast_model):
        from repro.simulation.rng import RandomStreams

        system = system_from_fault_model(
            fast_model, replicas=2, streams=RandomStreams(seed=2)
        )
        with pytest.raises(ValueError):
            system.run(max_time=100.0, stop_when_faulty=3)

    def test_engine_advance_guards(self):
        engine = SimulationEngine()
        engine.advance_to(10.0)
        assert engine.now == 10.0
        with pytest.raises(ValueError):
            engine.advance_to(5.0)
        engine.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            engine.advance_to(20.0)


class TestWeightedLossTallyMerge:
    """merge() must behave exactly like tallying all chunks in one pass."""

    def chunks(self, count=3):
        return [
            simulate_batch(
                paper_moderate_model(),
                trials=400,
                horizon=MISSION,
                seed=4,
                chunk=index,
                bias=8.0,
            )
            for index in range(count)
        ]

    def test_merge_equals_streaming_add(self):
        chunks = self.chunks()
        streamed = WeightedLossTally()
        for chunk in chunks:
            streamed.add(chunk)
        parts = []
        for chunk in chunks:
            tally = WeightedLossTally()
            tally.add(chunk)
            parts.append(tally)
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.trials == streamed.trials
        assert merged.losses == streamed.losses
        assert merged.sum_x == pytest.approx(streamed.sum_x)
        assert merged.sum_x_sq == pytest.approx(streamed.sum_x_sq)
        assert merged.mean == pytest.approx(streamed.mean)
        assert merged.std_error == pytest.approx(streamed.std_error)

    def test_merge_is_commutative(self):
        chunks = self.chunks(2)
        a, b = WeightedLossTally(), WeightedLossTally()
        a.add(chunks[0])
        b.add(chunks[1])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.trials == ba.trials
        assert ab.losses == ba.losses
        assert ab.sum_x == pytest.approx(ba.sum_x)
        assert ab.sum_x_sq == pytest.approx(ba.sum_x_sq)

    def test_merge_is_associative(self):
        parts = []
        for chunk in self.chunks():
            tally = WeightedLossTally()
            tally.add(chunk)
            parts.append(tally)
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.trials == right.trials
        assert left.losses == right.losses
        assert left.sum_x == pytest.approx(right.sum_x)
        assert left.sum_x_sq == pytest.approx(right.sum_x_sq)

    def test_merge_does_not_mutate_operands(self):
        chunks = self.chunks(2)
        a, b = WeightedLossTally(), WeightedLossTally()
        a.add(chunks[0])
        b.add(chunks[1])
        before = (a.trials, a.losses, a.sum_x, a.sum_x_sq)
        a.merge(b)
        assert (a.trials, a.losses, a.sum_x, a.sum_x_sq) == before

    def test_merge_with_empty_is_identity(self):
        tally = WeightedLossTally()
        tally.add(self.chunks(1)[0])
        merged = tally.merge(WeightedLossTally())
        assert merged.trials == tally.trials
        assert merged.mean == pytest.approx(tally.mean)
        assert merged.ess == pytest.approx(tally.ess)
