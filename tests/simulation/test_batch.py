"""Cross-validation of the vectorized batch backend.

The batch simulator must reproduce the event-driven backend's estimates
within Monte-Carlo noise on the paper's operating points — same physics,
different execution strategy.  Determinism, adaptive sampling, and the
argument validation of the ``backend`` switch are covered here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation import batch as batch_module
from repro.simulation.batch import (
    BatchRunResult,
    PiecewiseBatchState,
    RateSegment,
    audit_interval_for,
    simulate_batch,
    simulate_batch_piecewise,
)
from repro.simulation.rng import batch_generator
from repro.simulation.estimators import run_loss_probability, run_mttdl
from repro.simulation.monte_carlo import double_fault_combination_counts


def paper_model():
    """The paper's scrubbed Cheetah mirrored pair (Section 5.4)."""
    return FaultModel(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=1.0,
    )


def intervals_overlap(a, b):
    (a_lo, a_hi), (b_lo, b_hi) = a.confidence_interval(), b.confidence_interval()
    return a_lo <= b_hi and b_lo <= a_hi


class TestSimulateBatch:
    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        # The canonical compressed-time model lives in tests/conftest.py.
        self.fast_model = fast_model_factory

    def test_deterministic_for_same_seed(self):
        a = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=3)
        b = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=3)
        assert np.array_equal(a.end_time, b.end_time)
        assert np.array_equal(a.lost, b.lost)

    def test_different_seeds_differ(self):
        a = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=3)
        b = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=4)
        assert not np.array_equal(a.end_time, b.end_time)

    def test_chunks_are_independent(self):
        a = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=3, chunk=0)
        b = simulate_batch(self.fast_model(), trials=200, horizon=1e5, seed=3, chunk=1)
        assert not np.array_equal(a.end_time, b.end_time)

    def test_censored_trials_end_at_horizon(self):
        result = simulate_batch(self.fast_model(), trials=100, horizon=50.0, seed=1)
        censored = ~result.lost
        assert censored.any()
        assert np.all(result.end_time[censored] == 50.0)
        assert np.all(result.first_fault_type[censored] == -1)

    def test_lost_trials_have_fault_types(self):
        result = simulate_batch(self.fast_model(), trials=300, horizon=1e6, seed=2)
        assert result.lost.all()
        assert np.all(result.first_fault_type[result.lost] > 0)
        assert np.all(result.final_fault_type[result.lost] > 0)
        assert np.all(result.end_time[result.lost] < 1e6)

    def test_single_replica_loses_at_first_fault(self):
        model = self.fast_model()
        result = simulate_batch(model, trials=2000, horizon=1e5, seed=5, replicas=1)
        assert result.lost.all()
        # Mean time to the first of two competing exponentials.
        expected = 1.0 / (1.0 / 500.0 + 1.0 / 100.0)
        assert result.end_time.mean() == pytest.approx(expected, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_batch(self.fast_model(), trials=0, horizon=1e5)
        with pytest.raises(ValueError):
            simulate_batch(self.fast_model(), trials=10, horizon=0.0)
        with pytest.raises(ValueError):
            simulate_batch(self.fast_model(), trials=10, horizon=1e5, replicas=0)

    def test_audit_interval_matches_event_backend_convention(self):
        assert audit_interval_for(self.fast_model()) == pytest.approx(10.0)
        assert audit_interval_for(self.fast_model(), audits_per_year=0.0) is None
        assert audit_interval_for(
            self.fast_model(), audits_per_year=12.0
        ) == pytest.approx(HOURS_PER_YEAR / 12.0)
        # MDL no better than the latent mean time means no scrubbing.
        assert audit_interval_for(self.fast_model(mean_detect_latent=100.0)) is None

    def test_combination_counts_sum_to_losses(self):
        result = simulate_batch(self.fast_model(), trials=300, horizon=1e6, seed=9)
        counts = result.combination_counts()
        assert sum(counts.values()) == result.losses


class TestBackendCrossValidation:
    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        # The canonical compressed-time model lives in tests/conftest.py.
        self.fast_model = fast_model_factory

    def test_mttdl_matches_event_backend(self):
        model = self.fast_model()
        event = run_mttdl(model, trials=300, seed=2, max_time=1e6)
        batch = run_mttdl(
            model, trials=2000, seed=2, max_time=1e6, backend="batch"
        )
        assert intervals_overlap(event, batch)

    def test_mttdl_matches_with_correlation(self):
        model = self.fast_model(correlation_factor=0.2)
        event = run_mttdl(model, trials=300, seed=4, max_time=1e6)
        batch = run_mttdl(
            model, trials=2000, seed=4, max_time=1e6, backend="batch"
        )
        assert intervals_overlap(event, batch)
        # Correlation must hurt in both backends.
        independent = run_mttdl(
            self.fast_model(), trials=2000, seed=4, max_time=1e6, backend="batch"
        )
        assert batch.mean < independent.mean

    def test_mttdl_matches_with_three_replicas(self):
        model = self.fast_model()
        event = run_mttdl(model, trials=150, seed=6, max_time=1e7, replicas=3)
        batch = run_mttdl(
            model, trials=1500, seed=6, max_time=1e7, replicas=3, backend="batch"
        )
        assert intervals_overlap(event, batch)

    def test_loss_probability_matches_event_backend(self):
        model = self.fast_model()
        event = run_loss_probability(
            model, mission_time=1500.0, trials=400, seed=3
        )
        batch = run_loss_probability(
            model, mission_time=1500.0, trials=4000, seed=3, backend="batch"
        )
        assert intervals_overlap(event, batch)

    def test_loss_probability_on_paper_operating_point(self):
        # The paper's 50-year mission on the scrubbed Cheetah pair: loss
        # is rare, so both backends must report a probability near zero
        # with overlapping confidence intervals.
        model = paper_model()
        mission = 50.0 * HOURS_PER_YEAR
        event = run_loss_probability(
            model, mission_time=mission, trials=150, seed=1
        )
        batch = run_loss_probability(
            model, mission_time=mission, trials=3000, seed=1, backend="batch"
        )
        assert intervals_overlap(event, batch)
        # The scrubbed pair's MTTDL is ~2.5k years, so ~2% loss risk in
        # a 50-year mission; both backends must sit in that regime.
        assert 0.001 < batch.mean < 0.05

    def test_scrubbing_improves_batch_mttdl(self):
        base = self.fast_model()
        scrubbed = run_mttdl(
            base, trials=2000, seed=3, max_time=1e6, backend="batch"
        )
        unscrubbed = run_mttdl(
            base.with_detection_time(base.mean_time_to_latent),
            trials=2000,
            seed=3,
            max_time=1e6,
            backend="batch",
        )
        assert scrubbed.mean > unscrubbed.mean

    def test_double_fault_combinations_match(self):
        model = self.fast_model(mean_detect_latent=100.0)
        event = double_fault_combination_counts(
            model, trials=200, seed=8, max_time=1e6
        )
        batch = double_fault_combination_counts(
            model, trials=2000, seed=8, max_time=1e6, backend="batch"
        )
        assert set(batch) == set(event)
        # With slow detection, latent-first losses dominate in both.
        for counts in (event, batch):
            latent_first = (
                counts[(FaultType.LATENT, FaultType.VISIBLE)]
                + counts[(FaultType.LATENT, FaultType.LATENT)]
            )
            visible_first = (
                counts[(FaultType.VISIBLE, FaultType.VISIBLE)]
                + counts[(FaultType.VISIBLE, FaultType.LATENT)]
            )
            assert latent_first > visible_first
        # The dominant-combination *fractions* agree within coarse noise.
        event_total = sum(event.values())
        batch_total = sum(batch.values())
        key = (FaultType.LATENT, FaultType.LATENT)
        assert event[key] / event_total == pytest.approx(
            batch[key] / batch_total, abs=0.1
        )

    def test_batch_rejects_factory(self):
        with pytest.raises(ValueError):
            run_mttdl(
                factory=lambda streams: None, trials=10, backend="batch"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_mttdl(self.fast_model(), trials=10, backend="gpu")


class TestAdaptiveSampling:
    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        # The canonical compressed-time model lives in tests/conftest.py.
        self.fast_model = fast_model_factory

    def test_extends_until_target_met(self):
        estimate = run_mttdl(
            self.fast_model(),
            trials=100,
            seed=5,
            max_time=1e6,
            backend="batch",
            target_relative_error=0.02,
        )
        # 1/sqrt(losses) <= 0.02 needs >= 2500 losses, i.e. many chunks.
        assert estimate.trials > 100
        assert estimate.relative_error <= 0.02

    def test_single_chunk_when_target_already_met(self):
        estimate = run_mttdl(
            self.fast_model(),
            trials=500,
            seed=5,
            max_time=1e6,
            backend="batch",
            target_relative_error=0.2,
        )
        assert estimate.trials == 500

    def test_respects_max_trials(self):
        estimate = run_mttdl(
            self.fast_model(),
            trials=100,
            seed=5,
            max_time=1e6,
            backend="batch",
            target_relative_error=0.001,
            max_trials=400,
        )
        assert estimate.trials == 400
        assert estimate.relative_error > 0.001

    def test_max_trials_is_a_hard_cap_for_partial_chunks(self):
        # A cap that is not a multiple of the chunk size clamps the
        # final chunk instead of overshooting by up to trials - 1.
        estimate = run_mttdl(
            self.fast_model(),
            trials=100,
            seed=5,
            max_time=1e6,
            backend="batch",
            target_relative_error=1e-9,
            max_trials=150,
        )
        assert estimate.trials == 150

    def test_max_trials_below_initial_rejected(self):
        with pytest.raises(ValueError):
            run_mttdl(
                self.fast_model(),
                trials=100,
                backend="batch",
                target_relative_error=0.1,
                max_trials=50,
            )

    def test_adaptive_is_reproducible(self):
        kwargs = dict(
            trials=200,
            seed=7,
            max_time=1e6,
            backend="batch",
            target_relative_error=0.05,
        )
        a = run_mttdl(self.fast_model(), **kwargs)
        b = run_mttdl(self.fast_model(), **kwargs)
        assert a.mean == b.mean
        assert a.trials == b.trials

    def test_adaptive_works_on_event_backend(self):
        estimate = run_mttdl(
            self.fast_model(),
            trials=40,
            seed=5,
            max_time=1e6,
            backend="event",
            target_relative_error=0.1,
        )
        assert estimate.trials >= 100
        assert estimate.relative_error <= 0.1

    def test_adaptive_loss_probability(self):
        estimate = run_loss_probability(
            self.fast_model(),
            mission_time=1500.0,
            trials=200,
            seed=5,
            backend="batch",
            target_relative_error=0.02,
        )
        assert estimate.relative_error <= 0.02
        assert 0.0 < estimate.mean < 1.0


class TestBatchRunResultProperties:
    def test_counts(self):
        result = BatchRunResult(
            lost=np.array([True, False, True]),
            end_time=np.array([10.0, 100.0, 20.0]),
            first_fault_type=np.array([1, -1, 2], dtype=np.int8),
            final_fault_type=np.array([2, -1, 2], dtype=np.int8),
            horizon=100.0,
            sweeps=7,
        )
        assert result.trials == 3
        assert result.losses == 2
        assert result.censored == 1
        assert result.total_observed_time == pytest.approx(130.0)
        counts = result.combination_counts()
        assert counts[(FaultType.VISIBLE, FaultType.LATENT)] == 1
        assert counts[(FaultType.LATENT, FaultType.LATENT)] == 1
        assert sum(counts.values()) == 2


class TestPiecewiseTimeline:
    """Epoch/horizon boundary handling of the piecewise kernel.

    The contract under test: a fault clock drawn in one rate regime is
    exposure-corrected when rates change mid-trial, so a boundary where
    nothing changes leaves the state untouched and draws nothing, and a
    genuine rate change is distributionally exact (memorylessness +
    exponential scaling).  Cutting a timeline changes how the sweeps
    batch trials onto the shared stream, so a cut run is the same
    process on different draws.
    """

    def fast_model(self, **overrides):
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

    def half_lost_model(self, alpha):
        # About half of the trials are lost by HALF_LIFE_HORIZON.
        if alpha == 1.0:
            return self.fast_model(
                mean_time_to_visible=5000.0, mean_time_to_latent=1000.0
            )
        return self.fast_model(
            mean_time_to_visible=12000.0,
            mean_time_to_latent=2400.0,
            correlation_factor=alpha,
        )

    HALF_LIFE_HORIZON = 5e4
    CUT = 2e4

    @staticmethod
    def assert_within_4_se(losses_a, losses_b, trials):
        p_a, p_b = losses_a / trials, losses_b / trials
        combined_se = np.sqrt(
            p_a * (1 - p_a) / trials + p_b * (1 - p_b) / trials
        )
        assert abs(p_a - p_b) < 4 * combined_se

    @pytest.mark.parametrize("alpha", [1.0, 0.2])
    def test_identical_two_epoch_timeline_matches_single_epoch_in_distribution(
        self, alpha
    ):
        model = self.half_lost_model(alpha)
        single = simulate_batch_piecewise(
            [RateSegment(model, self.HALF_LIFE_HORIZON)], trials=3000, seed=7
        )
        double = simulate_batch_piecewise(
            [
                RateSegment(model, self.CUT),
                RateSegment(model, self.HALF_LIFE_HORIZON),
            ],
            trials=3000,
            seed=7,
        )
        assert 0.3 < single.losses / 3000 < 0.7
        # Trials are live across the cut, so it reshuffles their draws.
        assert not np.array_equal(single.lost, double.lost)
        self.assert_within_4_se(single.losses, double.losses, 3000)

    @pytest.mark.parametrize("bias", [None, 4.0])
    def test_equal_valued_distinct_models_are_still_a_no_op(self, bias):
        # The boundary compares rates by value, not identity: switching
        # to an equal-valued model mid-run, with degraded trials and
        # undetected latents live under alpha < 1, changes no state
        # array and draws nothing.
        rng = np.random.default_rng(9)
        state = PiecewiseBatchState(
            self.fast_model(correlation_factor=0.2),
            trials=2000,
            rng=rng,
            bias=bias,
        )
        # 45 h is between audits (every 10 h), so some latents landed
        # since the last one are still undetected.
        state.advance_to(45.0)
        live = ~state.lost
        assert ((state.state != 0).any(axis=1) & live).any()
        assert ((state.state == 2) & (state.clock > 45.0 + 1.0)).any()
        names = (
            "state", "fault_time", "clock", "lost", "end_time",
            "first_type", "final_type",
        ) + (("log_weight",) if bias else ())
        before = {name: getattr(state, name).copy() for name in names}
        stream = rng.bit_generator.state
        state.switch_model(self.fast_model(correlation_factor=0.2))
        for name in names:
            assert np.array_equal(getattr(state, name), before[name]), name
        assert rng.bit_generator.state == stream

    def test_a_switch_changes_the_type_of_the_next_fault(self):
        # One replica, so every fault is a loss of its own type.  A
        # fault takes its type when it lands, from the rates in force:
        # the visible share of the losses is 1/11 before the switch and
        # 10/11 after it.
        state = PiecewiseBatchState(
            self.fast_model(
                mean_time_to_visible=1000.0, mean_time_to_latent=100.0
            ),
            trials=200_000,
            replicas=1,
            seed=3,
        )
        state.advance_to(20.0)
        before = state.final_type[state.lost]
        state.switch_model(
            self.fast_model(
                mean_time_to_visible=100.0, mean_time_to_latent=1000.0
            )
        )
        state.advance_to(1e5)
        after = state.final_type[state.lost & (state.end_time >= 20.0)]
        for types, share in ((before, 1.0 / 11.0), (after, 10.0 / 11.0)):
            visible = np.count_nonzero(types == batch_module.VISIBLE)
            se = np.sqrt(share * (1.0 - share) / types.size)
            assert abs(visible / types.size - share) < 4 * se

    def test_regime_changes_draw_nothing(self):
        # A switch to different rates, and a shock that degrades trials
        # under alpha < 1, stretch the pending clocks of healthy
        # replicas by the ratio of the sampling means instead of
        # drawing new ones.
        rng = np.random.default_rng(4)
        state = PiecewiseBatchState(
            self.fast_model(correlation_factor=0.2), trials=500, rng=rng
        )
        now = 30.0
        state.advance_to(now)
        stream = rng.bit_generator.state
        live = ~state.lost
        degraded = state._faulty > 0
        healthy = (state.state == batch_module.OK) & live[:, None]
        assert (healthy & degraded[:, None]).any()
        residual = state.clock - now
        state.switch_model(
            self.fast_model(mean_time_to_visible=800.0, correlation_factor=0.5)
        )
        assert rng.bit_generator.state == stream
        mean_ratio = (1.0 / (1.0 / 800.0 + 1.0 / 100.0)) / (
            1.0 / (1.0 / 500.0 + 1.0 / 100.0)
        )
        factor = np.where(degraded, mean_ratio * 0.5 / 0.2, mean_ratio)
        expected = (residual * factor[:, None])[healthy]
        np.testing.assert_allclose(
            state.clock[healthy] - now, expected, rtol=1e-9
        )

        whole = np.flatnonzero(
            (state.state == batch_module.OK).all(axis=1) & live
        )
        assert whole.size > 0
        struck = np.zeros((whole.size, 2), dtype=bool)
        struck[:, 0] = True
        residual = state.clock[whole, 1] - now
        state.inject_faults(now, whole, struck)
        assert rng.bit_generator.state == stream
        assert (state._faulty[whole] == 1).all()
        np.testing.assert_allclose(
            state.clock[whole, 1] - now, residual * 0.5, rtol=1e-9
        )

    def test_single_segment_agrees_with_simulate_batch(self):
        self.assert_single_segment_matches_simulate_batch(bias=None)

    def test_biased_single_segment_agrees_with_simulate_batch(self):
        self.assert_single_segment_matches_simulate_batch(bias=5.0)

    def assert_single_segment_matches_simulate_batch(self, bias):
        # simulate_batch is a one-segment state on the batch stream.
        model = self.fast_model(correlation_factor=0.5)
        state = PiecewiseBatchState(
            model, trials=3000, rng=batch_generator(11, 2), bias=bias
        )
        state.advance_to(2000.0)
        piecewise = state.result()
        reference = simulate_batch(
            model, trials=3000, horizon=2000.0, seed=11, chunk=2, bias=bias
        )
        assert piecewise.sweeps == reference.sweeps
        assert piecewise.horizon == reference.horizon
        for field in (
            "lost", "end_time", "first_fault_type", "final_fault_type"
        ):
            assert np.array_equal(
                getattr(piecewise, field), getattr(reference, field)
            ), field
        if bias is None:
            assert piecewise.log_weight is None
            assert reference.log_weight is None
        else:
            assert np.array_equal(piecewise.log_weight, reference.log_weight)

    def test_biased_state_accumulates_weights_across_cuts(self):
        # The exposure integral and jump term carry over advance_to
        # calls: a biased run cut at nine identical-rate boundaries
        # estimates the same loss probability as the uncut biased run.
        model = self.half_lost_model(0.5)

        def weighted_losses(cuts):
            state = PiecewiseBatchState(model, trials=4000, seed=3, bias=3.0)
            for cut in cuts:
                state.advance_to(cut)
                state.switch_model(self.half_lost_model(0.5))
            state.advance_to(self.HALF_LIFE_HORIZON)
            result = state.result()
            scores = result.weights * result.lost
            return scores.mean(), scores.std(ddof=1) / np.sqrt(scores.size)

        uncut, uncut_se = weighted_losses([])
        cut, cut_se = weighted_losses(np.arange(1, 10) * 5e3)
        assert 0.15 < uncut < 0.85
        assert abs(uncut - cut) < 4 * np.hypot(uncut_se, cut_se)

    def test_switch_to_safe_regime_stops_new_losses(self):
        model = self.fast_model()
        safe = self.fast_model(
            mean_time_to_visible=1e13, mean_time_to_latent=1e13
        )
        result = simulate_batch_piecewise(
            [RateSegment(model, 3000.0), RateSegment(safe, 1e5)],
            trials=2000,
            seed=3,
        )
        assert result.losses > 0
        # Losses after the boundary can only finish windows opened
        # before it: one latent detection interval (2 * MDL) plus both
        # repairs bounds them.
        margin = 2.0 * 5.0 + 1.0 + 1.0
        assert result.end_time[result.lost].max() <= 3000.0 + margin

    def test_disabling_scrubbing_at_a_boundary_strands_latents(self):
        # Latent-dominated model: after the audit grid is switched off,
        # undetected latent faults never recover, so losses rise sharply
        # versus keeping the grid (same seed, same fault clocks).
        model = self.fast_model(
            mean_time_to_visible=1e9, mean_time_to_latent=5000.0
        )
        scrubbed = simulate_batch_piecewise(
            [RateSegment(model, 500.0), RateSegment(model, 4000.0)],
            trials=2000,
            seed=5,
        )
        unscrubbed = simulate_batch_piecewise(
            [
                RateSegment(model, 500.0),
                RateSegment(model, 4000.0, audits_per_year=0.0),
            ],
            trials=2000,
            seed=5,
        )
        assert unscrubbed.losses > 2 * scrubbed.losses

    def test_validation(self):
        model = self.fast_model()
        with pytest.raises(ValueError):
            simulate_batch_piecewise([], trials=10)
        with pytest.raises(ValueError):
            simulate_batch_piecewise(
                [RateSegment(model, 100.0), RateSegment(model, 100.0)],
                trials=10,
            )
        with pytest.raises(ValueError):
            RateSegment(model, 0.0)
        with pytest.raises(ValueError):
            PiecewiseBatchState(model, trials=0)


class TestPiecewiseStateMachine:
    def fast_model(self):
        return FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)

    @staticmethod
    def quiet_model(mrl=1.0):
        # Organic faults are negligible, so only injected ones exist.
        # MDL 5 h: audits every 10 h.
        return FaultModel(1e12, 1e12, 1.0, mrl, 5.0, 1.0)

    def test_inject_faults_on_every_replica_loses_the_trial(self):
        state = PiecewiseBatchState(self.quiet_model(), trials=8, replicas=2)
        members = np.array([0, 3, 5])
        hits = np.ones((3, 2), dtype=bool)
        state.inject_faults(10.0, members, hits)
        assert state.lost[members].all()
        assert np.count_nonzero(state.lost) == 3
        assert state.end_time[members].tolist() == [10.0, 10.0, 10.0]
        assert state.shock_faults == 6

    def test_partial_hit_degrades_without_losing(self):
        state = PiecewiseBatchState(self.quiet_model(), trials=4, replicas=2)
        hits = np.zeros((1, 2), dtype=bool)
        hits[0, 0] = True
        state.inject_faults(5.0, np.array([1]), hits)
        assert not state.lost.any()
        assert state.state[1, 0] != 0
        # The struck replica repairs (visible fault, MRV = 1h).
        assert state.clock[1, 0] == pytest.approx(6.0)

    def test_injection_on_lost_members_is_a_no_op(self):
        state = PiecewiseBatchState(self.quiet_model(), trials=2, replicas=2)
        state.inject_faults(1.0, np.array([0]), np.ones((1, 2), dtype=bool))
        faults_before = state.shock_faults
        state.inject_faults(2.0, np.array([0]), np.ones((1, 2), dtype=bool))
        assert state.shock_faults == faults_before

    def test_a_later_injection_lands_after_the_events_before_it(self):
        # Injecting at a time after ``now`` first runs the organic
        # events before it, so no loss is recorded before the fault
        # that completed it: every lost trial ends at its latest fault.
        state = PiecewiseBatchState(
            self.fast_model(), trials=2000, replicas=2, seed=1
        )
        struck = np.zeros((2000, 2), dtype=bool)
        struck[:, 0] = True
        state.inject_faults(50.0, np.arange(2000), struck)
        assert state.now == 50.0
        state.advance_to(51.0)
        lost = state.lost
        latest_fault = np.where(
            state.state != batch_module.OK, state.fault_time, -np.inf
        ).max(axis=1)
        assert np.count_nonzero(lost) > 100
        assert np.array_equal(state.end_time[lost], latest_fault[lost])
        # Both kinds of loss happen: organic ones before the shock, and
        # ones the shock completes on trials it finds degraded.
        assert (state.end_time[lost] < 50.0).any()
        assert (state.end_time[lost] == 50.0).any()

    def test_cannot_advance_backwards_or_inject_in_the_past(self):
        state = PiecewiseBatchState(self.fast_model(), trials=2)
        state.advance_to(100.0)
        with pytest.raises(ValueError):
            state.advance_to(50.0)
        with pytest.raises(ValueError):
            state.inject_faults(
                50.0, np.array([0]), np.ones((1, 2), dtype=bool)
            )

    def test_result_censors_survivors_at_current_time(self):
        state = PiecewiseBatchState(self.fast_model(), trials=50)
        state.advance_to(200.0)
        result = state.result()
        assert result.horizon == 200.0
        assert np.all(result.end_time[~result.lost] == 200.0)

    def test_in_flight_latent_repair_survives_later_switches(self):
        # A latent detected before one switch keeps its completion time
        # through the next, even when that switch re-anchors (here:
        # strands) the latents still undetected.
        quiet = self.quiet_model
        latent = batch_module.LATENT
        state = PiecewiseBatchState(quiet(1000.0), trials=1, replicas=3)
        one = np.array([0])
        state.inject_faults(1.0, one, np.array([[1, 0, 0]]), latent)
        state.advance_to(15.0)  # detected at 10, repaired at 1010
        state.switch_model(quiet(1.0))
        state.inject_faults(16.0, one, np.array([[0, 1, 0]]), latent)
        state.advance_to(17.0)  # undetected until 20
        state.switch_model(quiet(1.0), audits_per_year=0.0)
        assert state.clock[0, 0] == 1010.0
        assert state.clock[0, 1] == np.inf

    def test_repair_year_histogram_tracks_completions(self):
        state = PiecewiseBatchState(
            self.fast_model(), trials=200, track_years=1
        )
        state.advance_to(2000.0)
        assert state.repair_year_counts is not None
        assert state.repair_year_counts.sum() == state.repairs.sum()


def invariant_model(mrl=1.0, alpha=1.0, hazard=1.0):
    """A compressed-time model whose trials see many events per day:
    audits every 10 h (MDL 5 h), MRV 1 h."""
    return FaultModel(2000.0 / hazard, 400.0 / hazard, 1.0, mrl, 5.0, alpha)


#: State-machine steps: advance by a duration; switch to another
#: regime (MRL, audit rate with scrubbing off at 0, alpha, hazard);
#: inject a shock on one member (member position as a fraction of the
#: trials, replica bitmask, latent or visible).
invariant_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("advance"), st.floats(min_value=0.0, max_value=40.0)
        ),
        st.tuples(
            st.just("switch"),
            st.sampled_from([1.0, 6.0, 25.0]),
            st.sampled_from([None, 0.0, 40.0, 400.0]),
            st.sampled_from([1.0, 0.3]),
            st.sampled_from([1.0, 2.5]),
        ),
        st.tuples(
            st.just("inject"),
            st.floats(min_value=0.0, max_value=0.999),
            st.integers(min_value=1, max_value=63),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestStateInvariants:
    """The kernel's state never holds what a sweep would misread.

    ``advance_to`` takes each trial's next event from its replicas'
    clocks and its faulty count from a per-trial cache instead of
    recounting it from the 2-D state every sweep, so every writer of
    ``state`` must keep the count current, and every writer of ``clock``
    (landings, stretches, switches, re-anchored latents) must leave no
    live clock in the past, where a sweep would consume it as an event
    that already happened.  Random step sequences drive a state through
    every writer; the invariants are checked after every step and,
    mid-sweep, whenever faults land.
    """

    @staticmethod
    def assert_invariants_hold(state):
        faulty = state.state != batch_module.OK
        assert np.array_equal(state._faulty, np.count_nonzero(faulty, axis=1))
        live = ~state.lost
        assert (state.clock[live] >= state.now).all()
        assert (state.clock[faulty] >= state.fault_time[faulty]).all()

    @settings(max_examples=150, deadline=None)
    @given(
        layout=st.sampled_from([1, 2, 3, 4, (6, 4)]),
        alpha=st.sampled_from([1.0, 0.3]),
        bias=st.sampled_from([None, 4.0]),
        track_years=st.sampled_from([None, 1]),
        seed=st.integers(min_value=0, max_value=2**16),
        steps=invariant_steps,
    )
    def test_invariants_hold_after_every_step(
        self, layout, alpha, bias, track_years, seed, steps
    ):
        trials = 24
        shape = (
            dict(scheme=RedundancyScheme(*layout))
            if isinstance(layout, tuple)
            else dict(replicas=layout)
        )
        state = PiecewiseBatchState(
            invariant_model(alpha=alpha),
            trials=trials,
            seed=seed,
            bias=bias,
            track_years=track_years,
            **shape,
        )
        replicas = state.replicas
        self.assert_invariants_hold(state)
        land = state._land_faults

        def checked_land(*args):
            self.assert_invariants_hold(state)
            return land(*args)

        state._land_faults = checked_land
        for step in steps:
            if step[0] == "advance":
                state.advance_to(state.now + step[1])
            elif step[0] == "switch":
                _, mrl, audits, new_alpha, hazard = step
                state.switch_model(
                    invariant_model(mrl, new_alpha, hazard), audits_per_year=audits
                )
            else:
                _, position, mask, latent = step
                bits = mask % ((1 << replicas) - 1) + 1
                hits = np.array(
                    [[(bits >> replica) & 1 for replica in range(replicas)]],
                    dtype=bool,
                )
                state.inject_faults(
                    state.now,
                    np.array([int(position * trials)]),
                    hits,
                    batch_module.LATENT if latent else batch_module.VISIBLE,
                )
            self.assert_invariants_hold(state)


class TestEagerDrawCeiling:
    """``MAX_EAGER_TRIALS`` only changes when draws happen, not what
    they are: the first block of a subdivided run consumes the generator
    exactly like a standalone run of that size."""

    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        self.fast_model = fast_model_factory

    def test_block_subdivision_preserves_prefix(self, monkeypatch):
        # A run over the ceiling subdivides into blocks that reuse one
        # generator sequentially, so the first block is bit-identical to
        # a standalone run of the block size with the same seed.
        monkeypatch.setattr(batch_module, "MAX_EAGER_TRIALS", 500)
        small = simulate_batch(
            self.fast_model(), trials=500, horizon=5000.0, seed=11
        )
        large = simulate_batch(
            self.fast_model(), trials=1200, horizon=5000.0, seed=11
        )
        assert large.lost.size == 1200
        assert np.array_equal(large.lost[:500], small.lost)
        assert np.array_equal(large.end_time[:500], small.end_time)
        assert np.array_equal(
            large.first_fault_type[:500], small.first_fault_type
        )

    def test_subdivided_run_matches_statistics(self, monkeypatch):
        # The concatenated blocks carry every trial exactly once.
        monkeypatch.setattr(batch_module, "MAX_EAGER_TRIALS", 300)
        result = simulate_batch(
            self.fast_model(), trials=1000, horizon=5000.0, seed=2
        )
        assert result.lost.size == 1000
        assert result.end_time.size == 1000
        assert result.sweeps > 0


class TestStreamPins:
    """``simulate_batch``'s streams, pinned to recorded values.

    Every stationary answer (estimators, planner, serve) rides on these
    draws, so a kernel change that reorders or adds a draw must show up
    here rather than as a silent shift in seeded results, and must bump
    ``STREAM_VERSION`` in ``repro/simulation/batch.py``.  Each row is
    (trials, losses, sweeps, exactly rounded end-time sum, exactly
    rounded log-weight sum or ``None``).
    """

    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        self.fast_model = fast_model_factory

    def cases(self):
        from repro.core.redundancy import RedundancyScheme

        fast = self.fast_model
        return {
            "plain": (
                dict(model=fast(), trials=2000, horizon=300.0, seed=11),
                (2000, 643, 29, 495569.8678686908, None),
            ),
            "alpha": (
                dict(
                    model=fast(correlation_factor=0.2),
                    trials=2000,
                    horizon=100.0,
                    seed=5,
                ),
                (2000, 880, 13, 154563.15593379576, None),
            ),
            "is": (
                dict(
                    model=paper_model(),
                    trials=2000,
                    horizon=50 * HOURS_PER_YEAR,
                    seed=4,
                    bias=10.0,
                ),
                (2000, 347, 23, 800334026.2795863, -491.8358957523781),
            ),
            "erasure": (
                dict(
                    model=fast(),
                    trials=1000,
                    horizon=300.0,
                    seed=9,
                    scheme=RedundancyScheme(6, 4),
                ),
                (1000, 465, 61, 223896.43487062352, None),
            ),
            "unscrubbed": (
                dict(
                    model=fast(),
                    trials=2000,
                    horizon=300.0,
                    seed=17,
                    audits_per_year=0.0,
                ),
                (2000, 1867, 10, 253663.72020594613, None),
            ),
        }

    @pytest.mark.parametrize(
        "name", ["plain", "alpha", "is", "erasure", "unscrubbed"]
    )
    def test_stream_is_pinned(self, name):
        kwargs, expected = self.cases()[name]
        assert self.pinned(simulate_batch(**kwargs)) == expected

    def test_subdivided_stream_is_pinned(self, monkeypatch):
        monkeypatch.setattr(batch_module, "MAX_EAGER_TRIALS", 500)
        result = simulate_batch(
            self.fast_model(correlation_factor=0.5),
            trials=1200,
            horizon=300.0,
            seed=13,
            bias=3.0,
        )
        assert self.pinned(result) == (
            1200, 1045, 63, 160211.04224094906, -459.0073672999351
        )

    @staticmethod
    def pinned(result):
        import math

        log_weight = (
            None if result.log_weight is None else math.fsum(result.log_weight)
        )
        return (
            result.trials,
            result.losses,
            result.sweeps,
            math.fsum(result.end_time),
            log_weight,
        )
