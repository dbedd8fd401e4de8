"""Tests for the replicated-storage system simulator."""

import math
from dataclasses import replace

import pytest

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.simulation.events import TraceEventType
from repro.simulation.replica import ReplicaState
from repro.simulation.rng import RandomStreams
from repro.simulation.scrubbing import audit_detection_time
from repro.simulation.system import (
    ReplicatedStorageSystem,
    SystemConfig,
    system_from_fault_model,
)

FAST = FaultModel(
    mean_time_to_visible=500.0,
    mean_time_to_latent=100.0,
    mean_repair_visible=1.0,
    mean_repair_latent=1.0,
    mean_detect_latent=5.0,
    correlation_factor=1.0,
)


def fast_config(**overrides):
    base = dict(replicas=2, model=FAST, audit_interval=10.0, trace=True)
    base.update(overrides)
    return SystemConfig(**base)


class TestBasicRuns:
    def test_run_returns_result_with_trace(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=1))
        result = system.run(max_time=50000.0)
        assert result.trace is not None
        assert result.end_time > 0

    def test_run_is_reproducible_for_same_seed(self):
        a = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=7)).run(1e5)
        b = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=7)).run(1e5)
        assert a.end_time == b.end_time
        assert a.lost == b.lost
        assert a.visible_faults == b.visible_faults

    def test_different_seeds_differ(self):
        a = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=1)).run(1e5)
        b = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=2)).run(1e5)
        assert a.end_time != b.end_time or a.visible_faults != b.visible_faults

    def test_eventual_data_loss(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=3))
        result = system.run(max_time=1e7)
        assert result.lost
        assert result.first_fault_type in (FaultType.VISIBLE, FaultType.LATENT)
        assert result.final_fault_type in (FaultType.VISIBLE, FaultType.LATENT)

    def test_censoring_when_horizon_short(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=3))
        result = system.run(max_time=1.0)
        assert not result.lost
        assert result.end_time == 1.0

    def test_invalid_max_time_rejected(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=0))
        with pytest.raises(ValueError):
            system.run(max_time=0.0)

    def test_single_replica_lost_on_first_fault(self):
        config = fast_config(replicas=1)
        system = ReplicatedStorageSystem(config, RandomStreams(seed=5))
        result = system.run(max_time=1e6)
        assert result.lost
        assert result.visible_faults + result.latent_faults >= 1

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            fast_config(replicas=0)

    @pytest.mark.parametrize("interval", [-1.0, math.nan])
    def test_rejects_a_bad_audit_interval(self, interval):
        with pytest.raises(ValueError, match="audit_interval"):
            fast_config(audit_interval=interval)

    @pytest.mark.parametrize("threshold", [0, 3])
    def test_rejects_a_loss_threshold_outside_the_replica_count(
        self, threshold
    ):
        with pytest.raises(ValueError, match="loss_threshold"):
            fast_config(replicas=2, loss_threshold=threshold)

    def test_counters_match_the_trace(self):
        result = ReplicatedStorageSystem(
            fast_config(replicas=3), RandomStreams(seed=61)
        ).run(max_time=3000.0)
        faults = result.trace.faults_by_type()
        counts = result.trace.counts()
        assert result.visible_faults == faults[FaultType.VISIBLE] > 0
        assert result.latent_faults == faults[FaultType.LATENT] > 0
        assert result.repairs == counts[TraceEventType.REPAIR_COMPLETED] > 0
        assert result.audits == counts[TraceEventType.AUDIT_PERFORMED] > 0

    def test_loss_types_name_the_opening_and_the_closing_fault(self):
        result = ReplicatedStorageSystem(
            fast_config(), RandomStreams(seed=67)
        ).run(max_time=1e6)
        assert result.lost
        # Replay the trace to find the faults outstanding at the loss.
        outstanding = {}
        for event in result.trace:
            if event.event_type is TraceEventType.FAULT_OCCURRED:
                outstanding[event.replica] = event
            elif event.event_type is TraceEventType.REPAIR_COMPLETED:
                del outstanding[event.replica]
        opening = min(outstanding.values(), key=lambda event: event.time)
        closing = max(outstanding.values(), key=lambda event: event.time)
        assert closing.time == result.end_time
        assert result.first_fault_type is opening.fault_type
        assert result.final_fault_type is closing.fault_type


class TestFaultHandling:
    def test_faults_and_repairs_recorded_in_trace(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=11))
        result = system.run(max_time=5000.0)
        counts = result.trace.counts()
        assert counts.get(TraceEventType.FAULT_OCCURRED, 0) >= 1
        if not result.lost:
            assert counts.get(TraceEventType.REPAIR_COMPLETED, 0) >= 1

    def test_latent_faults_detected_only_by_audits(self):
        config = fast_config(audit_interval=None)
        system = ReplicatedStorageSystem(config, RandomStreams(seed=13))
        result = system.run(max_time=1e6)
        detections = result.trace.of_type(TraceEventType.FAULT_DETECTED)
        assert detections == []

    def test_scrubbing_produces_detections(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=13))
        result = system.run(max_time=50000.0)
        # With latent faults every ~100 h and audits every 10 h,
        # detections must occur unless data is lost almost immediately.
        if result.latent_faults > 2:
            assert len(result.trace.of_type(TraceEventType.FAULT_DETECTED)) > 0

    def test_detection_latency_tracks_audit_interval(self):
        config = fast_config(audit_interval=10.0)
        system = ReplicatedStorageSystem(config, RandomStreams(seed=17))
        result = system.run(max_time=20000.0)
        latencies = result.trace.detection_latencies()
        assert latencies, "expected at least one detection"
        # Faults on an already-faulty replica never get their own
        # detection event, so the trace-level matching can attribute a
        # longer delay to a minority of faults; the typical detection
        # still has to land within one audit interval.
        within_interval = sum(1 for latency in latencies if latency <= 10.0 + 1e-9)
        assert within_interval >= len(latencies) * 0.5

    def test_audit_counter_increments(self):
        system = ReplicatedStorageSystem(fast_config(), RandomStreams(seed=19))
        result = system.run(max_time=100.0)
        assert result.audits >= 9

    def test_zero_interval_detects_latent_faults_on_arrival(self):
        # MDL = 0: no audit ever runs, and every latent fault is
        # detected, and its repair started, the instant it occurs.
        config = fast_config(audit_interval=0.0)
        result = ReplicatedStorageSystem(config, RandomStreams(seed=17)).run(
            max_time=20000.0
        )
        assert result.audits == 0
        assert result.latent_faults > 0
        latencies = result.trace.detection_latencies()
        assert len(latencies) == result.latent_faults
        assert set(latencies) == {0.0}


class TestScrubbingEffectOnReliability:
    def test_scrubbed_system_survives_longer_on_average(self):
        lost_times_scrubbed = []
        lost_times_unscrubbed = []
        for seed in range(15):
            scrubbed = ReplicatedStorageSystem(
                fast_config(audit_interval=10.0),
                RandomStreams(seed=seed),
            ).run(max_time=1e7)
            unscrubbed = ReplicatedStorageSystem(
                fast_config(audit_interval=None),
                RandomStreams(seed=seed),
            ).run(max_time=1e7)
            lost_times_scrubbed.append(scrubbed.end_time)
            lost_times_unscrubbed.append(unscrubbed.end_time)
        assert sum(lost_times_scrubbed) > 2 * sum(lost_times_unscrubbed)


class TestCorrelationEffects:
    def test_multiplicative_correlation_shortens_life(self):
        independent_total = 0.0
        correlated_total = 0.0
        for seed in range(15):
            independent = ReplicatedStorageSystem(
                fast_config(), RandomStreams(seed=seed)
            ).run(max_time=1e7)
            correlated = ReplicatedStorageSystem(
                fast_config(model=replace(FAST, correlation_factor=0.05)),
                RandomStreams(seed=seed),
            ).run(max_time=1e7)
            independent_total += independent.end_time
            correlated_total += correlated.end_time
        assert correlated_total < independent_total


class RecordingStreams(RandomStreams):
    """Random streams that log every draw a system makes from them."""

    def __init__(self, seed):
        super().__init__(seed=seed)
        self.draws = []

    def exponential(self, name, mean):
        self.draws.append((name, mean))
        return super().exponential(name, mean)


def never_repaired(**overrides):
    """FAST with repairs too slow to finish inside any horizon used here."""
    return replace(
        FAST, mean_repair_visible=1e9, mean_repair_latent=1e9, **overrides
    )


def next_fault_delay(streams, index):
    """The sooner of one replica's next visible and latent draws."""
    return min(
        streams.exponential(f"visible-{index}", FAST.mean_time_to_visible),
        streams.exponential(f"latent-{index}", FAST.mean_time_to_latent),
    )


class TestFaultModelDraws:
    """What a system draws from its streams, replayed draw for draw.

    Each replica draws its next visible and latent fault from its own
    ``visible-i`` and ``latent-i`` exponential streams at the model's
    MV and ML; nothing else in the system is random.  While any replica
    is faulty, the delays drawn for the healthy replicas are divided by
    ``1 / α``.
    """

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_first_fault_is_the_earliest_exponential_draw(self, replicas):
        config = fast_config(
            replicas=replicas, model=never_repaired(), audit_interval=None
        )
        result = ReplicatedStorageSystem(config, RandomStreams(seed=21)).run(
            max_time=1e9
        )
        replay = RandomStreams(seed=21)
        candidates = []
        for index in range(replicas):
            for fault_type, mean in (
                (FaultType.VISIBLE, FAST.mean_time_to_visible),
                (FaultType.LATENT, FAST.mean_time_to_latent),
            ):
                stream = f"{fault_type.value}-{index}"
                candidates.append(
                    (replay.exponential(stream, mean), index, fault_type)
                )
        time, index, fault_type = min(candidates)
        first = result.trace.of_type(TraceEventType.FAULT_OCCURRED)[0]
        assert (first.time, first.replica, first.fault_type) == (
            time,
            index,
            fault_type,
        )

    @pytest.mark.parametrize("audit_interval", [None, 0.0, 10.0])
    def test_draws_only_the_per_replica_fault_streams(self, audit_interval):
        # Repairs are deterministic and audits run on a fixed grid, so
        # neither draws; every (re)schedule draws one visible and one
        # latent delay for one replica.
        streams = RecordingStreams(seed=5)
        model = replace(FAST, mean_time_to_latent=1000.0, correlation_factor=0.5)
        config = fast_config(
            replicas=3, model=model, audit_interval=audit_interval
        )
        result = ReplicatedStorageSystem(config, streams).run(max_time=2000.0)
        assert result.repairs > 0
        expected = {}
        for index in range(3):
            expected[f"visible-{index}"] = model.mean_time_to_visible
            expected[f"latent-{index}"] = model.mean_time_to_latent
        assert set(streams.draws) <= set(expected.items())
        names = [name for name, _ in streams.draws]
        for index in range(3):
            assert names.count(f"visible-{index}") == names.count(
                f"latent-{index}"
            ) > 0

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.2, 0.05])
    def test_degraded_delay_is_divided_by_one_over_alpha(self, alpha):
        config = fast_config(
            model=never_repaired(correlation_factor=alpha), audit_interval=None
        )
        for seed in range(31, 41):
            result = ReplicatedStorageSystem(
                config, RandomStreams(seed=seed)
            ).run(max_time=1e12)
            replay = RandomStreams(seed=seed)
            first = {index: next_fault_delay(replay, index) for index in (0, 1)}
            struck = min(first, key=first.get)
            # The first fault redraws the other replica's pending faults
            # in the degraded regime; the sooner of them loses the pair.
            redrawn = next_fault_delay(replay, 1 - struck)
            assert result.lost
            assert result.end_time == first[struck] + redrawn / (1.0 / alpha)

    def test_acceleration_does_not_compound(self):
        # With three replicas the third replica's delay, drawn when the
        # first fault landed, is divided by 1 / α once: the second fault
        # neither redraws it nor accelerates it again.
        alpha = 0.1
        config = fast_config(
            replicas=3,
            model=never_repaired(correlation_factor=alpha),
            audit_interval=None,
        )
        result = ReplicatedStorageSystem(config, RandomStreams(seed=37)).run(
            max_time=1e12
        )
        replay = RandomStreams(seed=37)
        first = {index: next_fault_delay(replay, index) for index in range(3)}
        struck = min(first, key=first.get)
        landings = sorted(
            first[struck] + next_fault_delay(replay, index) / (1.0 / alpha)
            for index in range(3)
            if index != struck
        )
        faults = result.trace.of_type(TraceEventType.FAULT_OCCURRED)
        assert [event.time for event in faults] == [first[struck], *landings]
        assert result.lost
        assert result.end_time == landings[-1]

    def test_repair_lifts_the_acceleration(self):
        # Once the only faulty replica is repaired every pending fault
        # is redrawn at the undegraded rates, so from then on the
        # correlated pair runs exactly like an independent one.
        def fault_times(alpha):
            config = fast_config(
                model=replace(FAST, correlation_factor=alpha),
                audit_interval=0.0,
            )
            result = ReplicatedStorageSystem(
                config, RandomStreams(seed=71)
            ).run(max_time=1e6)
            repaired = result.trace.of_type(TraceEventType.REPAIR_COMPLETED)
            faults = result.trace.of_type(TraceEventType.FAULT_OCCURRED)
            # The first fault was repaired before a second one landed.
            assert faults[0].time < repaired[0].time < faults[1].time
            return [event.time for event in faults]

        correlated, independent = fault_times(0.1), fault_times(1.0)
        assert correlated[0] == independent[0]
        assert correlated[1] == independent[1]


class TestRepairs:
    """Repairs take exactly MRV or MRL, from when the fault is known."""

    @pytest.mark.parametrize(
        "fault_type, hours", [(FaultType.VISIBLE, 1.5), (FaultType.LATENT, 2.5)]
    )
    def test_repair_takes_exactly_the_model_repair_time(
        self, fault_type, hours
    ):
        model = replace(FAST, mean_repair_visible=1.5, mean_repair_latent=2.5)
        result = ReplicatedStorageSystem(
            fast_config(replicas=3, model=model), RandomStreams(seed=47)
        ).run(max_time=3000.0)
        started = {}
        durations = []
        for event in result.trace:
            if event.fault_type is not fault_type:
                continue
            if event.event_type is TraceEventType.REPAIR_STARTED:
                started[event.replica] = event.time
            elif event.event_type is TraceEventType.REPAIR_COMPLETED:
                durations.append(event.time - started.pop(event.replica))
        assert len(durations) >= 5
        assert durations == pytest.approx([hours] * len(durations))

    @pytest.mark.parametrize(
        "fault_type, known",
        [
            (FaultType.VISIBLE, TraceEventType.FAULT_OCCURRED),
            (FaultType.LATENT, TraceEventType.FAULT_DETECTED),
        ],
    )
    def test_repair_starts_when_the_fault_becomes_known(
        self, fault_type, known
    ):
        # A visible fault is known the instant it occurs; a latent one
        # only when an audit finds it.
        result = ReplicatedStorageSystem(
            fast_config(replicas=3), RandomStreams(seed=53)
        ).run(max_time=3000.0)

        def moments(event_type):
            return [
                (event.time, event.replica)
                for event in result.trace.of_type(event_type)
                if event.fault_type is fault_type
            ]

        started = moments(TraceEventType.REPAIR_STARTED)
        assert started
        assert started == moments(known)


class TestAuditGrid:
    """Audits run on the one global grid ``I, 2I, 3I, ...``."""

    @pytest.mark.parametrize("interval", [2.0, 10.0, 2920.0])
    def test_audits_run_on_a_fixed_grid(self, interval):
        quiet = replace(FAST, mean_time_to_visible=1e12, mean_time_to_latent=1e12)
        result = ReplicatedStorageSystem(
            fast_config(model=quiet, audit_interval=interval),
            RandomStreams(seed=0),
        ).run(max_time=10.5 * interval)
        times = [
            event.time
            for event in result.trace.of_type(TraceEventType.AUDIT_PERFORMED)
        ]
        assert result.audits == 10
        assert times == pytest.approx([k * interval for k in range(1, 11)])

    @pytest.mark.parametrize("interval", [1.0, 10.0, 50.0])
    def test_latent_faults_are_detected_at_the_next_grid_point(
        self, interval
    ):
        # The event engine and the batch kernel share the grid: every
        # detection lands where audit_detection_time puts it.
        result = ReplicatedStorageSystem(
            fast_config(replicas=3, audit_interval=interval),
            RandomStreams(seed=59),
        ).run(max_time=5000.0)
        pending = {}
        detections = []
        for event in result.trace:
            if (
                event.event_type is TraceEventType.FAULT_OCCURRED
                and event.fault_type is FaultType.LATENT
            ):
                pending[event.replica] = event.time
            elif event.event_type is TraceEventType.FAULT_DETECTED:
                detections.append((pending.pop(event.replica), event.time))
        assert detections
        for fault_time, detected in detections:
            assert detected == pytest.approx(
                audit_detection_time(fault_time, interval)
            )


class TestAuditCost:
    """An audit runs as an event only while a latent fault waits."""

    def test_idle_grid_points_cost_no_events(self):
        # 500,000 grid points in 1,000 h: every engine event is a fault,
        # the audit that detects a waiting latent fault, or a repair
        # completion, so the cost no longer grows with the audit rate.
        system = ReplicatedStorageSystem(
            fast_config(audit_interval=0.002, trace=False),
            RandomStreams(seed=3),
        )
        result = system.run(max_time=1000.0)
        undetected = sum(
            1
            for replica in system.replicas
            if replica.state is ReplicaState.LATENT_UNDETECTED
        )
        detections = result.latent_faults - undetected
        faults = result.visible_faults + result.latent_faults
        assert result.audits == 500_000
        assert result.latent_faults > 0
        assert system._engine.events_processed <= (
            faults + detections + result.repairs
        )


class TestLossThreshold:
    @pytest.mark.parametrize("n, k", [(3, 2), (4, 2), (5, 3)])
    def test_scheme_loses_at_n_minus_k_plus_one_faulty_fragments(self, n, k):
        system = system_from_fault_model(
            FAST,
            streams=RandomStreams(seed=73),
            scheme=RedundancyScheme(n, k),
        )
        result = system.run(max_time=1e6)
        assert system.config.replicas == n
        assert result.lost
        faulty = sum(1 for replica in system.replicas if replica.is_faulty)
        assert faulty == n - k + 1


class TestFactoryFromFaultModel:
    def make_model(self, **overrides):
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

    def test_scrub_interval_from_mdl(self):
        system = system_from_fault_model(self.make_model(), streams=RandomStreams(0))
        assert system.config.audit_interval == pytest.approx(10.0)

    def test_no_scrub_when_mdl_matches_latent_mean(self):
        model = self.make_model(mean_detect_latent=100.0)
        system = system_from_fault_model(model, streams=RandomStreams(0))
        assert system.config.audit_interval is None

    def test_audits_per_year_override(self):
        system = system_from_fault_model(
            self.make_model(), streams=RandomStreams(0), audits_per_year=12.0
        )
        assert system.config.audit_interval == pytest.approx(730.0)

    def test_correlation_passed_through(self):
        system = system_from_fault_model(
            self.make_model(correlation_factor=0.2), streams=RandomStreams(0)
        )
        assert system.config.model.correlation_factor == 0.2


class TestStreamPins:
    """The event engine's streams, pinned to recorded values.

    The ``event`` backend is the batch kernel's cross-validation
    reference and the tracer behind experiments E9/E10, so a change to
    how it draws faults, orders events or applies the correlation
    factor must show up here rather than as a silent shift in seeded
    answers.  Every value below was recorded from the engine; none is
    an expected statistic.
    """

    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        self.fast_model = fast_model_factory

    def test_loss_probability_losses_are_pinned(self):
        from repro.core.redundancy import RedundancyScheme
        from repro.simulation.estimators import run_loss_probability

        fast = self.fast_model
        cases = [
            (dict(model=fast(correlation_factor=0.2), seed=3), 206),
            (dict(model=fast(), seed=5, scheme=RedundancyScheme(3, 2)), 162),
            (dict(model=fast(), seed=7, audits_per_year=0.0), 226),
        ]
        for kwargs, losses in cases:
            estimate = run_loss_probability(
                mission_time=200.0, trials=300, backend="event", **kwargs
            )
            assert (estimate.trials, estimate.losses) == (300, losses)

    def test_mttdl_time_on_test_is_pinned(self):
        # The mean is the exact total time on test over the losses, so
        # it carries every correlated draw down to the last bit.
        from repro.simulation.estimators import run_mttdl

        estimate = run_mttdl(
            self.fast_model(correlation_factor=0.2),
            trials=100,
            seed=2,
            backend="event",
        )
        assert (estimate.losses, estimate.mean) == (100, 188.64534705430538)

    def test_combination_counts_are_pinned(self):
        from repro.simulation.monte_carlo import (
            double_fault_combination_counts,
        )

        counts = double_fault_combination_counts(
            self.fast_model(), trials=100, seed=4, backend="event"
        )
        visible, latent = FaultType.VISIBLE, FaultType.LATENT
        assert counts == {
            (visible, visible): 0,
            (visible, latent): 2,
            (latent, visible): 17,
            (latent, latent): 81,
        }

    def test_single_trace_is_pinned(self):
        from repro.simulation.monte_carlo import run_single_trace

        result = run_single_trace(
            self.fast_model(correlation_factor=0.2), seed=8
        )
        assert result.lost
        assert (len(result.trace.events), result.end_time) == (
            20,
            110.20015374007379,
        )

    def test_correlated_loss_time_is_pinned(self):
        # The loss lands one accelerated delay after an early first
        # fault, so its last bit shows how the delay was accelerated:
        # ``delay * alpha`` instead of ``delay / (1 / alpha)`` moves it.
        from repro.simulation.monte_carlo import run_single_trace

        result = run_single_trace(
            self.fast_model(correlation_factor=0.2), seed=9
        )
        assert result.lost
        assert (len(result.trace.events), result.end_time) == (
            3,
            9.926165527834291,
        )
