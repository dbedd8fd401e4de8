"""Tests for the vectorized fleet population kernel."""

import math

import numpy as np
import pytest

from repro.core.migration import FormatRisk
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.fleet.population import simulate_fleet_chunk
from repro.fleet.timeline import (
    FleetEpoch,
    FleetTimeline,
    MigrationEvent,
    RegionalShockModel,
    stationary_timeline,
)
from repro.simulation.estimators import run_loss_probability


def paper_model():
    return FaultModel(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=1.0,
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


#: Horizon at which about half of :func:`half_lost_model`'s members
#: are lost (5e4 hours).
HALF_LIFE_YEARS = 5e4 / HOURS_PER_YEAR


def half_lost_model():
    return fast_model(mean_time_to_visible=5000.0, mean_time_to_latent=1000.0)


def assert_within_4_se(a, b):
    p_a = np.count_nonzero(a.lost) / a.members
    p_b = np.count_nonzero(b.lost) / b.members
    assert 0.3 < p_a < 0.7
    combined_se = np.sqrt(
        p_a * (1 - p_a) / a.members + p_b * (1 - p_b) / b.members
    )
    assert abs(p_a - p_b) < 4 * combined_se


class TestStationaryAnchor:
    def test_matches_run_loss_probability_within_ci(self):
        """A stationary timeline is the point estimators' system; the
        fleet loss fraction must agree within combined 95% CIs."""
        model = paper_model()
        chunk = simulate_fleet_chunk(
            stationary_timeline(model, 50.0), members=4000, seed=1
        )
        p_fleet = np.count_nonzero(chunk.lost) / chunk.members
        se_fleet = np.sqrt(p_fleet * (1 - p_fleet) / chunk.members)
        reference = run_loss_probability(
            model,
            mission_time=50.0 * HOURS_PER_YEAR,
            trials=20000,
            seed=2,
            backend="batch",
            method="standard",
        )
        low, high = reference.confidence_interval()
        assert p_fleet - 1.96 * se_fleet <= high
        assert low <= p_fleet + 1.96 * se_fleet

    def test_losses_happen_before_the_horizon(self):
        chunk = simulate_fleet_chunk(
            stationary_timeline(fast_model(), 2.0), members=500, seed=3
        )
        assert chunk.lost.any()
        assert np.all(
            chunk.loss_time[chunk.lost] < 2.0 * HOURS_PER_YEAR
        )
        assert np.all(np.isinf(chunk.loss_time[~chunk.lost]))


class TestEpochBoundaries:
    def test_identical_epochs_agree_in_distribution(self):
        """Cutting a stationary timeline into epochs with the same rates
        changes no state at the boundaries; the cuts only reshuffle the
        shared stream's draws, so the loss fraction agrees with the
        single-epoch run within noise."""
        model = half_lost_model()
        single = stationary_timeline(model, HALF_LIFE_YEARS)
        split = FleetTimeline(
            years=HALF_LIFE_YEARS,
            epochs=(
                FleetEpoch(0.0, model),
                FleetEpoch(0.4 * HALF_LIFE_YEARS, model),
                FleetEpoch(0.7 * HALF_LIFE_YEARS, model),
            ),
        )
        a = simulate_fleet_chunk(single, members=3000, seed=7)
        b = simulate_fleet_chunk(split, members=3000, seed=7)
        assert not np.array_equal(a.lost, b.lost)
        assert_within_4_se(a, b)

    def test_switching_to_a_safe_epoch_stops_losses(self):
        """After a switch to a near-immortal regime, the only losses can
        come from windows already open at the boundary."""
        safe = fast_model(
            mean_time_to_visible=1e13, mean_time_to_latent=1e13
        )
        timeline = FleetTimeline(
            years=2.0,
            epochs=(
                FleetEpoch(0.0, fast_model()),
                FleetEpoch(1.0, safe),
            ),
        )
        chunk = simulate_fleet_chunk(timeline, members=800, seed=11)
        boundary = 1.0 * HOURS_PER_YEAR
        # Outstanding latent faults at the boundary can still complete a
        # loss within a detection window (interval 10h) plus repair.
        margin = 2.0 * 5.0 + 1.0 + 1.0
        assert chunk.lost.any()
        assert np.all(chunk.loss_time[chunk.lost] <= boundary + margin)

    def test_aging_epoch_increases_losses(self):
        model = fast_model(
            mean_time_to_visible=5000.0, mean_time_to_latent=1000.0
        )
        base = stationary_timeline(model, 1.0)
        aged = FleetTimeline(
            years=1.0,
            epochs=(
                FleetEpoch(0.0, model),
                FleetEpoch(0.5, model, hazard_multiplier=6.0),
            ),
        )
        losses_base = np.count_nonzero(
            simulate_fleet_chunk(base, 2000, seed=5).lost
        )
        losses_aged = np.count_nonzero(
            simulate_fleet_chunk(aged, 2000, seed=5).lost
        )
        assert losses_aged > losses_base * 1.5


class TestMigrations:
    def test_lethal_migration_kills_every_survivor(self):
        doomed = FormatRisk("doomed", 1.0, 1e-12, 10.0)
        timeline = FleetTimeline(
            years=10.0,
            epochs=(FleetEpoch(0.0, paper_model()),),
            migrations=(MigrationEvent(5.0, doomed),),
        )
        chunk = simulate_fleet_chunk(timeline, members=400, seed=2)
        assert chunk.lost.all()
        organic = chunk.members - chunk.migration_losses
        migrated_at = chunk.loss_time == 5.0 * HOURS_PER_YEAR
        assert chunk.migration_losses == np.count_nonzero(migrated_at)
        assert organic == np.count_nonzero(~migrated_at)

    def test_migration_loss_fraction_matches_window_risk(self):
        risk = FormatRisk("camera RAW", 8.0, 5.0, 1.0)
        timeline = FleetTimeline(
            years=10.0,
            epochs=(FleetEpoch(0.0, paper_model()),),
            migrations=(MigrationEvent(5.0, risk),),
        )
        chunk = simulate_fleet_chunk(timeline, members=4000, seed=9)
        p = risk.migration_sweep_years / (
            risk.migration_sweep_years + risk.mean_years_endangered_to_dead
        )
        observed = chunk.migration_losses / chunk.members
        assert observed == pytest.approx(p, abs=3 * np.sqrt(p / 4000))


class TestShocks:
    def test_total_penetration_single_region_kills_everyone(self):
        shocks = RegionalShockModel(
            rate_per_year=50.0, regions=1, replica_penetration=1.0
        )
        timeline = FleetTimeline(
            years=1.0,
            epochs=(FleetEpoch(0.0, paper_model(), shocks=shocks),),
        )
        chunk = simulate_fleet_chunk(timeline, members=300, seed=4)
        assert chunk.lost.all()
        assert chunk.shock_events >= 1
        assert chunk.shock_faults >= 300

    def test_shocks_only_strike_one_region(self):
        shocks = RegionalShockModel(
            rate_per_year=2.0, regions=4, replica_penetration=1.0
        )
        timeline = FleetTimeline(
            years=1.0,
            epochs=(FleetEpoch(0.0, paper_model(), shocks=shocks),),
        )
        chunk = simulate_fleet_chunk(timeline, members=400, seed=6)
        if chunk.shock_events == 1:
            # One total-penetration shock kills exactly one region.
            assert np.count_nonzero(chunk.lost) == pytest.approx(
                100, abs=5
            )

    def test_single_replica_hits_degrade_without_killing(self):
        shocks = RegionalShockModel(
            rate_per_year=5.0, regions=1, replica_penetration=0.35
        )
        timeline = FleetTimeline(
            years=1.0,
            epochs=(FleetEpoch(0.0, paper_model(), shocks=shocks),),
        )
        chunk = simulate_fleet_chunk(timeline, members=500, seed=8)
        # Partial penetration: some members lose both replicas to one
        # shock, most survive with a repairable fault.
        assert chunk.shock_faults > 0
        assert 0 < np.count_nonzero(chunk.lost) < chunk.members

    def test_schedule_seed_shares_shocks_across_chunk_seeds(self):
        shocks = RegionalShockModel(
            rate_per_year=1.0, regions=1, replica_penetration=1.0
        )
        timeline = FleetTimeline(
            years=5.0,
            epochs=(FleetEpoch(0.0, paper_model(), shocks=shocks),),
        )
        a = simulate_fleet_chunk(
            timeline, members=100, seed=101, schedule_seed=7
        )
        b = simulate_fleet_chunk(
            timeline, members=100, seed=202, schedule_seed=7
        )
        # Different chunk seeds, same fleet: identical shock schedule,
        # so total-penetration shocks kill both chunks at the same
        # instants.
        assert a.shock_events == b.shock_events
        assert a.shock_events > 0
        assert set(a.loss_time[a.lost]) == set(b.loss_time[b.lost])

    def test_zero_penetration_shocks_agree_in_distribution(self):
        """Shocks that damage nothing draw only from the event streams;
        they cut the kernel's advance at every arrival, which reshuffles
        the clock stream's draws but not the loss distribution."""
        model = half_lost_model()
        quiet = stationary_timeline(model, HALF_LIFE_YEARS)
        noisy = FleetTimeline(
            years=HALF_LIFE_YEARS,
            epochs=(
                FleetEpoch(
                    0.0,
                    model,
                    shocks=RegionalShockModel(
                        rate_per_year=2.0,
                        regions=4,
                        replica_penetration=0.0,
                    ),
                ),
            ),
        )
        a = simulate_fleet_chunk(quiet, members=3000, seed=12)
        b = simulate_fleet_chunk(noisy, members=3000, seed=12)
        assert b.shock_events > 0
        assert b.shock_faults == 0
        assert_within_4_se(a, b)


class TestBookkeeping:
    def test_repair_histogram_sums_to_total(self):
        chunk = simulate_fleet_chunk(
            stationary_timeline(fast_model(), 2.0), members=300, seed=1
        )
        assert chunk.repair_year_counts.sum() == chunk.repairs
        assert chunk.repairs > 0

    def test_loss_year_counts_clip_into_bins(self):
        chunk = simulate_fleet_chunk(
            stationary_timeline(fast_model(), 2.0), members=300, seed=1
        )
        counts = chunk.loss_year_counts(3)
        assert counts.sum() == np.count_nonzero(chunk.lost)

    def test_rejects_non_positive_members(self):
        with pytest.raises(ValueError):
            simulate_fleet_chunk(
                stationary_timeline(fast_model(), 1.0), members=0
            )


class TestStreamPins:
    """``simulate_fleet_chunk``'s streams, pinned to recorded values.

    Unlike the ``simulate_batch`` pins (tests/simulation/test_batch.py),
    these run every other writer of the kernel's state: epoch switches
    that change alpha, the audit rate (scrubbing off included), MRL and
    the hazard; visible and latent multi-replica shocks; migrations;
    repair-year tracking; and a (6,4) scheme.  Each row is (losses,
    sweeps, repairs, shock faults, migration losses, repair-year total,
    exactly rounded sum of finite loss times).

    Cached fleet chunks are keyed by the kernel's stream version, so a
    change that makes one of these pins fail must also bump
    ``_KERNEL_VERSION`` in ``repro/fleet/runner.py`` (and re-record the
    pins); otherwise a warm run would merge chunks from two streams.
    """

    @staticmethod
    def model(mv, ml, mrl=1.0, alpha=1.0):
        return FaultModel(mv, ml, 1.0, mrl, 5.0, alpha)

    def cases(self):
        model = self.model
        return {
            # alpha < 1 epoch with a visible two-replica shock, a
            # migration, then an MRL and audit-rate change back.
            "mirrored": (
                FleetTimeline(
                    years=2.0,
                    replicas=2,
                    epochs=(
                        FleetEpoch(0.0, model(20000.0, 4000.0)),
                        FleetEpoch(
                            0.6,
                            model(20000.0, 4000.0, mrl=12.0, alpha=0.2),
                            audits_per_year=40.0,
                            shocks=RegionalShockModel(
                                3.0, regions=2, replica_penetration=0.7
                            ),
                        ),
                        FleetEpoch(1.4, model(20000.0, 4000.0, mrl=3.0)),
                    ),
                    migrations=(
                        MigrationEvent(1.0, FormatRisk("x", 8.0, 5.0, 1.0)),
                    ),
                ),
                2000,
                21,
                (1301, 79, 12562, 1358, 221, 12562, 9599401.620959634),
            ),
            # Latent then visible shocks on three replicas, ending in an
            # unscrubbed alpha < 1 epoch.
            "triple": (
                FleetTimeline(
                    years=2.0,
                    replicas=3,
                    epochs=(
                        FleetEpoch(
                            0.0,
                            model(5000.0, 1000.0, alpha=0.3),
                            shocks=RegionalShockModel(
                                4.0,
                                regions=2,
                                replica_penetration=0.5,
                                latent=True,
                            ),
                        ),
                        FleetEpoch(
                            0.7,
                            model(5000.0, 1000.0, mrl=20.0),
                            audits_per_year=100.0,
                            shocks=RegionalShockModel(
                                3.0, regions=3, replica_penetration=0.6
                            ),
                        ),
                        FleetEpoch(
                            1.5,
                            model(5000.0, 20000.0, mrl=2.0, alpha=0.5),
                            audits_per_year=0.0,
                        ),
                    ),
                ),
                1500,
                22,
                (716, 257, 57448, 5238, 0, 57448, 4580011.911222487),
            ),
            # (6,4) with latent shocks under alpha < 1, a migration, and
            # an aged epoch with visible shocks.
            "erasure": (
                FleetTimeline(
                    years=1.5,
                    scheme=RedundancyScheme(6, 4),
                    epochs=(
                        FleetEpoch(
                            0.0,
                            model(20000.0, 4000.0, alpha=0.5),
                            shocks=RegionalShockModel(
                                4.0,
                                regions=3,
                                replica_penetration=0.3,
                                latent=True,
                            ),
                        ),
                        FleetEpoch(
                            0.75,
                            model(20000.0, 4000.0, mrl=10.0),
                            audits_per_year=50.0,
                            hazard_multiplier=2.0,
                            shocks=RegionalShockModel(
                                2.0, regions=2, replica_penetration=0.4
                            ),
                        ),
                    ),
                    migrations=(
                        MigrationEvent(0.5, FormatRisk("y", 8.0, 10.0, 0.5)),
                    ),
                ),
                1000,
                23,
                (673, 172, 21867, 2234, 30, 21867, 4618506.568497314),
            ),
        }

    @pytest.mark.parametrize("name", ["mirrored", "triple", "erasure"])
    def test_chunk_stream_is_pinned(self, name):
        timeline, members, seed, expected = self.cases()[name]
        chunk = simulate_fleet_chunk(timeline, members=members, seed=seed)
        assert chunk.shock_events > 0
        finite = chunk.loss_time[np.isfinite(chunk.loss_time)]
        assert (
            int(np.count_nonzero(chunk.lost)),
            chunk.sweeps,
            chunk.repairs,
            chunk.shock_faults,
            chunk.migration_losses,
            int(chunk.repair_year_counts.sum()),
            math.fsum(finite),
        ) == expected
