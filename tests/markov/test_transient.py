"""Tests for transient CTMC analysis."""

import math

import pytest

from repro.markov.absorbing import mean_time_to_absorption
from repro.markov.chain import MarkovChain
from repro.markov.transient import (
    loss_probability_over_time,
    survival_curve,
    transient_distribution,
)


def two_state_chain(rate=0.01):
    chain = MarkovChain()
    chain.add_state("alive")
    chain.add_state("dead", absorbing=True)
    chain.add_transition("alive", "dead", rate)
    return chain


def repairable_chain():
    chain = MarkovChain()
    chain.add_state("up")
    chain.add_state("degraded")
    chain.add_state("lost", absorbing=True)
    chain.add_transition("up", "degraded", 0.01)
    chain.add_transition("degraded", "up", 1.0)
    chain.add_transition("degraded", "lost", 0.02)
    return chain


class TestTransientDistribution:
    def test_time_zero_is_initial_distribution(self):
        distribution = transient_distribution(two_state_chain(), 0.0)
        assert distribution["alive"] == pytest.approx(1.0)
        assert distribution["dead"] == pytest.approx(0.0)

    def test_matches_exponential_for_pure_death(self):
        rate = 0.01
        distribution = transient_distribution(two_state_chain(rate), 50.0)
        assert distribution["dead"] == pytest.approx(1.0 - math.exp(-rate * 50.0))

    def test_distribution_sums_to_one(self):
        distribution = transient_distribution(repairable_chain(), 500.0)
        assert sum(distribution.values()) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transient_distribution(two_state_chain(), -1.0)


class TestLossProbability:
    def test_monotone_in_time(self):
        chain = repairable_chain()
        times = [10.0, 100.0, 1000.0, 10000.0]
        probabilities = [loss_probability_over_time(chain, t) for t in times]
        assert probabilities == sorted(probabilities)

    def test_approaches_one_for_long_horizons(self):
        chain = repairable_chain()
        assert loss_probability_over_time(chain, 1e6) > 0.99

    def test_survival_curve_complements_loss(self):
        chain = repairable_chain()
        times = [10.0, 100.0, 1000.0]
        curve = survival_curve(chain, times)
        for t in times:
            assert curve[t] == pytest.approx(
                1.0 - loss_probability_over_time(chain, t)
            )

    def test_survival_curve_rejects_negative_times(self):
        with pytest.raises(ValueError):
            survival_curve(repairable_chain(), [-1.0])


def hazard(chain, time, step=1e-3):
    """Loss rate at ``time`` among the data still intact."""
    dt = step * time
    curve = survival_curve(chain, [time, time + dt])
    return -math.log(curve[time + dt] / curve[time]) / dt


class TestHazardRate:
    @pytest.mark.parametrize("time", [1.0, 20.0, 50.0])
    def test_pure_death_hazard_is_flat(self, time):
        assert hazard(two_state_chain(0.05), time) == pytest.approx(
            0.05, rel=1e-6
        )

    @pytest.mark.parametrize("time", [50.0, 500.0, 5000.0])
    def test_repairable_chain_hazard_settles_near_inverse_mttdl(self, time):
        chain = repairable_chain()
        assert hazard(chain, time) == pytest.approx(
            1.0 / mean_time_to_absorption(chain), rel=0.05
        )

    @pytest.mark.parametrize("time", [100.0, 2000.0, 20000.0])
    def test_exponential_shortcut_tracks_the_exact_curve(self, time):
        # The paper's 1 - exp(-t / MTTDL) misses the exact loss
        # probability by less than one part in a thousand once repairs
        # are fast next to faults.
        chain = repairable_chain()
        mttdl = mean_time_to_absorption(chain)
        assert loss_probability_over_time(chain, time) == pytest.approx(
            -math.expm1(-time / mttdl), abs=1e-3
        )
