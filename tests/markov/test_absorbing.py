"""Tests for absorbing-chain analysis against known closed forms."""

import pytest

from repro.markov.absorbing import expected_visits, mean_time_to_absorption
from repro.markov.chain import MarkovChain, TransitionError


def two_state_chain(rate=0.1):
    """Single transient state flowing into one absorbing state."""
    chain = MarkovChain()
    chain.add_state("alive")
    chain.add_state("dead", absorbing=True)
    chain.add_transition("alive", "dead", rate)
    return chain


def mirrored_visible_only(mttf=1000.0, mttr=2.0):
    """Classic RAID-1 chain: MTTDL = MTTF^2 / (2 MTTR)."""
    chain = MarkovChain()
    chain.add_state("both_up")
    chain.add_state("one_up")
    chain.add_state("lost", absorbing=True)
    chain.add_transition("both_up", "one_up", 2.0 / mttf)
    chain.add_transition("one_up", "both_up", 1.0 / mttr)
    chain.add_transition("one_up", "lost", 1.0 / mttf)
    return chain


class TestMeanTimeToAbsorption:
    def test_single_exponential(self):
        assert mean_time_to_absorption(two_state_chain(0.1)) == pytest.approx(10.0)

    def test_raid1_closed_form(self):
        mttf, mttr = 1000.0, 2.0
        chain = mirrored_visible_only(mttf, mttr)
        expected = mttf ** 2 / (2.0 * mttr) + 1.5 * mttf  # exact birth-death MTTA
        # The dominant term is MTTF^2 / (2 MTTR); the exact chain answer
        # includes lower-order corrections, so compare against the exact
        # birth-death expression: (mu + 3 lam) / (2 lam^2) with
        # lam = 1/mttf, mu = 1/mttr.
        lam, mu = 1.0 / mttf, 1.0 / mttr
        exact = (mu + 3 * lam) / (2 * lam ** 2)
        assert mean_time_to_absorption(chain) == pytest.approx(exact, rel=1e-9)
        assert mean_time_to_absorption(chain) == pytest.approx(expected, rel=0.01)

    def test_start_state_matters(self):
        chain = mirrored_visible_only()
        from_degraded = mean_time_to_absorption(chain, start="one_up")
        from_healthy = mean_time_to_absorption(chain, start="both_up")
        assert from_degraded < from_healthy

    def test_absorbing_start_rejected(self):
        with pytest.raises(TransitionError):
            mean_time_to_absorption(mirrored_visible_only(), start="lost")

    def test_chain_without_absorbing_state_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        chain.add_state("b")
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("b", "a", 1.0)
        with pytest.raises(TransitionError):
            mean_time_to_absorption(chain)


class TestExpectedVisits:
    def test_visit_times_sum_to_mtta(self):
        chain = mirrored_visible_only()
        visits = expected_visits(chain)
        assert sum(visits.values()) == pytest.approx(mean_time_to_absorption(chain))

    def test_healthy_state_dominates_occupancy(self):
        visits = expected_visits(mirrored_visible_only())
        assert visits["both_up"] > 0.99 * sum(visits.values())


class TestAbsorptionSplit:
    """Where a chain ends: the time spent in each transient state times
    its rate into each absorbing state."""

    @pytest.mark.parametrize("left,right", [(1.0, 3.0), (2.0, 2.0), (0.1, 9.9)])
    def test_competing_absorbing_states_split_by_rate(self, left, right):
        chain = MarkovChain()
        chain.add_state("start")
        chain.add_state("left", absorbing=True)
        chain.add_state("right", absorbing=True)
        chain.add_transition("start", "left", left)
        chain.add_transition("start", "right", right)
        visits = expected_visits(chain)
        assert visits["start"] * left == pytest.approx(left / (left + right))
        assert visits["start"] * right == pytest.approx(right / (left + right))

    @pytest.mark.parametrize("start", ["both_up", "one_up"])
    def test_single_absorbing_state_is_reached_with_probability_one(self, start):
        mttf = 1000.0
        visits = expected_visits(mirrored_visible_only(mttf=mttf), start=start)
        assert visits["one_up"] / mttf == pytest.approx(1.0)
