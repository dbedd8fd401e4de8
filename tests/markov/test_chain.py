"""Tests for the generic CTMC builder."""

import numpy as np
import pytest

from repro.markov.chain import MarkovChain, TransitionError


def simple_chain():
    chain = MarkovChain()
    chain.add_state("up")
    chain.add_state("degraded")
    chain.add_state("down", absorbing=True)
    chain.add_transition("up", "degraded", 0.01)
    chain.add_transition("degraded", "up", 1.0)
    chain.add_transition("degraded", "down", 0.005)
    return chain


class TestConstruction:
    def test_states_in_insertion_order(self):
        chain = simple_chain()
        assert chain.states == ["up", "degraded", "down"]

    def test_duplicate_state_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        with pytest.raises(TransitionError):
            chain.add_state("a")

    def test_unknown_source_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        with pytest.raises(TransitionError):
            chain.add_transition("missing", "a", 1.0)

    def test_unknown_target_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        with pytest.raises(TransitionError):
            chain.add_transition("a", "missing", 1.0)

    def test_self_loop_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        chain.add_state("b")
        with pytest.raises(TransitionError):
            chain.add_transition("a", "a", 1.0)

    def test_non_positive_rate_rejected(self):
        chain = MarkovChain()
        chain.add_state("a")
        chain.add_state("b")
        with pytest.raises(TransitionError):
            chain.add_transition("a", "b", 0.0)

    def test_transition_out_of_absorbing_rejected(self):
        chain = MarkovChain()
        chain.add_state("a", absorbing=True)
        chain.add_state("b")
        with pytest.raises(TransitionError):
            chain.add_transition("a", "b", 1.0)

    def test_parallel_transitions_accumulate(self):
        chain = MarkovChain()
        chain.add_state("a")
        chain.add_state("b")
        chain.add_transition("a", "b", 1.0)
        chain.add_transition("a", "b", 2.0)
        assert chain.rate("a", "b") == 3.0


class TestInspection:
    def test_absorbing_and_transient_partition(self):
        chain = simple_chain()
        assert chain.absorbing_states == ["down"]
        assert chain.transient_states == ["up", "degraded"]

    def test_exit_rate(self):
        chain = simple_chain()
        assert chain.exit_rate("degraded") == pytest.approx(1.005)

    def test_len_and_contains(self):
        chain = simple_chain()
        assert len(chain) == 3
        assert "up" in chain
        assert "missing" not in chain

    def test_describe_mentions_states_and_rates(self):
        text = simple_chain().describe()
        assert "degraded" in text
        assert "absorbing" in text


class TestMatrices:
    def test_generator_rows_sum_to_zero(self):
        q = simple_chain().generator_matrix()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_generator_off_diagonal_non_negative(self):
        q = simple_chain().generator_matrix()
        off_diag = q - np.diag(np.diag(q))
        assert (off_diag >= 0).all()

    def test_partitioned_shapes(self):
        t_block, a_block, transient, absorbing = simple_chain().partitioned_generator()
        assert t_block.shape == (2, 2)
        assert a_block.shape == (2, 1)
        assert transient == ["up", "degraded"]
        assert absorbing == ["down"]

    def test_initial_distribution_default(self):
        chain = simple_chain()
        p0 = chain.initial_distribution()
        assert p0[0] == 1.0
        assert p0.sum() == 1.0

    def test_initial_distribution_explicit(self):
        chain = simple_chain()
        p0 = chain.initial_distribution("degraded")
        assert p0[1] == 1.0

    def test_initial_distribution_unknown_state(self):
        with pytest.raises(TransitionError):
            simple_chain().initial_distribution("missing")


class TestValidation:
    def test_valid_chain_passes(self):
        simple_chain().validate()

    def test_empty_chain_fails(self):
        with pytest.raises(TransitionError):
            MarkovChain().validate()

    def test_stuck_transient_state_fails(self):
        chain = MarkovChain()
        chain.add_state("a")
        chain.add_state("b", absorbing=True)
        with pytest.raises(TransitionError):
            chain.validate()
