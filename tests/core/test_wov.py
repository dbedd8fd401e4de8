"""Tests for the window-of-vulnerability probabilities (Eqs. 3-6)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.wov import (
    prob_any_second_fault_after_latent,
    prob_any_second_fault_after_visible,
    prob_second_fault_after_latent,
    prob_second_fault_after_visible,
    second_fault_probabilities,
)


def model(alpha=1.0, mdl=1460.0, ml=2.8e5):
    return FaultModel(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=ml,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=mdl,
        correlation_factor=alpha,
    )


class TestEquations3To6:
    """Linearised probabilities should match the paper's expressions."""

    def test_eq3_visible_after_visible(self):
        m = model()
        expected = m.mean_repair_visible / m.mean_time_to_visible
        assert prob_second_fault_after_visible(m, FaultType.VISIBLE) == pytest.approx(
            expected
        )

    def test_eq4_latent_after_visible(self):
        m = model()
        expected = m.mean_repair_visible / m.mean_time_to_latent
        assert prob_second_fault_after_visible(m, FaultType.LATENT) == pytest.approx(
            expected
        )

    def test_eq5_visible_after_latent(self):
        m = model()
        expected = (m.mean_detect_latent + m.mean_repair_latent) / m.mean_time_to_visible
        assert prob_second_fault_after_latent(m, FaultType.VISIBLE) == pytest.approx(
            expected
        )

    def test_eq6_latent_after_latent(self):
        m = model()
        expected = (m.mean_detect_latent + m.mean_repair_latent) / m.mean_time_to_latent
        assert prob_second_fault_after_latent(m, FaultType.LATENT) == pytest.approx(
            expected
        )

    def test_correlation_divides_probabilities(self):
        base = prob_second_fault_after_latent(model(alpha=1.0), FaultType.LATENT)
        correlated = prob_second_fault_after_latent(model(alpha=0.1), FaultType.LATENT)
        assert correlated == pytest.approx(base / 0.1)

    def test_latent_window_probability_exceeds_visible_window(self):
        m = model()
        assert prob_second_fault_after_latent(
            m, FaultType.LATENT
        ) > prob_second_fault_after_visible(m, FaultType.LATENT)


class TestCombinedProbabilities:
    def test_combined_after_latent_capped_at_one(self):
        # No scrubbing: MDL comparable to ML makes the linearised sum > 1.
        m = model(mdl=2.8e5)
        assert prob_any_second_fault_after_latent(m) == 1.0

    def test_combined_after_latent_small_when_scrubbed(self):
        m = model(mdl=1460.0)
        assert prob_any_second_fault_after_latent(m) < 0.01

    def test_combined_after_visible_is_sum_when_small(self):
        m = model()
        expected = prob_second_fault_after_visible(
            m, FaultType.VISIBLE
        ) + prob_second_fault_after_visible(m, FaultType.LATENT)
        assert prob_any_second_fault_after_visible(m) == pytest.approx(expected)

    def test_exact_form_never_exceeds_one(self):
        m = model(mdl=1e7)
        assert prob_any_second_fault_after_latent(m, exact=True) <= 1.0

    def test_exact_and_linear_agree_for_short_windows(self):
        m = model(mdl=100.0)
        linear = prob_any_second_fault_after_latent(m, exact=False)
        exact = prob_any_second_fault_after_latent(m, exact=True)
        assert exact == pytest.approx(linear, rel=1e-3)


class TestSecondFaultProbabilitiesTable:
    def test_contains_all_four_combinations(self):
        table = second_fault_probabilities(model())
        assert len(table) == 4
        for first in FaultType:
            for second in FaultType:
                assert (first, second) in table

    def test_all_probabilities_non_negative(self):
        table = second_fault_probabilities(model(alpha=0.01))
        assert all(value >= 0 for value in table.values())

    def test_exact_probabilities_bounded_by_one(self):
        table = second_fault_probabilities(model(alpha=0.001, mdl=1e7), exact=True)
        assert all(0 <= value <= 1 for value in table.values())


@given(
    alpha=st.floats(min_value=0.01, max_value=1.0),
    mdl=st.floats(min_value=0.0, max_value=1e6),
)
def test_exact_probability_bounded_property(alpha, mdl):
    m = model(alpha=alpha, mdl=mdl)
    for first in FaultType:
        table = second_fault_probabilities(m, exact=True)
        for value in table.values():
            assert 0.0 <= value <= 1.0
