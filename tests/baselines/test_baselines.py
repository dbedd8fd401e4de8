"""Tests for the prior-work baseline model."""

import pytest

from repro.baselines.chen import chen_correlated_mttdl, chen_vs_alpha_model, implied_alpha
from repro.core.parameters import FaultModel


class TestChen:
    def test_correlated_mttdl(self):
        assert chen_correlated_mttdl(1e6, 10.0, 1e5) == pytest.approx(1e6 * 1e5 / 10.0)

    def test_implied_alpha(self):
        assert implied_alpha(1e6, 1e5) == pytest.approx(0.1)
        assert implied_alpha(1e6, 2e6) == 1.0

    def test_correlated_mttf_cannot_exceed_independent(self):
        with pytest.raises(ValueError):
            chen_correlated_mttdl(1e6, 10.0, 2e6)

    def test_comparison_against_alpha_model(self):
        model = FaultModel(
            mean_time_to_visible=1.4e6,
            mean_time_to_latent=2.8e5,
            mean_repair_visible=1.0 / 3.0,
            mean_repair_latent=1.0 / 3.0,
            mean_detect_latent=1460.0,
            correlation_factor=1.0,
        )
        result = chen_vs_alpha_model(model, correlated_second_mttf=1.4e5)
        assert result["implied_alpha"] == pytest.approx(0.1)
        # Chen's visible-only threat model reports a much longer MTTDL
        # than the paper's latent-aware model: the latent faults are the
        # dominant threat that Chen's model does not see.
        assert result["latent_fault_penalty"] > 10.0
