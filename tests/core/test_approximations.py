"""Tests for the limit-case approximations (Eqs. 9-11)."""

import pytest

from repro.core.approximations import (
    OperatingRegime,
    best_approximation,
    classify_regime,
    latent_dominated_mttdl,
    long_window_mttdl,
    visible_dominated_mttdl,
)
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.markov.absorbing import mean_time_to_absorption
from repro.markov.builders import build_mirrored_chain


def model(**overrides):
    base = dict(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=1.0,
    )
    base.update(overrides)
    return FaultModel(**base)


class TestEquation9:
    def test_formula(self):
        m = model()
        assert visible_dominated_mttdl(m) == pytest.approx(
            m.alpha * m.mv ** 2 / m.mrv
        )

    def test_reduces_to_raid_model_when_latent_negligible(self):
        # When latent faults essentially never happen and detection is
        # instant, the full model converges to Eq. 9.
        m = model(mean_time_to_latent=1e12, mean_detect_latent=0.0)
        assert mirrored_mttdl(m) == pytest.approx(
            visible_dominated_mttdl(m), rel=0.01
        )

    def test_infinite_with_zero_repair(self):
        assert visible_dominated_mttdl(model(mean_repair_visible=0.0)) == float("inf")


class TestPattersonConvention:
    """Patterson et al.'s RAID-1 MTTDL is MTTF^2 / (2 MTTR): either copy
    can fail first.  Eq. 9 counts the first fault at the single-copy
    rate, so it reads twice that."""

    POINTS = [(1e6, 10.0), (1.4e6, 1.0 / 3.0), (5e5, 24.0)]

    @staticmethod
    def visible_only(mv, mrv):
        return model(
            mean_time_to_visible=mv,
            mean_time_to_latent=1e12,
            mean_repair_visible=mrv,
            mean_repair_latent=mrv,
            mean_detect_latent=0.0,
        )

    @pytest.mark.parametrize("mv,mrv", POINTS)
    def test_eq9_is_twice_patterson(self, mv, mrv):
        patterson = mv ** 2 / (2.0 * mrv)
        assert visible_dominated_mttdl(self.visible_only(mv, mrv)) == (
            pytest.approx(2.0 * patterson)
        )

    @pytest.mark.parametrize("mv,mrv", POINTS)
    def test_chain_with_either_copy_failing_first_is_patterson(self, mv, mrv):
        chain = build_mirrored_chain(self.visible_only(mv, mrv))
        assert mean_time_to_absorption(chain) == pytest.approx(
            mv ** 2 / (2.0 * mrv), rel=1e-3
        )

    @pytest.mark.parametrize("mv,mrv", POINTS)
    def test_chain_with_single_initiator_is_eq9(self, mv, mrv):
        m = self.visible_only(mv, mrv)
        chain = build_mirrored_chain(m, double_first_fault_rate=False)
        assert mean_time_to_absorption(chain) == pytest.approx(
            visible_dominated_mttdl(m), rel=1e-3
        )


class TestEquation10:
    def test_formula(self):
        m = model()
        assert latent_dominated_mttdl(m) == pytest.approx(
            m.alpha * m.ml ** 2 / (m.mrl + m.mdl)
        )

    def test_paper_scrubbed_value(self):
        years = latent_dominated_mttdl(model()) / HOURS_PER_YEAR
        assert years == pytest.approx(6128.7, rel=0.001)

    def test_paper_correlated_value(self):
        years = latent_dominated_mttdl(model(correlation_factor=0.1)) / HOURS_PER_YEAR
        assert years == pytest.approx(612.9, rel=0.001)

    def test_halving_detection_time_doubles_mttdl(self):
        # The paper's key scrubbing implication, exact in Eq. 10 when
        # repair time is negligible compared to detection time.
        m_slow = model(mean_detect_latent=2000.0, mean_repair_latent=0.0)
        m_fast = model(mean_detect_latent=1000.0, mean_repair_latent=0.0)
        assert latent_dominated_mttdl(m_fast) == pytest.approx(
            2.0 * latent_dominated_mttdl(m_slow)
        )


class TestEquation11:
    def test_formula(self):
        m = model()
        expected = m.alpha * m.mv ** 2 / (m.mrv + m.mv ** 2 / m.ml)
        assert long_window_mttdl(m) == pytest.approx(expected)

    def test_paper_negligent_value(self):
        m = model(
            mean_time_to_latent=1.4e7,
            mean_detect_latent=1.4e7,
            correlation_factor=0.1,
        )
        assert long_window_mttdl(m) / HOURS_PER_YEAR == pytest.approx(159.8, rel=0.001)

    def test_approaches_alpha_ml_when_latent_term_dominates(self):
        m = model(mean_time_to_latent=1.4e7, correlation_factor=0.1)
        assert long_window_mttdl(m) == pytest.approx(0.1 * 1.4e7, rel=0.01)


class TestRegimeClassification:
    def test_latent_dominated(self):
        regime = classify_regime(model()).regime
        assert regime is OperatingRegime.LATENT_DOMINATED

    def test_visible_dominated(self):
        m = model(mean_time_to_latent=1e9, mean_detect_latent=100.0)
        assert classify_regime(m).regime is OperatingRegime.VISIBLE_DOMINATED

    def test_long_window(self):
        m = model(mean_time_to_latent=1.4e7, mean_detect_latent=1.4e7)
        assert classify_regime(m).regime is OperatingRegime.LONG_LATENT_WINDOW

    def test_general(self):
        m = model(mean_time_to_latent=1.0e6, mean_detect_latent=100.0)
        assert classify_regime(m).regime is OperatingRegime.GENERAL

    def test_reason_is_populated(self):
        assert classify_regime(model()).reason

    def test_rejects_bad_dominance_ratio(self):
        with pytest.raises(ValueError):
            classify_regime(model(), dominance_ratio=1.0)

    def test_rejects_bad_window_fraction(self):
        with pytest.raises(ValueError):
            classify_regime(model(), long_window_fraction=0.0)


class TestBestApproximation:
    def test_scrubbed_model_uses_latent_dominated_form(self):
        assert best_approximation(model()) == pytest.approx(
            latent_dominated_mttdl(model())
        )

    def test_visible_dominated_model_uses_raid_form(self):
        m = model(mean_time_to_latent=1e9, mean_detect_latent=100.0)
        assert best_approximation(m) == pytest.approx(visible_dominated_mttdl(m))

    def test_long_window_model_uses_eq11(self):
        m = model(mean_time_to_latent=1.4e7, mean_detect_latent=1.4e7)
        assert best_approximation(m) == pytest.approx(long_window_mttdl(m))

    def test_approximation_within_factor_two_of_full_model(self):
        # For the paper's scrubbed operating point the approximation and
        # the full evaluation agree to within a factor of two (documented
        # optimism of Eq. 10).
        m = model()
        ratio = best_approximation(m) / mirrored_mttdl(m)
        assert 0.5 <= ratio <= 2.0
