"""Property tests for the shared estimator plumbing.

Every Monte-Carlo front end validates and budgets through
:mod:`repro.simulation.estimators`: same validation errors, same
adaptive caps, same numbers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import estimators
from repro.simulation.estimators import (
    BACKENDS,
    METHODS,
    DEFAULT_ADAPTIVE_CHUNK_LIMIT,
    adaptive_cap,
    check_backend,
    check_method,
    mttdl_mle,
    zero_loss_ci_high,
)
from repro.simulation.rare_event import RULE_OF_THREE


class TestCheckBackend:
    def test_valid_backends_pass(self):
        for backend in BACKENDS:
            check_backend(backend)

    @given(st.text(max_size=12).filter(lambda s: s not in BACKENDS))
    def test_everything_else_raises(self, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend(backend)


class TestCheckMethod:
    def test_valid_methods_pass(self):
        for method in METHODS:
            check_method(method)

    @given(st.text(max_size=12).filter(lambda s: s not in METHODS))
    def test_everything_else_raises(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            check_method(method)


class TestAdaptiveCap:
    @given(st.integers(min_value=1, max_value=10**6))
    def test_default_is_the_chunk_limit_multiple(self, trials):
        assert adaptive_cap(trials, None) == trials * DEFAULT_ADAPTIVE_CHUNK_LIMIT

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_explicit_cap_honoured_or_rejected(self, trials, extra):
        max_trials = trials + extra
        assert adaptive_cap(trials, max_trials) == max_trials
        if trials > 1:
            with pytest.raises(ValueError, match="max_trials"):
                adaptive_cap(trials, trials - 1)


class TestZeroLossBound:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_rule_of_three_clamped_to_one(self, trials):
        bound = zero_loss_ci_high(trials)
        assert bound == min(1.0, RULE_OF_THREE / trials)
        assert 0.0 < bound <= 1.0

    def test_non_positive_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            zero_loss_ci_high(0)


class TestMttdlMle:
    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_mean_is_total_time_over_losses(self, total_time, losses):
        estimate = mttdl_mle(total_time, losses, trials=losses)
        assert estimate.mean == total_time / losses
        assert estimate.std_error == pytest.approx(
            estimate.mean / math.sqrt(losses)
        )
        assert estimate.censored == 0

    def test_zero_losses_is_infinite(self):
        with pytest.warns(estimators.HighCensoringWarning):
            estimate = mttdl_mle(1000.0, 0, trials=10)
        assert estimate.mean == math.inf
        assert estimate.losses == 0

    @settings(max_examples=30)
    @given(st.integers(min_value=10, max_value=1000))
    def test_warning_exactly_above_the_censoring_threshold(self, trials):
        threshold = estimators.CENSORED_WARNING_FRACTION
        heavy_censored = int(trials * threshold) + 1
        light_censored = int(trials * threshold)
        import warnings as _warnings

        with pytest.warns(estimators.HighCensoringWarning):
            mttdl_mle(1000.0, trials - heavy_censored, trials)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", estimators.HighCensoringWarning)
            mttdl_mle(1000.0, trials - light_censored, trials)


class TestEvaluateUsesTheSharedModule:
    """optimize/evaluate's validation now delegates here."""

    def test_settings_reject_unknown_methods_with_the_shared_message(self):
        from repro.optimize.evaluate import EvaluationSettings

        with pytest.raises(ValueError, match="unknown method"):
            EvaluationSettings(method="psychic")
        with pytest.raises(ValueError, match="unknown method"):
            # Multilevel splitting is no longer a method anywhere.
            EvaluationSettings(method="splitting")

    def test_zero_loss_refinement_uses_the_shared_bound(self):
        from dataclasses import replace

        from repro.optimize.evaluate import (
            EvaluationSettings,
            refine,
            screen,
        )
        from repro.optimize.space import CandidateDesign

        candidate = CandidateDesign(
            medium="drive:cheetah",
            replicas=4,
            audits_per_year=52.0,
            placement="multi",
            dataset_tb=1.0,
        )
        settings = EvaluationSettings(trials=50, seed=0, method="standard")
        evaluation = refine(screen(candidate, settings), settings)
        if evaluation.simulated.losses == 0:
            assert evaluation.simulated.ci_high == zero_loss_ci_high(
                evaluation.simulated.trials
            )
