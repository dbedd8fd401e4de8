"""Cross-model property-based tests.

These invariants tie the subsystems together: whatever parameters
hypothesis draws, the analytic model, its approximations, the Markov
chain, and the replication formula must respect the paper's structural
claims (monotonicity in each lever, agreement in limiting regimes,
probabilities staying probabilities).
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.approximations import latent_dominated_mttdl, visible_dominated_mttdl
from repro.core.mttdl import double_fault_breakdown, mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.probability import probability_of_loss
from repro.core.replication import replicated_mttdl
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import mirrored_mttdl_markov, replicated_mttdl_markov

# Parameter strategies spanning the paper's operating ranges: mean times
# from hundreds of hours (stress-test regimes) to 1e8 hours (optimistic
# hardware), repair times of minutes to days, detection delays up to the
# latent mean time, and the full plausible correlation range.
mean_times = st.floats(min_value=1e3, max_value=1e8)
repair_times = st.floats(min_value=0.01, max_value=100.0)
alphas = st.floats(min_value=1e-4, max_value=1.0)
detect_fractions = st.floats(min_value=1e-4, max_value=1.0)


def build_model(mv, ml, mrv, mrl, detect_fraction, alpha):
    return FaultModel(
        mean_time_to_visible=mv,
        mean_time_to_latent=ml,
        mean_repair_visible=mrv,
        mean_repair_latent=mrl,
        mean_detect_latent=ml * detect_fraction,
        correlation_factor=alpha,
    )


model_strategy = st.builds(
    build_model,
    mv=mean_times,
    ml=mean_times,
    mrv=repair_times,
    mrl=repair_times,
    detect_fraction=detect_fractions,
    alpha=alphas,
)


class TestAnalyticInvariants:
    @given(model=model_strategy)
    @settings(max_examples=120)
    def test_mttdl_is_positive_and_finite(self, model):
        mttdl = mirrored_mttdl(model)
        assert 0 < mttdl < float("inf")

    @given(model=model_strategy)
    @settings(max_examples=120)
    def test_mttdl_bounded_below_by_fraction_of_first_fault_time(self, model):
        # Losing data requires at least a first fault on one copy; with
        # the capped window probability the conditional loss probability
        # is at most 1, so the MTTDL is at least the combined first-fault
        # mean time (single-copy convention).
        combined_first = 1.0 / model.total_fault_rate
        assert mirrored_mttdl(model) >= combined_first * (1.0 - 1e-9)

    @given(model=model_strategy)
    @settings(max_examples=120)
    def test_mttdl_bounded_above_by_raid_limit(self, model):
        # Latent faults and detection delays can only hurt relative to a
        # hypothetical system with only visible faults and instant
        # detection (Eq. 9 at the same correlation).  The comparison is
        # only meaningful while Eq. 9's linearised window probability is
        # itself below 1 (outside that regime the capped model is the
        # more accurate of the two and may exceed the naive bound).
        linearised_visible_window_probability = (
            model.visible_window
            * (1.0 / model.mean_time_to_visible + 1.0 / model.mean_time_to_latent)
            / model.correlation_factor
        )
        if linearised_visible_window_probability > 0.5:
            return
        assert mirrored_mttdl(model) <= visible_dominated_mttdl(model) * (1 + 1e-9)

    @given(model=model_strategy)
    @settings(max_examples=120)
    def test_breakdown_consistent_with_total(self, model):
        breakdown = double_fault_breakdown(model)
        assert breakdown.total == pytest.approx(1.0 / mirrored_mttdl(model))
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0.0 <= value <= 1.0 for value in fractions.values())

    @given(model=model_strategy, factor=st.floats(min_value=1.1, max_value=100.0))
    @settings(max_examples=80)
    def test_improving_detection_never_hurts(self, model, factor):
        improved = model.with_detection_time(model.mean_detect_latent / factor)
        assert mirrored_mttdl(improved) >= mirrored_mttdl(model) * (1.0 - 1e-9)

    @given(model=model_strategy, factor=st.floats(min_value=1.1, max_value=100.0))
    @settings(max_examples=80)
    def test_better_latent_hardware_never_hurts(self, model, factor):
        # Longer mean time to latent faults with the detection delay held
        # fixed must not reduce reliability.
        improved = replace(
            model, mean_time_to_latent=model.mean_time_to_latent * factor
        )
        assert mirrored_mttdl(improved) >= mirrored_mttdl(model) * (1.0 - 1e-9)

    @given(model=model_strategy, mission_years=st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=80)
    def test_loss_probability_is_a_probability(self, model, mission_years):
        p = probability_of_loss(mirrored_mttdl(model), mission_years * HOURS_PER_YEAR)
        assert 0.0 <= p <= 1.0


class TestApproximationInvariants:
    @given(
        ml=st.floats(min_value=1e3, max_value=1e6),
        mrl=repair_times,
        detect_fraction=detect_fractions,
        alpha=alphas,
    )
    @settings(max_examples=80)
    def test_latent_dominated_form_matches_full_model_in_its_regime(
        self, ml, mrl, detect_fraction, alpha
    ):
        # Make visible faults vanishingly rare and the latent window
        # short *relative to the correlated second-fault time*: Eq. 10
        # and Eq. 7 must then agree closely.
        mdl = ml * detect_fraction
        if mdl + mrl > alpha * ml / 50.0:
            return
        model = FaultModel(
            mean_time_to_visible=1e12,
            mean_time_to_latent=ml,
            mean_repair_visible=mrl,
            mean_repair_latent=mrl,
            mean_detect_latent=mdl,
            correlation_factor=alpha,
        )
        assert latent_dominated_mttdl(model) == pytest.approx(
            mirrored_mttdl(model), rel=0.05
        )


class TestMarkovAgreement:
    @given(
        mv=st.floats(min_value=1e4, max_value=1e7),
        ml_ratio=st.floats(min_value=0.2, max_value=5.0),
        mrv=repair_times,
        detect_hours=st.floats(min_value=1.0, max_value=5000.0),
        alpha=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_paper_convention_chain_tracks_analytic_model(
        self, mv, ml_ratio, mrv, detect_hours, alpha
    ):
        model = FaultModel(
            mean_time_to_visible=mv,
            mean_time_to_latent=mv * ml_ratio,
            mean_repair_visible=mrv,
            mean_repair_latent=mrv,
            mean_detect_latent=detect_hours,
            correlation_factor=alpha,
        )
        analytic = mirrored_mttdl(model)
        markov = mirrored_mttdl_markov(model, double_first_fault_rate=False)
        ratio = markov / analytic
        # The two bookkeeping conventions can differ by at most a small
        # factor across the whole parameter space (capping vs the
        # detection race); they must never diverge by an order of
        # magnitude.
        assert 0.25 < ratio < 4.0


class TestReplicationInvariants:
    @given(
        mttf=st.floats(min_value=1e3, max_value=1e7),
        mttr=repair_times,
        replicas=st.integers(min_value=1, max_value=6),
        alpha=alphas,
    )
    @settings(max_examples=80)
    def test_eq12_never_below_single_copy(self, mttf, mttr, replicas, alpha):
        assert replicated_mttdl(mttf, mttr, replicas, alpha) >= mttf * (1.0 - 1e-12)

    @given(
        mttf=st.floats(min_value=1e3, max_value=1e5),
        mttr=st.floats(min_value=1.0, max_value=10.0),
        replicas=st.integers(min_value=2, max_value=3),
        alpha=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_markov_chain_replication_monotone(self, mttf, mttr, replicas, alpha):
        # Keep the repair-to-fault rate ratio moderate: the linear solve
        # behind the chain loses precision once the MTTDL approaches
        # (mttf/mttr)^r times the base time scale (~1e16 conditioning).
        assume(mttf / mttr <= 2e4)
        fewer = replicated_mttdl_markov(mttf, mttr, replicas, alpha)
        more = replicated_mttdl_markov(mttf, mttr, replicas + 1, alpha)
        assert more >= fewer * (1.0 - 1e-6)
