"""Tests for the r-way replication model (Eq. 12)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parameters import FaultModel
from repro.core.replication import replicated_mttdl, replicated_mttdl_from_model

MV = 1.4e6
MRV = 1.0 / 3.0


class TestEquation12:
    def test_single_replica_is_mean_time_to_fault(self):
        assert replicated_mttdl(MV, MRV, 1) == MV

    def test_mirrored_formula(self):
        assert replicated_mttdl(MV, MRV, 2) == pytest.approx(MV ** 2 / MRV)

    def test_general_formula(self):
        r = 4
        alpha = 0.3
        expected = alpha ** (r - 1) * MV ** r / MRV ** (r - 1)
        assert replicated_mttdl(MV, MRV, r, alpha) == pytest.approx(expected)

    def test_correlation_offsets_replication(self):
        # Paper Section 5.5: with strong correlation, adding replicas
        # buys little.  At alpha = MRV/MV every extra replica buys
        # nothing at all.
        alpha = MRV / MV
        assert replicated_mttdl(MV, MRV, 5, alpha) == pytest.approx(MV)

    def test_zero_repair_time_gives_infinite_mttdl(self):
        assert replicated_mttdl(MV, 0.0, 3) == float("inf")

    @pytest.mark.parametrize("replicas", [0, -1])
    def test_rejects_bad_replica_count(self, replicas):
        with pytest.raises(ValueError):
            replicated_mttdl(MV, MRV, replicas)

    def test_rejects_bad_mean_time(self):
        with pytest.raises(ValueError):
            replicated_mttdl(0.0, MRV, 2)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            replicated_mttdl(MV, MRV, 2, correlation_factor=0.0)


class TestModelDriven:
    def test_model_driven_uses_combined_rate(self):
        model = FaultModel(
            mean_time_to_visible=1.4e6,
            mean_time_to_latent=2.8e5,
            mean_repair_visible=MRV,
            mean_repair_latent=MRV,
            mean_detect_latent=0.0,
            correlation_factor=1.0,
        )
        combined = 1.0 / (1.0 / 1.4e6 + 1.0 / 2.8e5)
        assert replicated_mttdl_from_model(model, 2) == pytest.approx(
            combined ** 2 / MRV
        )


@given(
    replicas=st.integers(min_value=1, max_value=8),
    alpha=st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=60)
def test_mttdl_monotone_in_replicas_property(replicas, alpha):
    assert replicated_mttdl(MV, MRV, replicas + 1, alpha) >= replicated_mttdl(
        MV, MRV, replicas, alpha
    )


@given(
    replicas=st.integers(min_value=2, max_value=8),
    alpha1=st.floats(min_value=0.001, max_value=1.0),
    alpha2=st.floats(min_value=0.001, max_value=1.0),
)
@settings(max_examples=60)
def test_mttdl_monotone_in_alpha_property(replicas, alpha1, alpha2):
    low, high = sorted((alpha1, alpha2))
    assert replicated_mttdl(MV, MRV, replicas, low) <= replicated_mttdl(
        MV, MRV, replicas, high
    )


class TestReplicationGain:
    @pytest.mark.parametrize("replicas", [1, 2, 3, 4, 5])
    def test_each_replica_multiplies_mttdl_by_alpha_mv_over_mrv(self, replicas):
        gain = replicated_mttdl(MV, MRV, replicas + 1, 0.5) / replicated_mttdl(
            MV, MRV, replicas, 0.5
        )
        assert gain == pytest.approx(0.5 * MV / MRV)

    def test_strong_correlation_erodes_the_gain(self):
        def gain(alpha):
            return replicated_mttdl(MV, MRV, 3, alpha) / replicated_mttdl(
                MV, MRV, 2, alpha
            )

        assert gain(0.001) < gain(1.0)

    @pytest.mark.parametrize("replicas", [2, 3, 4])
    def test_alpha_at_mrv_over_mv_makes_extra_replicas_worthless(self, replicas):
        # Every second fault then lands in the window: the data lasts
        # only as long as one copy.
        assert replicated_mttdl(MV, MRV, replicas, MRV / MV) == pytest.approx(MV)
