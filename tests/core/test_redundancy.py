"""Tests for the first-class redundancy-scheme abstraction."""

import math

import pytest

from repro.core.parameters import FaultModel
from repro.core.redundancy import (
    ErasureCode,
    RedundancyScheme,
    Replication,
    parse_scheme,
    resolve_scheme,
    scheme_loss_rate,
    scheme_mttdl_eq12,
)
from repro.core.replication import replicated_mttdl


@pytest.fixture
def model():
    return FaultModel(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=1.0,
    )


class TestRedundancyScheme:
    def test_replication_factory(self):
        scheme = Replication(3)
        assert scheme == RedundancyScheme(n=3, k=1)
        assert scheme.is_replication
        assert scheme.loss_threshold == 3
        assert scheme.max_tolerable_faults == 2
        assert scheme.storage_overhead == 3.0
        assert scheme.repair_fragments_read == 1

    def test_erasure_factory(self):
        scheme = ErasureCode(6, 4)
        assert not scheme.is_replication
        assert scheme.loss_threshold == 3
        assert scheme.max_tolerable_faults == 2
        assert scheme.storage_overhead == 1.5
        assert scheme.repair_fragments_read == 4

    @pytest.mark.parametrize("n,k", [(0, 1), (3, 0), (3, 4), (-1, -1)])
    def test_invalid_parameters_rejected(self, n, k):
        with pytest.raises(ValueError):
            RedundancyScheme(n=n, k=k)

    def test_describe_and_key(self):
        assert Replication(3).describe() == "3-way replication"
        assert ErasureCode(6, 4).describe() == "EC(6,4)"
        assert ErasureCode(6, 4).key() == "6,4"

    def test_dict_roundtrip(self):
        scheme = ErasureCode(9, 6)
        assert RedundancyScheme.from_dict(scheme.as_dict()) == scheme

    def test_parse_scheme(self):
        assert parse_scheme("6,4") == ErasureCode(6, 4)
        assert parse_scheme("3") == Replication(3)
        assert parse_scheme(" 6 , 4 ") == ErasureCode(6, 4)
        with pytest.raises(ValueError):
            parse_scheme("6,4,2")
        with pytest.raises(ValueError):
            parse_scheme("six,four")

    def test_resolve_scheme_precedence(self):
        assert resolve_scheme(ErasureCode(6, 4), 3) == ErasureCode(6, 4)
        assert resolve_scheme("6,4", None) == ErasureCode(6, 4)
        assert resolve_scheme(None, 3) == Replication(3)
        with pytest.raises(ValueError):
            resolve_scheme(None, None)


class TestSchemeClosedForms:
    def test_replication_special_case_matches_rare_event_owner(self, model):
        from repro.simulation.rare_event import analytic_loss_rate

        for r in (2, 3, 4):
            assert scheme_loss_rate(model, Replication(r)) == (
                analytic_loss_rate(model, r)
            )

    def test_erasure_loses_more_than_replication_same_n(self, model):
        # Same fragment count, higher k => smaller loss threshold =>
        # strictly higher loss rate.
        rates = [
            scheme_loss_rate(model, RedundancyScheme(n=4, k=k))
            for k in (1, 2, 3)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_eq12_replication_special_case(self):
        for r in (1, 2, 3, 5):
            assert scheme_mttdl_eq12(1.4e6, 1.0 / 3.0, Replication(r)) == (
                replicated_mttdl(1.4e6, 1.0 / 3.0, r)
            )

    def test_eq12_erasure_monotone_in_k(self):
        # Fixing n, each extra required fragment removes one tolerated
        # fault and must cost reliability.
        values = [
            scheme_mttdl_eq12(1.4e6, 1.0 / 3.0, RedundancyScheme(n=6, k=k))
            for k in (1, 2, 4, 6)
        ]
        assert values == sorted(values, reverse=True)
        # n == k tolerates nothing: MTTDL collapses to one mean fault
        # time shared across n fragments' combined exposure.
        assert values[-1] == pytest.approx(1.4e6)


class TestWeatherspoonCrossCheck:
    """Tie the scheme abstraction to Weatherspoon and Kubiatowicz's
    erasure-coding comparison."""

    def test_storage_overhead_matches_baseline(self):
        for (n, k) in [(6, 4), (9, 6), (16, 12)]:
            scheme = ErasureCode(n, k)
            assert scheme.storage_overhead == pytest.approx(n / k)
            assert Replication(3).storage_overhead / (
                scheme.storage_overhead
            ) == pytest.approx(3.0 * k / n)

    def test_erasure_beats_equivalent_replication_on_overhead(self):
        # Weatherspoon's headline: at a 10% per-fragment loss, matching
        # (16, 12)'s durability takes two whole copies, which store 2x
        # the data against the code's 16/12.
        scheme = ErasureCode(16, 12)
        replication = Replication(2)
        assert replication.storage_overhead > scheme.storage_overhead

    def test_loss_threshold_agrees_with_survival_boundary(self):
        # The baseline's m-of-n survival boundary and the scheme's loss
        # threshold describe the same event: with loss_threshold faults,
        # only k - 1 fragments survive and reconstruction fails.
        scheme = ErasureCode(6, 4)
        survivors_at_loss = scheme.n - scheme.loss_threshold
        assert survivors_at_loss == scheme.k - 1


def test_scheme_mttdl_eq12_validates_inputs():
    with pytest.raises(ValueError):
        scheme_mttdl_eq12(0.0, 1.0, Replication(2))
    with pytest.raises(ValueError):
        scheme_mttdl_eq12(1e6, -1.0, Replication(2))
    with pytest.raises(ValueError):
        scheme_mttdl_eq12(1e6, 1.0, Replication(2), correlation_factor=0.0)


def test_loss_rate_zero_when_no_faults():
    model = FaultModel(
        mean_time_to_visible=math.inf,
        mean_time_to_latent=math.inf,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=1.0,
    )
    assert scheme_loss_rate(model, ErasureCode(6, 4)) == 0.0


class TestWeatherspoonShape:
    """Weatherspoon and Kubiatowicz's comparison on the live closed forms:
    at equal storage overhead an erasure code tolerates more lost
    fragments than whole copies, so it outlives them."""

    @pytest.mark.parametrize(
        "n,k,replicas",
        [(4, 2, 2), (6, 3, 2), (8, 4, 2), (6, 2, 3), (9, 3, 3), (12, 4, 3)],
    )
    def test_erasure_outlives_replication_at_equal_overhead(
        self, model, n, k, replicas
    ):
        code, copies = ErasureCode(n, k), Replication(replicas)
        assert code.storage_overhead == copies.storage_overhead
        assert code.max_tolerable_faults > copies.max_tolerable_faults
        assert scheme_loss_rate(model, code) < scheme_loss_rate(model, copies)
        assert scheme_mttdl_eq12(1.4e6, 1.0 / 3.0, code) > scheme_mttdl_eq12(
            1.4e6, 1.0 / 3.0, copies
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_each_extra_fragment_lowers_the_loss_rate(self, model, k):
        rates = [
            scheme_loss_rate(model, RedundancyScheme(n=n, k=k))
            for n in range(k, k + 4)
        ]
        assert rates == sorted(rates, reverse=True)
        assert len(set(rates)) == len(rates)

    @pytest.mark.parametrize("n,k", [(6, 4), (9, 6), (16, 12)])
    def test_latent_faults_erode_coded_durability(self, model, n, k):
        unscrubbed = model.with_detection_time(model.mean_time_to_latent)
        assert scheme_loss_rate(unscrubbed, ErasureCode(n, k)) > (
            scheme_loss_rate(model, ErasureCode(n, k))
        )

    @pytest.mark.parametrize("n,k", [(3, 2), (6, 4), (9, 6)])
    def test_eq12_gains_alpha_mv_over_mrv_per_tolerated_fault(self, n, k):
        # Each fault the code tolerates multiplies MTTDL by the odds
        # alpha MV / MRV against the next fault landing in the window.
        more = scheme_mttdl_eq12(1.4e6, 1.0 / 3.0, ErasureCode(n + 1, k), 0.5)
        fewer = scheme_mttdl_eq12(1.4e6, 1.0 / 3.0, ErasureCode(n, k), 0.5)
        assert more / fewer == pytest.approx(0.5 * 1.4e6 * 3.0)
