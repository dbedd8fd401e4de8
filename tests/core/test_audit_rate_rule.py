"""Every audit-rate consumer reads ``MDL`` from one rule.

:func:`repro.core.parameters.mdl_from_audit_rate` owns "half the audit
interval, or ``ML`` when the data is never audited" (paper Section 6.2).
The analytic sweeps, the study engine's override, the scrubbed Markov
chain, the simulators' audit grid, the audit schedules and every medium
of the design space must compute the same float from it.
"""

import pytest

from repro.analysis.sweep import audit_adjusted_model, sweep_audit_rate
from repro.audit.policies import detection_latency, periodic_schedule
from repro.core.parameters import FaultModel, mdl_from_audit_rate
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import (
    ONE_LATENT_DETECTED,
    ONE_LATENT_UNDETECTED,
    build_scrubbed_chain,
)
from repro.optimize.space import known_media, resolve_medium
from repro.simulation.scrubbing import audit_interval_for

#: The paper's unscrubbed Cheetah pair; every consumer sets its MDL.
MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=2.8e5,
    correlation_factor=1.0,
)

RATES = [0.5, 3.0, 7.0, 52.0, 365.0]


def _scrubbed_chain_mdl(rate):
    chain = build_scrubbed_chain(MODEL, rate)
    return 1.0 / chain.rate(ONE_LATENT_UNDETECTED, ONE_LATENT_DETECTED)


#: Each consumer's MDL at an audit rate, in hours.
CONSUMERS = {
    "FaultModel.with_audit_rate": lambda rate: (
        MODEL.with_audit_rate(rate).mean_detect_latent
    ),
    "audit_adjusted_model": lambda rate: (
        audit_adjusted_model(MODEL, rate).mean_detect_latent
    ),
    "sweep_audit_rate": lambda rate: (
        sweep_audit_rate(MODEL, [rate]).metric("mdl_hours")[0]
    ),
    "build_scrubbed_chain": _scrubbed_chain_mdl,
    # The simulators audit on a grid of twice the MDL.
    "audit_interval_for": lambda rate: audit_interval_for(MODEL, rate) / 2.0,
    "periodic_schedule": lambda rate: (
        detection_latency(periodic_schedule(rate))
    ),
}

#: Consumers that fall back to ``ML`` when the data is never audited.
NEVER_AUDITED = [
    "FaultModel.with_audit_rate",
    "audit_adjusted_model",
    "sweep_audit_rate",
    "build_scrubbed_chain",
]


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_audited_mdl_is_half_the_interval(consumer, rate):
    expected = mdl_from_audit_rate(rate, MODEL.mean_time_to_latent)
    assert expected == HOURS_PER_YEAR / rate / 2.0
    assert CONSUMERS[consumer](rate) == expected


@pytest.mark.parametrize("consumer", NEVER_AUDITED)
def test_never_audited_mdl_is_the_latent_mean_time(consumer):
    assert CONSUMERS[consumer](0.0) == MODEL.mean_time_to_latent


def test_never_audited_grid_and_schedule_have_no_passes():
    assert audit_interval_for(MODEL, 0.0) is None
    assert detection_latency(periodic_schedule(0.0)) == float("inf")


@pytest.mark.parametrize(
    "consumer", sorted(set(CONSUMERS) - {"periodic_schedule"})
)
def test_negative_rate_rejected(consumer):
    with pytest.raises(ValueError, match="audits_per_year"):
        CONSUMERS[consumer](-1.0)


class TestDesignSpaceMedia:
    @pytest.mark.parametrize("identifier", known_media())
    def test_audited_mdl_is_half_the_interval(self, identifier):
        model = resolve_medium(identifier).fault_model(3.0, 1.0)
        assert model.mean_detect_latent == 1460.0

    @pytest.mark.parametrize("identifier", known_media())
    def test_never_audited_mdl_is_the_latent_mean_time(self, identifier):
        model = resolve_medium(identifier).fault_model(0.0, 1.0)
        assert model.mean_detect_latent == model.mean_time_to_latent
