"""MTTDL's response to each model parameter.

Each log-log slope, ``d ln MTTDL / d ln p``, is read off a two-point sweep
through :func:`repro.analysis.sweep.sweep_parameter`, the path the
``sweep`` question runs.  In the scrubbed, latent-dominated regime
Eq. 10 gives MTTDL ~ alpha ML^2 / (MRL + MDL); with latent faults
negligible, Eq. 9 gives alpha MV^2 / MRV.
"""

import math
from dataclasses import replace

import pytest

from repro.analysis.sweep import sweep_parameter
from repro.core.parameters import PARAMETER_FIELDS, FaultModel


def model(**overrides):
    base = dict(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=0.5,
    )
    base.update(overrides)
    return FaultModel(**base)


#: The paper's Cheetah pair, scrubbed three times a year, at alpha 0.5.
LATENT_DOMINATED = model()
#: Latent faults a hundred million years apart: only visible pairs lose
#: data.
VISIBLE_DOMINATED = model(
    mean_time_to_latent=1e12,
    mean_detect_latent=1.0 / 3.0,
    correlation_factor=1.0,
)


def log_slope(base, parameter, step=0.01):
    """Log-log slope of MTTDL in one parameter.

    Steps down from the operating point, since alpha may not exceed 1.
    """
    value = getattr(base, PARAMETER_FIELDS[parameter])
    values = [value * (1.0 - step), value]
    low, high = sweep_parameter(base, parameter, values).metric("mttdl_hours")
    return math.log(high / low) / math.log(values[1] / values[0])


def most_sensitive(base):
    return max(
        PARAMETER_FIELDS, key=lambda name: abs(log_slope(base, name))
    )


class TestLatentDominated:
    @pytest.mark.parametrize(
        "parameter,low,high",
        [
            # Eq. 10 is linear in alpha ...
            ("alpha", 0.99, 1.01),
            # ... quadratic in ML, less the MV cross-terms Eq. 7 keeps ...
            ("ML", 1.6, 2.05),
            # ... and inverse in MRL + MDL, where MDL dwarfs MRL.
            ("MDL", -1.05, -0.95),
            ("MRL", -0.01, 0.0),
            ("MV", -0.2, 0.2),
            ("MRV", -0.01, 0.0),
        ],
    )
    def test_elasticity(self, parameter, low, high):
        assert low <= log_slope(LATENT_DOMINATED, parameter) <= high

    def test_ml_is_the_most_sensitive_parameter(self):
        assert most_sensitive(LATENT_DOMINATED) == "ML"


class TestVisibleDominated:
    @pytest.mark.parametrize(
        "parameter,low,high",
        [
            # Eq. 9: alpha MV^2 / MRV.
            ("alpha", 0.99, 1.01),
            ("MV", 1.95, 2.05),
            ("MRV", -1.05, -0.95),
            ("ML", -0.01, 0.01),
            ("MDL", -0.01, 0.0),
            ("MRL", -0.01, 0.0),
        ],
    )
    def test_elasticity(self, parameter, low, high):
        assert low <= log_slope(VISIBLE_DOMINATED, parameter) <= high

    def test_mv_is_the_most_sensitive_parameter(self):
        assert most_sensitive(VISIBLE_DOMINATED) == "MV"


class TestSweepParameter:
    @pytest.mark.parametrize(
        "parameter,field", sorted(PARAMETER_FIELDS.items())
    )
    def test_substitutes_only_the_named_field(self, parameter, field):
        values = [0.25, 0.5]
        result = sweep_parameter(
            LATENT_DOMINATED, parameter, values,
            metric=lambda m: m, metric_name="model",
        )
        assert result.metric("model") == [
            replace(LATENT_DOMINATED, **{field: value}) for value in values
        ]

    def test_detection_on_arrival_is_a_valid_point(self):
        instant, scrubbed = sweep_parameter(
            LATENT_DOMINATED, "MDL", [0.0, 1460.0]
        ).metric("mttdl_hours")
        assert math.isfinite(instant)
        assert instant > scrubbed
