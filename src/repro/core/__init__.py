"""Analytic reliability model for replicated long-term storage.

This subpackage is the paper's primary contribution (Section 5): a
window-of-vulnerability model of mirrored and r-way replicated data that
accounts for visible faults, latent faults (with a detection delay), and
correlated faults via a multiplicative correlation factor.
"""

from repro.core.units import HOURS_PER_YEAR, years_to_hours
from repro.core.faults import FaultType, FaultClass, FaultSpec
from repro.core.parameters import FaultModel
from repro.core.probability import (
    exponential_cdf,
    probability_of_loss,
    mttdl_for_loss_probability,
)
from repro.core.wov import (
    prob_second_fault_after_visible,
    prob_second_fault_after_latent,
    second_fault_probabilities,
)
from repro.core.mttdl import (
    double_fault_rate,
    mirrored_mttdl,
    mirrored_mttdl_exact,
    DoubleFaultBreakdown,
    double_fault_breakdown,
)
from repro.core.approximations import (
    visible_dominated_mttdl,
    latent_dominated_mttdl,
    long_window_mttdl,
    OperatingRegime,
    classify_regime,
    best_approximation,
)
from repro.core.replication import replicated_mttdl
from repro.core.redundancy import (
    RedundancyScheme,
    Replication,
    ErasureCode,
    parse_scheme,
    resolve_scheme,
    scheme_loss_rate,
    scheme_mttdl_eq12,
)
from repro.core.scenarios import (
    Scenario,
    cheetah_no_scrub_scenario,
    cheetah_scrubbed_scenario,
    cheetah_correlated_scenario,
    cheetah_negligent_scenario,
    paper_scenarios,
)
from repro.core.strategies import (
    Strategy,
    StrategyOutcome,
    evaluate_strategy,
    evaluate_all_strategies,
    alpha_lower_bound,
    alpha_range_orders_of_magnitude,
)
from repro.core.migration import (
    FormatRisk,
    CAMERA_RAW,
    OPEN_DOCUMENT_FORMAT,
    LEGACY_DATABASE_DUMP,
    probability_uninterpretable,
    review_rate_for_target,
)

__all__ = [
    # units
    "HOURS_PER_YEAR",
    "years_to_hours",
    # faults
    "FaultType",
    "FaultClass",
    "FaultSpec",
    # parameters
    "FaultModel",
    # probability
    "exponential_cdf",
    "probability_of_loss",
    "mttdl_for_loss_probability",
    # WOV
    "prob_second_fault_after_visible",
    "prob_second_fault_after_latent",
    "second_fault_probabilities",
    # MTTDL
    "double_fault_rate",
    "mirrored_mttdl",
    "mirrored_mttdl_exact",
    "DoubleFaultBreakdown",
    "double_fault_breakdown",
    # approximations
    "visible_dominated_mttdl",
    "latent_dominated_mttdl",
    "long_window_mttdl",
    "OperatingRegime",
    "classify_regime",
    "best_approximation",
    # replication
    "replicated_mttdl",
    # redundancy schemes
    "RedundancyScheme",
    "Replication",
    "ErasureCode",
    "parse_scheme",
    "resolve_scheme",
    "scheme_loss_rate",
    "scheme_mttdl_eq12",
    # scenarios
    "Scenario",
    "cheetah_no_scrub_scenario",
    "cheetah_scrubbed_scenario",
    "cheetah_correlated_scenario",
    "cheetah_negligent_scenario",
    "paper_scenarios",
    # strategies
    "Strategy",
    "StrategyOutcome",
    "evaluate_strategy",
    "evaluate_all_strategies",
    "alpha_lower_bound",
    "alpha_range_orders_of_magnitude",
    # migration
    "FormatRisk",
    "CAMERA_RAW",
    "OPEN_DOCUMENT_FORMAT",
    "LEGACY_DATABASE_DUMP",
    "probability_uninterpretable",
    "review_rate_for_target",
]
