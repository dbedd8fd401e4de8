"""Continuous-time Markov chain substrate.

The paper's closed-form MTTDL expressions are approximations.  This
subpackage provides an exact alternative: build the replicated-storage
system as a continuous-time Markov chain with an absorbing "data lost"
state and solve for the mean time to absorption, the transient loss
probability over a mission, and the stationary behaviour of the
non-absorbing dynamics.  Experiments E6 and E11 use it to validate the
closed forms.
"""

from repro.markov.chain import MarkovChain, TransitionError
from repro.markov.absorbing import (
    mean_time_to_absorption,
    expected_visits,
)
from repro.markov.transient import (
    transient_distribution,
    loss_probability_over_time,
    survival_curve,
)
from repro.markov.builders import (
    build_mirrored_chain,
    build_replicated_chain,
    build_scheme_chain,
    build_scrubbed_chain,
    mirrored_mttdl_markov,
    replicated_mttdl_markov,
    scheme_mttdl_markov,
)

__all__ = [
    "MarkovChain",
    "TransitionError",
    "mean_time_to_absorption",
    "expected_visits",
    "transient_distribution",
    "loss_probability_over_time",
    "survival_curve",
    "build_mirrored_chain",
    "build_replicated_chain",
    "build_scheme_chain",
    "build_scrubbed_chain",
    "mirrored_mttdl_markov",
    "replicated_mttdl_markov",
    "scheme_mttdl_markov",
]
