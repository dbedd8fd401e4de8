"""Transient analysis of storage CTMCs.

Where :mod:`repro.markov.absorbing` answers "how long until data loss on
average", this module answers "what is the probability the data has been
lost by time t" — the mission-oriented metric the paper converts its
MTTDL figures into (probability of loss in 50 years).  Because a CTMC
loss process is generally *not* exponential, the transient solution is
the exact counterpart of the paper's `1 - exp(-t / MTTDL)` shortcut.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from repro.markov.chain import MarkovChain, State


def transient_distribution(
    chain: MarkovChain, time: float, start: Optional[State] = None
) -> Dict[State, float]:
    """State distribution at ``time`` hours, starting from ``start``.

    Computed as ``p0 · exp(Q t)``.

    Raises:
        ValueError: if ``time`` is negative.
    """
    if time < 0:
        raise ValueError(f"time must be non-negative, got {time!r}")
    chain.validate()
    q = chain.generator_matrix()
    p0 = chain.initial_distribution(start)
    distribution = p0 @ expm(q * time)
    # Numerical cleanup: clip tiny negatives and renormalise.
    distribution = np.clip(distribution, 0.0, None)
    total = distribution.sum()
    if total > 0:
        distribution = distribution / total
    return dict(zip(chain.states, distribution))


def loss_probability_over_time(
    chain: MarkovChain, time: float, start: Optional[State] = None
) -> float:
    """Probability of having reached any absorbing state by ``time``."""
    distribution = transient_distribution(chain, time, start)
    return float(
        sum(
            probability
            for state, probability in distribution.items()
            if chain.is_absorbing(state)
        )
    )


def survival_curve(
    chain: MarkovChain,
    times: Sequence[float],
    start: Optional[State] = None,
) -> Dict[float, float]:
    """Probability of *not* having lost the data at each time point.

    Evaluates the matrix exponential once per distinct time; times must
    be non-negative but need not be sorted.
    """
    if any(t < 0 for t in times):
        raise ValueError("all times must be non-negative")
    return {
        t: 1.0 - loss_probability_over_time(chain, t, start) for t in times
    }
