"""Absorbing-chain analysis: mean time to absorption and hitting
probabilities.

For a CTMC partitioned into transient states (generator block ``T``) and
absorbing states (block ``A``), starting from distribution ``p0`` over
the transient states:

* the expected total time spent in each transient state before
  absorption is ``t = -p0 · T^{-1}``,
* the mean time to absorption is the sum of that vector,
* the probability of ending in each absorbing state is ``t · A``
  normalised by the rates in ``A``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.markov.chain import MarkovChain, State, TransitionError


def _start_vector(
    chain: MarkovChain, start: Optional[State]
) -> np.ndarray:
    """Distribution over the transient states with mass on ``start``."""
    transient = chain.transient_states
    if not transient:
        raise TransitionError("chain has no transient states")
    if start is None:
        start = transient[0]
    if chain.is_absorbing(start):
        raise TransitionError(f"start state {start!r} is absorbing")
    vector = np.zeros(len(transient))
    vector[transient.index(start)] = 1.0
    return vector


def expected_visits(
    chain: MarkovChain, start: Optional[State] = None
) -> Dict[State, float]:
    """Expected total time (hours) spent in each transient state.

    Computed as ``-p0 · T^{-1}``.

    Raises:
        TransitionError: if the chain has no absorbing state reachable
            from the start (the linear system is singular).
    """
    chain.validate()
    t_block, _, transient, absorbing = chain.partitioned_generator()
    if not absorbing:
        raise TransitionError("chain has no absorbing states")
    p0 = _start_vector(chain, start)
    try:
        # Solve t = -p0 T^{-1}  <=>  T' t' = -p0'
        times = np.linalg.solve(t_block.T, -p0)
    except np.linalg.LinAlgError as error:
        raise TransitionError(
            "transient block is singular; an absorbing state may be "
            "unreachable from the start state"
        ) from error
    return dict(zip(transient, times))


def mean_time_to_absorption(
    chain: MarkovChain, start: Optional[State] = None
) -> float:
    """Mean time (hours) until the chain reaches any absorbing state.

    This is the exact MTTDL when the absorbing states represent data
    loss.
    """
    visits = expected_visits(chain, start)
    return float(sum(visits.values()))
