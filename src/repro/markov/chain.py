"""Generic continuous-time Markov chain with named states.

States are arbitrary hashable labels.  Transitions carry exponential
rates (per hour).  The chain exposes its infinitesimal generator matrix
``Q`` for the solvers in :mod:`repro.markov.absorbing` and
:mod:`repro.markov.transient`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

State = Hashable


class TransitionError(ValueError):
    """Raised for invalid transition definitions (bad rate, unknown state)."""


class MarkovChain:
    """A continuous-time Markov chain built incrementally.

    Example::

        chain = MarkovChain()
        chain.add_state("healthy")
        chain.add_state("degraded")
        chain.add_state("lost", absorbing=True)
        chain.add_transition("healthy", "degraded", rate=2 * fault_rate)
        chain.add_transition("degraded", "healthy", rate=repair_rate)
        chain.add_transition("degraded", "lost", rate=fault_rate)
    """

    def __init__(self) -> None:
        self._states: List[State] = []
        self._index: Dict[State, int] = {}
        self._absorbing: set = set()
        self._transitions: Dict[Tuple[State, State], float] = {}

    # -- construction ------------------------------------------------------

    def add_state(self, state: State, absorbing: bool = False) -> None:
        """Register a state.  Adding an existing state is an error."""
        if state in self._index:
            raise TransitionError(f"state {state!r} already exists")
        self._index[state] = len(self._states)
        self._states.append(state)
        if absorbing:
            self._absorbing.add(state)

    def add_transition(self, source: State, target: State, rate: float) -> None:
        """Add (or accumulate onto) a transition with an exponential rate.

        Raises:
            TransitionError: for unknown states, self-loops, non-positive
                rates, or transitions out of an absorbing state.
        """
        if source not in self._index:
            raise TransitionError(f"unknown source state {source!r}")
        if target not in self._index:
            raise TransitionError(f"unknown target state {target!r}")
        if source == target:
            raise TransitionError("self-loop transitions are not allowed")
        if rate <= 0:
            raise TransitionError(f"transition rate must be positive, got {rate!r}")
        if source in self._absorbing:
            raise TransitionError(
                f"state {source!r} is absorbing and cannot have outgoing "
                "transitions"
            )
        key = (source, target)
        self._transitions[key] = self._transitions.get(key, 0.0) + rate

    # -- inspection --------------------------------------------------------

    @property
    def states(self) -> List[State]:
        """All states in insertion order."""
        return list(self._states)

    @property
    def absorbing_states(self) -> List[State]:
        """States with no outgoing transitions allowed."""
        return [state for state in self._states if state in self._absorbing]

    @property
    def transient_states(self) -> List[State]:
        """States that are not absorbing."""
        return [state for state in self._states if state not in self._absorbing]

    def is_absorbing(self, state: State) -> bool:
        if state not in self._index:
            raise TransitionError(f"unknown state {state!r}")
        return state in self._absorbing

    def rate(self, source: State, target: State) -> float:
        """The transition rate between two states (0 if none)."""
        return self._transitions.get((source, target), 0.0)

    def exit_rate(self, state: State) -> float:
        """Total rate of leaving ``state``."""
        if state not in self._index:
            raise TransitionError(f"unknown state {state!r}")
        return sum(
            rate for (source, _), rate in self._transitions.items() if source == state
        )

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: State) -> bool:
        return state in self._index

    # -- matrices ----------------------------------------------------------

    def generator_matrix(self) -> np.ndarray:
        """The infinitesimal generator ``Q`` (rows sum to zero)."""
        n = len(self._states)
        q = np.zeros((n, n), dtype=float)
        for (source, target), rate in self._transitions.items():
            i = self._index[source]
            j = self._index[target]
            q[i, j] += rate
        np.fill_diagonal(q, 0.0)
        row_sums = q.sum(axis=1)
        np.fill_diagonal(q, -row_sums)
        return q

    def partitioned_generator(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, List[State], List[State]]:
        """Split ``Q`` into transient-transient and transient-absorbing blocks.

        Returns:
            ``(T, A, transient_states, absorbing_states)`` where ``T`` is
            the square block of rates among transient states (with the
            diagonal holding the negative exit rates) and ``A`` maps
            transient states to absorbing states.
        """
        transient = self.transient_states
        absorbing = self.absorbing_states
        q = self.generator_matrix()
        transient_indices = [self._index[state] for state in transient]
        absorbing_indices = [self._index[state] for state in absorbing]
        t_block = q[np.ix_(transient_indices, transient_indices)]
        if absorbing_indices:
            a_block = q[np.ix_(transient_indices, absorbing_indices)]
        else:
            a_block = np.zeros((len(transient_indices), 0))
        return t_block, a_block, transient, absorbing

    def initial_distribution(
        self, start: Optional[State] = None
    ) -> np.ndarray:
        """Probability vector with all mass on ``start``.

        Defaults to the first state added.
        """
        if not self._states:
            raise TransitionError("chain has no states")
        if start is None:
            start = self._states[0]
        if start not in self._index:
            raise TransitionError(f"unknown state {start!r}")
        vector = np.zeros(len(self._states))
        vector[self._index[start]] = 1.0
        return vector

    def validate(self) -> None:
        """Check structural sanity of the chain.

        Raises:
            TransitionError: if there are no states, or a transient state
                has no outgoing transitions (the chain would get stuck in
                a non-absorbing state forever).
        """
        if not self._states:
            raise TransitionError("chain has no states")
        for state in self.transient_states:
            if self.exit_rate(state) == 0:
                raise TransitionError(
                    f"transient state {state!r} has no outgoing transitions"
                )

    def describe(self) -> str:
        """Readable listing of states and transitions."""
        lines = [f"states: {len(self._states)}"]
        for state in self._states:
            marker = " (absorbing)" if state in self._absorbing else ""
            lines.append(f"  {state!r}{marker}")
        lines.append(f"transitions: {len(self._transitions)}")
        for (source, target), rate in sorted(
            self._transitions.items(), key=lambda item: str(item[0])
        ):
            lines.append(f"  {source!r} -> {target!r} @ {rate:.6g}/h")
        return "\n".join(lines)
