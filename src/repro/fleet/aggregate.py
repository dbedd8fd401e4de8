"""Streaming, mergeable aggregation of fleet chunk results.

A decades-scale fleet run can cover hundreds of thousands of members
across many worker processes; nothing downstream needs the per-member
trajectories, only the curves the paper's questions are phrased in —
what fraction of the fleet survives each year, when losses concentrate,
what the operation cost.  :class:`FleetTally` therefore keeps fixed-size
per-year histograms and counters that

* **stream**: chunks fold in one at a time (:meth:`add`) without
  retaining trial arrays, and
* **merge**: two tallies over disjoint members combine
  (:meth:`merge`) associatively and commutatively, so parallel workers
  can reduce in any order and a cached chunk re-enters a future run as
  cheaply as a fresh one.

The same contract was retrofitted to the rare-event machinery:
:meth:`repro.simulation.rare_event.WeightedLossTally.merge` merges
importance-sampling tallies under the identical sum-of-moments rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.fleet.population import FleetChunkResult
from repro.simulation.monte_carlo import MonteCarloEstimate
from repro.simulation.rare_event import RULE_OF_THREE


@dataclass
class FleetTally:
    """Mergeable summary of simulated fleet members.

    Attributes:
        year_bins: number of calendar-year bins (horizon years plus one
            shared overflow bin).
        members: members tallied so far.
        losses: members that lost their data.
        loss_year_counts: losses per calendar year.
        repair_year_counts: completed repairs per calendar year.
        repairs: total completed repairs.
        shock_events: correlated shocks observed, summed over chunks
            (chunks of one fleet share a schedule and each count it in
            full; :meth:`FleetResult.summary` divides the sum back out).
        shock_faults: replica faults those shocks caused.
        migration_losses: members lost to migration sweeps.
        sweeps: lock-step kernel sweeps consumed.
    """

    year_bins: int
    members: int = 0
    losses: int = 0
    loss_year_counts: Optional[np.ndarray] = None
    repair_year_counts: Optional[np.ndarray] = None
    repairs: int = 0
    shock_events: int = 0
    shock_faults: int = 0
    migration_losses: int = 0
    sweeps: int = 0

    def __post_init__(self) -> None:
        if self.year_bins < 1:
            raise ValueError("year_bins must be at least 1")
        if self.loss_year_counts is None:
            self.loss_year_counts = np.zeros(self.year_bins, dtype=np.int64)
        else:
            self.loss_year_counts = np.asarray(
                self.loss_year_counts, dtype=np.int64
            )
        if self.repair_year_counts is None:
            self.repair_year_counts = np.zeros(self.year_bins, dtype=np.int64)
        else:
            self.repair_year_counts = np.asarray(
                self.repair_year_counts, dtype=np.int64
            )
        for name in ("loss_year_counts", "repair_year_counts"):
            if getattr(self, name).shape != (self.year_bins,):
                raise ValueError(f"{name} must have year_bins entries")

    # -- accumulation ------------------------------------------------------

    def add(self, chunk: FleetChunkResult) -> None:
        """Fold one chunk's outcome into the tally."""
        if chunk.repair_year_counts.shape != (self.year_bins,):
            raise ValueError("chunk year bins do not match the tally")
        self.members += chunk.members
        self.losses += int(np.count_nonzero(chunk.lost))
        self.loss_year_counts += chunk.loss_year_counts(self.year_bins)
        self.repair_year_counts += chunk.repair_year_counts
        self.repairs += chunk.repairs
        self.shock_events += chunk.shock_events
        self.shock_faults += chunk.shock_faults
        self.migration_losses += chunk.migration_losses
        self.sweeps += chunk.sweeps

    def merge(self, other: "FleetTally") -> "FleetTally":
        """Combine two tallies over disjoint member sets.

        Every field is a plain sum, so ``a.merge(b).merge(c)`` equals
        ``a.merge(b.merge(c))`` and any permutation thereof — the
        property the runner's any-order parallel reduction relies on.
        """
        if other.year_bins != self.year_bins:
            raise ValueError("cannot merge tallies with different year bins")
        return FleetTally(
            year_bins=self.year_bins,
            members=self.members + other.members,
            losses=self.losses + other.losses,
            loss_year_counts=self.loss_year_counts + other.loss_year_counts,
            repair_year_counts=(
                self.repair_year_counts + other.repair_year_counts
            ),
            repairs=self.repairs + other.repairs,
            shock_events=self.shock_events + other.shock_events,
            shock_faults=self.shock_faults + other.shock_faults,
            migration_losses=self.migration_losses + other.migration_losses,
            sweeps=self.sweeps + other.sweeps,
        )

    # -- derived curves ----------------------------------------------------

    @property
    def loss_fraction(self) -> float:
        if self.members == 0:
            return 0.0
        return self.losses / self.members

    def survival_curve(self) -> np.ndarray:
        """Fraction of members alive at each year boundary.

        Index ``y`` is the fraction still holding data at the start of
        year ``y``; index 0 is 1.0 by construction.  The curve spans
        the simulated horizon only — the trailing overflow bin (shared
        clip-safety of the histograms) is not a simulated year and is
        excluded.
        """
        if self.members == 0:
            raise ValueError("no members tallied")
        cumulative = np.cumsum(self.loss_year_counts[: self.year_bins - 1])
        curve = np.empty(self.year_bins)
        curve[0] = 1.0
        curve[1:] = 1.0 - cumulative / self.members
        return curve

    def loss_fraction_by_year(self) -> np.ndarray:
        """Cumulative fraction of members lost by the end of each year
        of the simulated horizon (overflow bin excluded)."""
        if self.members == 0:
            raise ValueError("no members tallied")
        return (
            np.cumsum(self.loss_year_counts[: self.year_bins - 1])
            / self.members
        )

    def loss_estimate(self) -> MonteCarloEstimate:
        """The end-of-horizon loss fraction as a binomial estimate.

        This is what the stationary-timeline regression anchor compares
        against :func:`~repro.simulation.monte_carlo.estimate_loss_probability`.
        A zero-loss fleet reports the rule-of-three pseudo-error, so the
        95% upper bound is the defensible ``3 / members`` instead of a
        vanishing variance floor.
        """
        if self.members == 0:
            raise ValueError("no members tallied")
        p = self.loss_fraction
        if self.losses in (0, self.members):
            # Degenerate proportions carry no variance information; the
            # rule-of-three pseudo-error keeps the interval honest.
            std_error = (RULE_OF_THREE / self.members) / 1.96
        else:
            std_error = math.sqrt(p * (1.0 - p) / self.members)
        return MonteCarloEstimate(
            mean=p,
            std_error=std_error,
            trials=self.members,
            censored=self.members - self.losses,
            clamp_hi=1.0,
        )

    # -- serialisation (for the chunk cache) -------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "year_bins": self.year_bins,
            "members": self.members,
            "losses": self.losses,
            "loss_year_counts": self.loss_year_counts.tolist(),
            "repair_year_counts": self.repair_year_counts.tolist(),
            "repairs": self.repairs,
            "shock_events": self.shock_events,
            "shock_faults": self.shock_faults,
            "migration_losses": self.migration_losses,
            "sweeps": self.sweeps,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "FleetTally":
        return FleetTally(
            year_bins=int(payload["year_bins"]),
            members=int(payload["members"]),
            losses=int(payload["losses"]),
            loss_year_counts=np.asarray(
                payload["loss_year_counts"], dtype=np.int64
            ),
            repair_year_counts=np.asarray(
                payload["repair_year_counts"], dtype=np.int64
            ),
            repairs=int(payload["repairs"]),
            shock_events=int(payload["shock_events"]),
            shock_faults=int(payload["shock_faults"]),
            migration_losses=int(payload["migration_losses"]),
            sweeps=int(payload["sweeps"]),
        )

    @staticmethod
    def from_chunk(chunk: FleetChunkResult) -> "FleetTally":
        """A fresh tally holding exactly one chunk."""
        tally = FleetTally(year_bins=chunk.repair_year_counts.size)
        tally.add(chunk)
        return tally
