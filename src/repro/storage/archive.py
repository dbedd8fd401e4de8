"""Collection-level archive model.

The paper's motivating workloads (web mail, photo sharing, web archives)
are collections of very many small objects, each accessed very rarely —
which is precisely why detection cannot be left to user accesses
(Section 6.2).  This module models a collection as a population of
objects spread over replicated storage and answers collection-level
questions the per-unit MTTDL does not directly address:

* the expected number of objects lost over a mission,
* the probability that the collection survives intact,
* the audit bandwidth a target detection latency needs,
* whether relying on user accesses would audit the average object often
  enough (it does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.probability import probability_of_loss
from repro.core.units import HOURS_PER_YEAR


@dataclass(frozen=True)
class ArchiveCollection:
    """A preserved collection of many independent objects.

    Attributes:
        object_count: number of preserved objects.
        mean_object_size_mb: mean object size in megabytes.
        accesses_per_object_year: mean user accesses per object per year
            (archival collections sit well below 1).
        replicas: number of full copies of the collection.
    """

    object_count: int
    mean_object_size_mb: float
    accesses_per_object_year: float
    replicas: int = 2

    def __post_init__(self) -> None:
        if self.object_count < 1:
            raise ValueError("object_count must be at least 1")
        if self.mean_object_size_mb <= 0:
            raise ValueError("mean_object_size_mb must be positive")
        if self.accesses_per_object_year < 0:
            raise ValueError("accesses_per_object_year must be non-negative")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")

    @property
    def total_size_tb(self) -> float:
        """Total collection size in terabytes (per replica)."""
        return self.object_count * self.mean_object_size_mb / 1e6

    @property
    def mean_access_interval_hours(self) -> float:
        """Mean hours between accesses to any given object."""
        if self.accesses_per_object_year == 0:
            return float("inf")
        return HOURS_PER_YEAR / self.accesses_per_object_year


@dataclass(frozen=True)
class CollectionReliability:
    """Collection-level reliability summary.

    Attributes:
        per_object_mttdl_hours: MTTDL of one object's replica group.
        per_object_loss_probability: probability one object is lost
            within the mission.
        expected_objects_lost: expected number of lost objects.
        collection_survival_probability: probability no object is lost.
    """

    per_object_mttdl_hours: float
    per_object_loss_probability: float
    expected_objects_lost: float
    collection_survival_probability: float


def collection_reliability(
    collection: ArchiveCollection,
    object_model: FaultModel,
    mission_years: float = 50.0,
) -> CollectionReliability:
    """Collection-level reliability from a per-object fault model.

    Objects are treated as independent replica groups sharing the same
    parameters (the paper's model is explicitly agnostic to the unit of
    replication).  For collections of millions of objects even a tiny
    per-object loss probability produces expected losses well above
    zero — the reason the paper insists on aggressive auditing.
    """
    if mission_years <= 0:
        raise ValueError("mission_years must be positive")
    mttdl = mirrored_mttdl(object_model)
    per_object_loss = probability_of_loss(mttdl, mission_years * HOURS_PER_YEAR)
    expected_lost = per_object_loss * collection.object_count
    # Survival of the whole collection: every object survives.
    if per_object_loss >= 1.0:
        survival = 0.0
    else:
        survival = math.exp(collection.object_count * math.log1p(-per_object_loss))
    return CollectionReliability(
        per_object_mttdl_hours=mttdl,
        per_object_loss_probability=per_object_loss,
        expected_objects_lost=expected_lost,
        collection_survival_probability=survival,
    )


def on_access_detection_latency(collection: ArchiveCollection) -> float:
    """Mean detection latency if only user accesses check the data."""
    return collection.mean_access_interval_hours


def required_audit_bandwidth(
    collection: ArchiveCollection, target_mdl_hours: float
) -> float:
    """Audit bandwidth (MB/s per replica) needed for a target latency.

    Raises:
        ValueError: for a non-positive target.
    """
    if target_mdl_hours <= 0:
        raise ValueError("target_mdl_hours must be positive")
    total_mb = collection.object_count * collection.mean_object_size_mb
    pass_hours = 2.0 * target_mdl_hours
    return total_mb / (pass_hours * 3600.0)


def access_based_detection_is_sufficient(
    collection: ArchiveCollection,
    object_model: FaultModel,
    mission_years: float = 50.0,
    acceptable_loss_fraction: float = 0.001,
) -> bool:
    """Would relying on user accesses keep losses acceptable?

    Substitutes the access interval for ``MDL`` and checks whether the
    expected fraction of lost objects stays below the acceptable level.
    For realistic archival access rates the answer is no, which is the
    paper's argument for proactive auditing.
    """
    if not 0 < acceptable_loss_fraction < 1:
        raise ValueError("acceptable_loss_fraction must be in (0, 1)")
    access_mdl = on_access_detection_latency(collection)
    if access_mdl == float("inf"):
        access_mdl = object_model.mean_time_to_latent
    adjusted = object_model.with_detection_time(access_mdl)
    reliability = collection_reliability(collection, adjusted, mission_years)
    return (
        reliability.expected_objects_lost / collection.object_count
        <= acceptable_loss_fraction
    )


def audit_rate_for_loss_budget(
    collection: ArchiveCollection,
    object_model: FaultModel,
    mission_years: float = 50.0,
    acceptable_loss_fraction: float = 0.001,
    max_audits_per_year: float = 365.0,
) -> Optional[float]:
    """Smallest audits-per-year keeping expected losses within budget.

    Returns None when even ``max_audits_per_year`` cannot meet the
    budget.  Uses bisection on the audit rate (losses are monotone in
    the detection latency).
    """
    if not 0 < acceptable_loss_fraction < 1:
        raise ValueError("acceptable_loss_fraction must be in (0, 1)")

    def loss_fraction(audits_per_year: float) -> float:
        adjusted = object_model.with_audit_rate(audits_per_year)
        reliability = collection_reliability(collection, adjusted, mission_years)
        return reliability.expected_objects_lost / collection.object_count

    if loss_fraction(max_audits_per_year) > acceptable_loss_fraction:
        return None
    if loss_fraction(0.0) <= acceptable_loss_fraction:
        return 0.0
    low, high = 0.0, max_audits_per_year
    for _ in range(64):
        mid = (low + high) / 2.0
        if loss_fraction(mid) <= acceptable_loss_fraction:
            high = mid
        else:
            low = mid
    return high
