"""Declarative multi-decade fleet timelines.

The paper's core argument is that long-term storage reliability is a
*decades* problem: media generations age out and get refreshed, formats
go obsolete and must be migrated before the readers disappear, hazard
rates drift as hardware ages, and the threats that matter most strike
many archives at once (Section 3's correlated threats).  A
:class:`FleetTimeline` captures exactly that non-stationary story as
data:

* a sequence of :class:`FleetEpoch` s — each an operating point
  (:class:`~repro.core.parameters.FaultModel`, audit rate, aging hazard
  multiplier, per-member annual cost, regional shock exposure) holding
  from its ``start_year`` until the next epoch;
* scheduled :class:`MigrationEvent` s — format/media migration sweeps
  driven by :class:`~repro.core.migration.FormatRisk`, each carrying the
  migration-window risk of losing interpretability while the sweep
  races the endangered-to-dead clock;
* builders that assemble common timelines: a stationary control, a
  Kryder-priced generation-refresh schedule with late-life aging
  epochs, and the hand-off from the budget planner
  (:func:`timeline_from_recommendation` turns an
  ``optimize.recommend`` output into the epoch-0 plan of a fleet run).

Timelines are plain data: they serialise to JSON (``to_json`` /
``from_json``) so the ``cli.py fleet`` subcommand and the result cache
can treat them as content-addressed inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.migration import FormatRisk
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.storage.costs import kryder_declined_cost, scheme_storage_cost
from repro.storage.site import ReplicaPlacement, assess_independence
from repro.threats.correlation_sources import correlation_pressure
from repro.threats.taxonomy import ThreatProfile


def _json_object(value: object, path: str) -> Dict[str, object]:
    """``value`` when it is a JSON object; otherwise a ``ValueError``
    naming its JSON ``path``, so a malformed plan fails with a message
    instead of an ``AttributeError`` deep inside a ``from_dict``."""
    if not isinstance(value, dict):
        raise ValueError(f"'{path}' must be a JSON object")
    return value


@dataclass(frozen=True)
class RegionalShockModel:
    """Fleet-wide correlated shock exposure during one epoch.

    A shock is one regional event (flood, ransomware wave, administrative
    collapse — Section 3's correlated threat classes): it strikes one of
    ``regions`` equal slices of the fleet and, within every member of
    that slice, faults each replica independently with probability
    ``replica_penetration``.  Members are coupled through the shared
    event; replicas within a member stay as independent as their
    placement makes them — which is why
    :func:`shock_model_from_threats` derives the penetration from
    :mod:`repro.storage.site`'s independence assessment.

    Attributes:
        rate_per_year: fleet-wide shock arrival rate (Poisson).
        regions: number of equal regional slices of the fleet; each
            shock strikes exactly one.
        replica_penetration: probability a shock faults any given
            replica of a hit member.
        latent: whether shock damage is latent (silent corruption) or
            visible (destruction); visible by default.
    """

    rate_per_year: float
    regions: int = 4
    replica_penetration: float = 0.5
    latent: bool = False

    def __post_init__(self) -> None:
        if self.rate_per_year < 0:
            raise ValueError("rate_per_year must be non-negative")
        if self.regions < 1:
            raise ValueError("regions must be at least 1")
        if not 0 <= self.replica_penetration <= 1:
            raise ValueError("replica_penetration must be in [0, 1]")

    def as_dict(self) -> Dict[str, object]:
        return {
            "rate_per_year": self.rate_per_year,
            "regions": self.regions,
            "replica_penetration": self.replica_penetration,
            "latent": self.latent,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "RegionalShockModel":
        return RegionalShockModel(
            rate_per_year=float(payload["rate_per_year"]),
            regions=int(payload["regions"]),
            replica_penetration=float(payload["replica_penetration"]),
            latent=bool(payload.get("latent", False)),
        )


def shock_model_from_threats(
    profiles: Iterable[ThreatProfile],
    placement: Optional[ReplicaPlacement] = None,
    regions: int = 4,
) -> RegionalShockModel:
    """Derive a shock model from threat profiles and a placement.

    The fleet-wide rate is the sum of the profiles' occurrence rates;
    the per-replica penetration is the rate-weighted correlation reach
    of the mix (:func:`~repro.threats.correlation_sources.correlation_pressure`),
    attenuated by how much shared fate the placement actually leaves
    (:func:`~repro.storage.site.assess_independence` — a fully
    diversified placement shares nothing, so a regional event reaches
    at most one replica and the penetration collapses toward zero).
    """
    chosen = list(profiles)
    pressure = correlation_pressure(chosen)
    rate = sum(
        HOURS_PER_YEAR / profile.mean_time_to_occurrence
        for profile in chosen
    )
    penetration = pressure.weighted_reach
    if placement is not None:
        penetration *= assess_independence(placement).mean_shared_fraction
    return RegionalShockModel(
        rate_per_year=rate,
        regions=regions,
        replica_penetration=penetration,
    )


@dataclass(frozen=True)
class MigrationEvent:
    """One scheduled format/media migration sweep.

    The sweep converts every member's collection at ``year``; while it
    runs, the format's endangered-to-dead clock
    (:class:`~repro.core.migration.FormatRisk`) races it, so each member
    independently loses interpretability with the migration-window
    probability ``sweep / (sweep + mean_endangered_to_dead)`` — the
    per-endangerment death probability of
    :func:`repro.core.migration.probability_uninterpretable` with the
    review delay collapsed to zero (the migration is scheduled, not
    discovered).

    Attributes:
        year: when the sweep runs, in years from the timeline start.
        risk: the format family being migrated away from.
        cost_per_member: dollars each member spends on the sweep.
        label: display label.
    """

    year: float
    risk: FormatRisk
    cost_per_member: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.year < 0:
            raise ValueError("year must be non-negative")
        if self.cost_per_member < 0:
            raise ValueError("cost_per_member must be non-negative")

    @property
    def loss_probability(self) -> float:
        """Per-member probability the sweep loses the race to obsolescence."""
        sweep = self.risk.migration_sweep_years
        return sweep / (sweep + self.risk.mean_years_endangered_to_dead)

    def as_dict(self) -> Dict[str, object]:
        return {
            "year": self.year,
            "risk": {
                "name": self.risk.name,
                "mean_years_to_endangered": self.risk.mean_years_to_endangered,
                "mean_years_endangered_to_dead": (
                    self.risk.mean_years_endangered_to_dead
                ),
                "migration_sweep_years": self.risk.migration_sweep_years,
                "proprietary": self.risk.proprietary,
            },
            "cost_per_member": self.cost_per_member,
            "label": self.label,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "MigrationEvent":
        return _migration_from_dict(payload, "migration")


def _migration_from_dict(payload: object, path: str) -> MigrationEvent:
    payload = _json_object(payload, path)
    risk = _json_object(payload["risk"], f"{path}.risk")
    return MigrationEvent(
        year=float(payload["year"]),
        risk=FormatRisk(
            name=str(risk["name"]),
            mean_years_to_endangered=float(risk["mean_years_to_endangered"]),
            mean_years_endangered_to_dead=float(
                risk["mean_years_endangered_to_dead"]
            ),
            migration_sweep_years=float(risk["migration_sweep_years"]),
            proprietary=bool(risk.get("proprietary", False)),
        ),
        cost_per_member=float(payload.get("cost_per_member", 0.0)),
        label=str(payload.get("label", "")),
    )


@dataclass(frozen=True)
class FleetEpoch:
    """One constant-rate span of a fleet timeline.

    Attributes:
        start_year: when the epoch begins (years from timeline start);
            it lasts until the next epoch's start or the horizon.
        model: the per-member fault-model operating point.
        audits_per_year: overrides the model-derived audit interval.
        hazard_multiplier: piecewise aging — both fault rates are
            multiplied by this (1 = nominal, >1 late in a media
            generation's life, the piecewise-constant stand-in for the
            rising edge of a Weibull hazard).
        annual_cost_per_member: deterministic dollars per member-year
            (hardware amortisation, power, admin, audits).
        cost_per_repair: dollars per simulated repair event.
        shocks: regional correlated-shock exposure, if any.
        label: display label (e.g. ``"gen-1 aged"``).
    """

    start_year: float
    model: FaultModel
    audits_per_year: Optional[float] = None
    hazard_multiplier: float = 1.0
    annual_cost_per_member: float = 0.0
    cost_per_repair: float = 10.0
    shocks: Optional[RegionalShockModel] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.start_year < 0:
            raise ValueError("start_year must be non-negative")
        if self.hazard_multiplier <= 0:
            raise ValueError("hazard_multiplier must be positive")
        if self.annual_cost_per_member < 0:
            raise ValueError("annual_cost_per_member must be non-negative")
        if self.cost_per_repair < 0:
            raise ValueError("cost_per_repair must be non-negative")
        if self.audits_per_year is not None and self.audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")

    def effective_model(self) -> FaultModel:
        """The epoch's model with the aging multiplier folded in."""
        if self.hazard_multiplier == 1.0:
            return self.model
        return self.model.scaled(1.0 / self.hazard_multiplier)

    def as_dict(self) -> Dict[str, object]:
        return {
            "start_year": self.start_year,
            "model": self.model.as_dict(),
            "audits_per_year": self.audits_per_year,
            "hazard_multiplier": self.hazard_multiplier,
            "annual_cost_per_member": self.annual_cost_per_member,
            "cost_per_repair": self.cost_per_repair,
            "shocks": self.shocks.as_dict() if self.shocks else None,
            "label": self.label,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "FleetEpoch":
        return _epoch_from_dict(payload, "epoch")


def _epoch_from_dict(payload: object, path: str) -> FleetEpoch:
    payload = _json_object(payload, path)
    audits = payload.get("audits_per_year")
    shocks = payload.get("shocks")
    return FleetEpoch(
        start_year=float(payload["start_year"]),
        model=FaultModel.from_dict(
            _json_object(payload["model"], f"{path}.model")
        ),
        audits_per_year=None if audits is None else float(audits),
        hazard_multiplier=float(payload.get("hazard_multiplier", 1.0)),
        annual_cost_per_member=float(
            payload.get("annual_cost_per_member", 0.0)
        ),
        cost_per_repair=float(payload.get("cost_per_repair", 10.0)),
        shocks=(
            RegionalShockModel.from_dict(
                _json_object(shocks, f"{path}.shocks")
            )
            if shocks
            else None
        ),
        label=str(payload.get("label", "")),
    )


@dataclass(frozen=True)
class FleetTimeline:
    """A multi-decade plan for a fleet of identical archive members.

    Attributes:
        years: simulation horizon in years.
        epochs: constant-rate spans, ordered by ``start_year``; the
            first must start at 0.
        migrations: scheduled migration sweeps within the horizon.
        replicas: replication degree of every member (constant across
            the timeline — changing it is a refresh, not a mid-flight
            mutation of live members).
        scheme: optional (n, k) redundancy scheme for every member; when
            set, ``replicas`` is forced to the fragment count ``n`` and
            a member is lost at ``n - k + 1`` simultaneous faults.
        label: display label for reports.
    """

    years: float
    epochs: Tuple[FleetEpoch, ...]
    migrations: Tuple[MigrationEvent, ...] = ()
    replicas: int = 2
    scheme: Optional[RedundancyScheme] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.scheme is not None:
            object.__setattr__(self, "replicas", self.scheme.n)
        if self.years <= 0:
            raise ValueError("years must be positive")
        if not self.epochs:
            raise ValueError("at least one epoch is required")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        starts = [epoch.start_year for epoch in self.epochs]
        if starts[0] != 0:
            raise ValueError("the first epoch must start at year 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("epoch start years must be strictly increasing")
        if starts[-1] >= self.years:
            raise ValueError("every epoch must start before the horizon")
        for migration in self.migrations:
            if migration.year >= self.years:
                raise ValueError("migrations must occur before the horizon")

    # -- structure ---------------------------------------------------------

    @property
    def horizon_hours(self) -> float:
        return self.years * HOURS_PER_YEAR

    def epoch_at(self, year: float) -> FleetEpoch:
        """The epoch in force at ``year``."""
        if not 0 <= year <= self.years:
            raise ValueError("year must be within the horizon")
        current = self.epochs[0]
        for epoch in self.epochs[1:]:
            if epoch.start_year <= year:
                current = epoch
            else:
                break
        return current

    def spans_hours(self) -> List[Tuple[FleetEpoch, float, float]]:
        """``(epoch, start_hour, end_hour)`` for every epoch."""
        spans = []
        for index, epoch in enumerate(self.epochs):
            start = epoch.start_year * HOURS_PER_YEAR
            if index + 1 < len(self.epochs):
                end = self.epochs[index + 1].start_year * HOURS_PER_YEAR
            else:
                end = self.horizon_hours
            spans.append((epoch, start, end))
        return spans

    # -- deterministic cost side -------------------------------------------

    def year_bins(self) -> int:
        """Number of calendar-year bins the horizon spans (plus one
        overflow bin shared with the simulator's event histograms)."""
        return int(math.ceil(self.years)) + 1

    def base_cost_by_year(self) -> np.ndarray:
        """Deterministic per-member cost of each calendar year.

        Epoch annual costs prorated by overlap with each year bin, plus
        migration sweep costs in the year they run.  Simulated repair
        costs are added by the runner from the observed repair counts.
        One entry per simulated year (``ceil(years)``) — the histogram
        overflow bin is not a year and carries no cost.
        """
        years = self.year_bins() - 1
        costs = np.zeros(years)
        for epoch, start_hour, end_hour in self.spans_hours():
            start_year = start_hour / HOURS_PER_YEAR
            end_year = end_hour / HOURS_PER_YEAR
            for year in range(int(math.floor(start_year)), years):
                overlap = min(end_year, year + 1.0) - max(start_year, float(year))
                if overlap <= 0:
                    break
                costs[year] += epoch.annual_cost_per_member * overlap
        for migration in self.migrations:
            costs[min(int(migration.year), years - 1)] += (
                migration.cost_per_member
            )
        return costs

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "years": self.years,
            "replicas": self.replicas,
            "label": self.label,
            "epochs": [epoch.as_dict() for epoch in self.epochs],
            "migrations": [m.as_dict() for m in self.migrations],
        }
        # Conditional so replication timelines keep their historical
        # content hash (and hence their chunk-cache keys).
        if self.scheme is not None:
            payload["scheme"] = self.scheme.as_dict()
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "FleetTimeline":
        scheme = payload.get("scheme")
        return FleetTimeline(
            years=float(payload["years"]),
            replicas=int(payload.get("replicas", 2)),
            scheme=(
                RedundancyScheme.from_dict(
                    _json_object(scheme, "timeline.scheme")
                )
                if scheme is not None
                else None
            ),
            label=str(payload.get("label", "")),
            epochs=tuple(
                _epoch_from_dict(epoch, f"timeline.epochs[{index}]")
                for index, epoch in enumerate(payload["epochs"])
            ),
            migrations=tuple(
                _migration_from_dict(m, f"timeline.migrations[{index}]")
                for index, m in enumerate(payload.get("migrations", ()))
            ),
        )

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise; also writes to ``path`` when given."""
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @staticmethod
    def from_json(source: Union[str, Path]) -> "FleetTimeline":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return FleetTimeline.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Hex digest of the full timeline definition."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def stationary_timeline(
    model: FaultModel,
    years: float,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    annual_cost_per_member: float = 0.0,
    scheme: Optional[RedundancyScheme] = None,
    label: str = "stationary",
) -> FleetTimeline:
    """A single-epoch control timeline — the regression anchor.

    A stationary timeline is exactly the system the point estimators
    already model, so its fleet loss fraction must agree with
    :func:`~repro.simulation.monte_carlo.estimate_loss_probability`
    within Monte-Carlo noise (benchmark e17 asserts this).
    """
    return FleetTimeline(
        years=years,
        replicas=replicas,
        scheme=scheme,
        label=label,
        epochs=(
            FleetEpoch(
                start_year=0.0,
                model=model,
                audits_per_year=audits_per_year,
                annual_cost_per_member=annual_cost_per_member,
            ),
        ),
    )


def generation_refresh_timeline(
    medium: str = "drive:cheetah",
    years: float = 50.0,
    refresh_every_years: float = 15.0,
    replicas: int = 2,
    audits_per_year: float = 12.0,
    dataset_tb_per_member: float = 1.0,
    kryder_decline: float = 0.15,
    aging_onset_fraction: float = 0.6,
    aging_hazard_multiplier: float = 3.0,
    placement: str = "multi",
    site_cost_per_year: float = 0.0,
    shocks: Optional[RegionalShockModel] = None,
    migrations: Sequence[MigrationEvent] = (),
    scheme: Optional[RedundancyScheme] = None,
    label: str = "",
) -> FleetTimeline:
    """A Kryder-priced media-generation refresh schedule.

    Every ``refresh_every_years`` the fleet re-buys its hardware: the
    new generation's purchase price declines Kryder-style
    (:func:`~repro.storage.costs.kryder_declined_cost`), while late in
    each generation's life — past ``aging_onset_fraction`` of it — the
    fault rates rise by ``aging_hazard_multiplier`` (the
    piecewise-constant rendering of an aging Weibull hazard).  Each
    generation therefore contributes two epochs, fresh and aged, so a
    50-year / 15-year-refresh timeline has seven.

    The medium is resolved against the drive/media catalogs
    (``drive:<id>`` / ``media:<id>``), its fault model and cost model
    derived exactly as the planner's design space does, with the
    placement style setting the correlation factor.
    """
    # Resolved through the planner's catalog front-end so a fleet medium
    # and an optimizer medium can never diverge in interpretation.
    from repro.optimize.space import placement_alpha, resolve_medium

    if years <= 0:
        raise ValueError("years must be positive")
    if refresh_every_years <= 0:
        raise ValueError("refresh_every_years must be positive")
    if not 0 < aging_onset_fraction <= 1:
        raise ValueError("aging_onset_fraction must be in (0, 1]")
    if aging_hazard_multiplier < 1:
        raise ValueError("aging_hazard_multiplier must be at least 1")
    if dataset_tb_per_member <= 0:
        raise ValueError("dataset_tb_per_member must be positive")

    if scheme is not None:
        replicas = scheme.n
    effective = (
        scheme if scheme is not None else RedundancyScheme(n=replicas, k=1)
    )
    resolved = resolve_medium(medium)
    alpha = placement_alpha(placement, replicas) if replicas >= 2 else 1.0
    model = resolved.fault_model(audits_per_year, alpha)
    cost_model = resolved.cost_model(site_cost_per_year)
    sites = replicas if placement == "multi" else 1

    epochs: List[FleetEpoch] = []
    generations = int(math.ceil(years / refresh_every_years))
    for generation in range(generations):
        start = generation * refresh_every_years
        declined = kryder_declined_cost(
            cost_model.hardware_cost_per_tb, start, kryder_decline
        )
        annual_cost = scheme_storage_cost(
            replace(cost_model, hardware_cost_per_tb=declined),
            dataset_tb=dataset_tb_per_member,
            scheme=effective,
            audits_per_fragment_year=audits_per_year,
            independent_sites=sites,
        ).total_per_year
        aging_start = start + aging_onset_fraction * refresh_every_years
        epochs.append(
            FleetEpoch(
                start_year=start,
                model=model,
                audits_per_year=audits_per_year,
                annual_cost_per_member=annual_cost,
                shocks=shocks,
                label=f"gen-{generation} fresh",
            )
        )
        if aging_start < min(start + refresh_every_years, years):
            epochs.append(
                FleetEpoch(
                    start_year=aging_start,
                    model=model,
                    audits_per_year=audits_per_year,
                    hazard_multiplier=aging_hazard_multiplier,
                    annual_cost_per_member=annual_cost,
                    shocks=shocks,
                    label=f"gen-{generation} aged",
                )
            )
    return FleetTimeline(
        years=years,
        replicas=replicas,
        scheme=scheme,
        label=label or f"{medium} refresh every {refresh_every_years:g}y",
        epochs=tuple(epochs),
        migrations=tuple(migrations),
    )


def timeline_from_recommendation(
    evaluation: "CandidateEvaluation",  # noqa: F821 — optimize import below
    years: float,
    shocks: Optional[RegionalShockModel] = None,
    migrations: Sequence[MigrationEvent] = (),
    label: str = "",
) -> FleetTimeline:
    """Turn a planner recommendation into a fleet epoch-0 plan.

    The hand-off from ``repro.optimize``: the recommended candidate's
    fault model, replication degree, audit rate and annual cost become
    the timeline's first (and only) epoch, ready to be extended with
    refreshes, migrations and shocks — "start the fleet on the plan the
    budget supports, then evolve it".
    """
    candidate = evaluation.candidate
    return FleetTimeline(
        years=years,
        replicas=candidate.replicas,
        scheme=candidate.scheme,
        label=label or f"planner hand-off: {candidate.key()}",
        epochs=(
            FleetEpoch(
                start_year=0.0,
                model=candidate.fault_model(),
                audits_per_year=candidate.audits_per_year,
                annual_cost_per_member=evaluation.annual_cost,
                shocks=shocks,
                label="planner epoch-0",
            ),
        ),
        migrations=tuple(migrations),
    )
