"""Declarative design space for the budget-constrained planner.

The paper's Section 4.3 names limited budget as the biggest threat to
long-term preservation, and Section 6 weighs every reliability strategy
by what it buys per dollar.  This module turns those levers into an
enumerable space of candidate archive designs:

* replication degree,
* storage medium — any drive from :mod:`repro.storage.drives` or media
  class from :mod:`repro.storage.media`,
* audit (scrub) rate,
* single- vs multi-site placement, scored for independence through
  :mod:`repro.storage.site`.

Each :class:`CandidateDesign` knows how to express itself as the core
model's :class:`~repro.core.parameters.FaultModel` and how to price
itself per year through :mod:`repro.storage.costs`, which is everything
the evaluator needs to put the candidate on a cost–reliability plane.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Optional, Tuple

from repro.core.parameters import FaultModel, mdl_from_audit_rate
from repro.core.redundancy import RedundancyScheme, parse_scheme
from repro.core.units import HOURS_PER_YEAR
from repro.storage.costs import (
    CostModel,
    StorageCostBreakdown,
    cost_model_for_drive,
    cost_model_for_media,
    scheme_storage_cost,
)
from repro.storage.drives import DriveSpec, drive_catalog
from repro.storage.media import MediaSpec, fault_model_for_media, media_catalog
from repro.storage.site import (
    assess_independence,
    diversified_placement,
    single_site_placement,
)

#: Latent faults are assumed five times as frequent as visible ones for
#: disk drives — the Schwarz et al. ratio the repo's examples use when a
#: datasheet quotes only a whole-drive MTTF.
LATENT_TO_VISIBLE_RATIO = 5.0

#: Recognised placement styles: every replica in one machine room vs the
#: paper's independence checklist (own region, admin, hardware, stack).
PLACEMENTS: Tuple[str, ...] = ("single", "multi")


@lru_cache(maxsize=None)
def placement_alpha(placement: str, replicas: int) -> float:
    """Effective correlation factor of a placement style.

    Scores the canonical single-site and diversified placements from
    :mod:`repro.storage.site` so the design space's two placement styles
    map onto the model's ``α`` axis.  Cached: the scoring is pure in its
    arguments and every candidate of a space re-asks the same handful of
    (placement, replicas) pairs.
    """
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    if replicas < 2:
        raise ValueError("placement scoring needs at least two replicas")
    if placement == "single":
        return assess_independence(single_site_placement(replicas)).effective_alpha
    return assess_independence(diversified_placement(replicas)).effective_alpha


@dataclass(frozen=True)
class ResolvedMedium:
    """A design-space medium resolved to its catalog specification."""

    identifier: str
    drive: Optional[DriveSpec] = None
    media: Optional[MediaSpec] = None

    def __post_init__(self) -> None:
        if (self.drive is None) == (self.media is None):
            raise ValueError("exactly one of drive or media must be set")

    @property
    def kind(self) -> str:
        return "drive" if self.drive is not None else "media"

    def fault_model(
        self, audits_per_year: float, correlation_factor: float
    ) -> FaultModel:
        """Model parameters for this medium at an audit rate and ``α``.

        Media classes carry their own fault characteristics
        (:func:`~repro.storage.media.fault_model_for_media`); drives use
        the datasheet MTTF, the Schwarz latent ratio, and a full-drive
        rebuild as the repair time.  In both cases ``MDL`` is half the
        audit interval — the same convention the simulation backends
        derive their scrub grid from — and an audit rate of zero means
        latent faults are effectively never detected
        (:func:`~repro.core.parameters.mdl_from_audit_rate`).
        """
        if self.media is not None:
            return fault_model_for_media(
                self.media, audits_per_year, correlation_factor
            )
        drive = self.drive
        latent_mean = drive.mttf_hours / LATENT_TO_VISIBLE_RATIO
        mdl = mdl_from_audit_rate(audits_per_year, latent_mean)
        rebuild = drive.full_read_hours()
        return FaultModel(
            mean_time_to_visible=drive.mttf_hours,
            mean_time_to_latent=latent_mean,
            mean_repair_visible=rebuild,
            mean_repair_latent=rebuild,
            mean_detect_latent=mdl,
            correlation_factor=correlation_factor,
        )

    def cost_model(self, site_cost_per_year: float = 0.0) -> CostModel:
        if self.media is not None:
            return cost_model_for_media(
                self.media, site_cost_per_year=site_cost_per_year
            )
        return cost_model_for_drive(
            self.drive, site_cost_per_year=site_cost_per_year
        )


@lru_cache(maxsize=None)
def resolve_medium(identifier: str) -> ResolvedMedium:
    """Resolve a medium identifier against the built-in catalogs.

    Accepts the explicit forms ``drive:<id>`` / ``media:<id>`` as well as
    a bare catalog id (drives are searched first).  Cached: the catalogs
    are module-level constants and every candidate resolves its medium
    several times per evaluation.

    Raises:
        KeyError: with the known identifiers when nothing matches.
    """
    drives = drive_catalog()
    media = media_catalog()
    if identifier.startswith("drive:"):
        name = identifier.split(":", 1)[1]
        if name in drives:
            return ResolvedMedium(identifier=identifier, drive=drives[name])
    elif identifier.startswith("media:"):
        name = identifier.split(":", 1)[1]
        if name in media:
            return ResolvedMedium(identifier=identifier, media=media[name])
    else:
        if identifier in drives:
            return ResolvedMedium(
                identifier=f"drive:{identifier}", drive=drives[identifier]
            )
        if identifier in media:
            return ResolvedMedium(
                identifier=f"media:{identifier}", media=media[identifier]
            )
    raise KeyError(
        f"unknown medium {identifier!r}; known media: {list(known_media())}"
    )


@lru_cache(maxsize=None)
def known_media() -> Tuple[str, ...]:
    """Every explicit ``drive:<id>`` and ``media:<id>`` identifier."""
    return tuple(sorted(f"drive:{name}" for name in drive_catalog())) + tuple(
        sorted(f"media:{name}" for name in media_catalog())
    )


@dataclass(frozen=True)
class CandidateDesign:
    """One point of the design space.

    Attributes:
        medium: catalog identifier (``drive:<id>`` or ``media:<id>``).
        replicas: stored fragment count — the replication degree for
            plain replication, ``scheme.n`` for an erasure candidate
            (kept in sync with ``scheme`` automatically).
        audits_per_year: full audit passes per replica per year.
        placement: ``"single"`` or ``"multi"`` site placement.
        dataset_tb: collection size in terabytes (drives the cost side).
        site_cost_per_year: annual cost of each additional independent
            site, charged for multi-site placements.
        scheme: optional (n, k) redundancy scheme; ``None`` means plain
            ``replicas``-way replication (the historical semantics).
    """

    medium: str
    replicas: int
    audits_per_year: float
    placement: str
    dataset_tb: float
    site_cost_per_year: float = 0.0
    scheme: Optional[RedundancyScheme] = None

    def __post_init__(self) -> None:
        if self.scheme is not None:
            # The fragment count is the reliability-relevant degree
            # everywhere downstream (placement alpha, simulation width),
            # so the two fields are forced consistent.
            object.__setattr__(self, "replicas", self.scheme.n)
        if self.replicas < 2:
            raise ValueError("replicas must be at least 2")
        if self.audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )
        if self.dataset_tb <= 0:
            raise ValueError("dataset_tb must be positive")
        if self.site_cost_per_year < 0:
            raise ValueError("site_cost_per_year must be non-negative")
        resolve_medium(self.medium)

    # -- model side --------------------------------------------------------

    def resolved_medium(self) -> ResolvedMedium:
        return resolve_medium(self.medium)

    def effective_alpha(self) -> float:
        return placement_alpha(self.placement, self.replicas)

    def fault_model(self) -> FaultModel:
        return self.resolved_medium().fault_model(
            self.audits_per_year, self.effective_alpha()
        )

    # -- cost side ---------------------------------------------------------

    def independent_sites(self) -> int:
        return self.replicas if self.placement == "multi" else 1

    def effective_scheme(self) -> RedundancyScheme:
        """The candidate's scheme (``(replicas, 1)`` when unset)."""
        if self.scheme is not None:
            return self.scheme
        return RedundancyScheme(n=self.replicas, k=1)

    def cost_breakdown(self) -> StorageCostBreakdown:
        model = self.fault_model()
        expected_repairs = HOURS_PER_YEAR * model.total_fault_rate
        return scheme_storage_cost(
            self.resolved_medium().cost_model(self.site_cost_per_year),
            dataset_tb=self.dataset_tb,
            scheme=self.effective_scheme(),
            audits_per_fragment_year=self.audits_per_year,
            expected_repairs_per_fragment_year=expected_repairs,
            independent_sites=self.independent_sites(),
        )

    def annual_cost(self) -> float:
        """Total annualised cost of the design in dollars."""
        return self.cost_breakdown().total_per_year

    # -- identity ----------------------------------------------------------

    def key(self) -> str:
        """Stable human-readable identity of the design point.

        The scheme segment is appended only for erasure candidates, so
        replication keys (and the caches and per-candidate seeds spawned
        from them) are unchanged from before schemes existed.
        """
        base = (
            f"{self.medium}|r={self.replicas}|audits={self.audits_per_year:g}"
            f"|placement={self.placement}|tb={self.dataset_tb:g}"
            f"|site_cost={self.site_cost_per_year:g}"
        )
        if self.scheme is not None:
            base += f"|scheme={self.scheme.key()}"
        return base

    def content_hash(self) -> str:
        """Hex digest identifying the candidate's full configuration."""
        return hashlib.sha256(self.key().encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "medium": self.medium,
            "replicas": self.replicas,
            "audits_per_year": self.audits_per_year,
            "placement": self.placement,
            "dataset_tb": self.dataset_tb,
            "site_cost_per_year": self.site_cost_per_year,
        }
        # Conditional so replication payloads (and every content hash
        # derived from them) are byte-identical to the pre-scheme era.
        if self.scheme is not None:
            payload["scheme"] = self.scheme.as_dict()
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CandidateDesign":
        scheme = payload.get("scheme")
        return CandidateDesign(
            medium=str(payload["medium"]),
            replicas=int(payload["replicas"]),
            audits_per_year=float(payload["audits_per_year"]),
            placement=str(payload["placement"]),
            dataset_tb=float(payload["dataset_tb"]),
            site_cost_per_year=float(payload.get("site_cost_per_year", 0.0)),
            scheme=(
                RedundancyScheme.from_dict(scheme)
                if scheme is not None
                else None
            ),
        )


@dataclass(frozen=True)
class DesignSpace:
    """Cross product of the planner's design axes.

    Attributes:
        dataset_tb: collection size every candidate must hold.
        media: medium identifiers (see :func:`resolve_medium`).
        replica_counts: replication degrees to consider (each >= 2).
        audit_rates: audits per replica per year.
        placements: placement styles, a subset of :data:`PLACEMENTS`.
        site_cost_per_year: annual cost per additional independent site.
        erasure_schemes: optional (n, k) schemes as ``"n,k"`` strings
            (e.g. ``("6,4", "9,6")``); each adds an erasure-coded
            candidate per medium/audit-rate/placement combination, making
            replication-vs-coding a first-class Pareto axis.
    """

    dataset_tb: float = 10.0
    media: Tuple[str, ...] = ("drive:barracuda", "drive:cheetah", "media:tape")
    replica_counts: Tuple[int, ...] = (2, 3, 4)
    audit_rates: Tuple[float, ...] = (0.0, 1.0, 12.0, 52.0)
    placements: Tuple[str, ...] = PLACEMENTS
    site_cost_per_year: float = 0.0
    erasure_schemes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.dataset_tb <= 0:
            raise ValueError("dataset_tb must be positive")
        if not self.media:
            raise ValueError("media must not be empty")
        for identifier in self.media:
            resolve_medium(identifier)
        if not self.replica_counts:
            raise ValueError("replica_counts must not be empty")
        if any(count < 2 for count in self.replica_counts):
            raise ValueError("every replica count must be at least 2")
        if not self.audit_rates:
            raise ValueError("audit_rates must not be empty")
        if any(rate < 0 for rate in self.audit_rates):
            raise ValueError("audit rates must be non-negative")
        if not self.placements:
            raise ValueError("placements must not be empty")
        for placement in self.placements:
            if placement not in PLACEMENTS:
                raise ValueError(
                    f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
                )
        if self.site_cost_per_year < 0:
            raise ValueError("site_cost_per_year must be non-negative")
        for text in self.erasure_schemes:
            scheme = parse_scheme(text)
            if scheme.n < 2:
                raise ValueError(
                    f"erasure scheme {text!r} needs at least 2 fragments"
                )

    @property
    def size(self) -> int:
        """Number of candidate designs in the space."""
        return (
            len(self.media)
            * (len(self.replica_counts) + len(self.erasure_schemes))
            * len(self.audit_rates)
            * len(self.placements)
        )

    def candidates(self) -> Iterator[CandidateDesign]:
        """Enumerate every candidate in a deterministic order.

        Replication candidates come first (in the historical order, so a
        space without erasure schemes enumerates exactly as before),
        followed by the erasure-coded candidates.
        """
        for medium in self.media:
            for replicas in self.replica_counts:
                for rate in self.audit_rates:
                    for placement in self.placements:
                        yield CandidateDesign(
                            medium=medium,
                            replicas=replicas,
                            audits_per_year=rate,
                            placement=placement,
                            dataset_tb=self.dataset_tb,
                            site_cost_per_year=self.site_cost_per_year,
                        )
        for medium in self.media:
            for text in self.erasure_schemes:
                scheme = parse_scheme(text)
                for rate in self.audit_rates:
                    for placement in self.placements:
                        yield CandidateDesign(
                            medium=medium,
                            replicas=scheme.n,
                            audits_per_year=rate,
                            placement=placement,
                            dataset_tb=self.dataset_tb,
                            site_cost_per_year=self.site_cost_per_year,
                            scheme=scheme,
                        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "dataset_tb": self.dataset_tb,
            "media": list(self.media),
            "replica_counts": list(self.replica_counts),
            "audit_rates": list(self.audit_rates),
            "placements": list(self.placements),
            "site_cost_per_year": self.site_cost_per_year,
        }
        # Conditional so the content hash of a replication-only space is
        # unchanged from before the erasure axis existed.
        if self.erasure_schemes:
            payload["erasure_schemes"] = list(self.erasure_schemes)
        return payload

    def content_hash(self) -> str:
        """Hex digest of the whole space definition."""
        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
