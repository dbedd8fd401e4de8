"""Structured registry of the Section 3 threat classes.

Each :class:`ThreatProfile` records, for one threat class, the attributes
that matter to the reliability model: typical frequency, whether its
faults are visible or latent, how long detection typically takes, how
many replicas a single occurrence can affect (its correlation reach), and
a qualitative mitigation note taken from the paper.  The default rates
are synthetic but order-of-magnitude plausible; they are inputs users are
expected to override with their own measurements — gathering exactly this
data is what the paper's Section 6.7 calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.faults import FaultClass, FaultType
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR


@dataclass(frozen=True)
class ThreatProfile:
    """Model-relevant description of one threat class.

    Attributes:
        fault_class: which Section 3 threat this is.
        fault_type: whether it manifests visibly or latently by default.
        mean_time_to_occurrence: hours between occurrences affecting a
            given replica.
        mean_detection_time: hours from occurrence to detection (zero for
            visible threats).
        mean_repair_time: hours to recover once detected, assuming a good
            replica exists.
        correlation_reach: expected fraction of replicas affected by a
            single occurrence (0 = strictly one replica, 1 = all of
            them); drives the effective correlation factor.
        description: one-line summary.
        example: a real incident the paper cites.
        mitigations: the countermeasures Section 6 proposes.
    """

    fault_class: FaultClass
    fault_type: FaultType
    mean_time_to_occurrence: float
    mean_detection_time: float
    mean_repair_time: float
    correlation_reach: float
    description: str
    example: str
    mitigations: str

    def __post_init__(self) -> None:
        if self.mean_time_to_occurrence <= 0:
            raise ValueError("mean_time_to_occurrence must be positive")
        if self.mean_detection_time < 0 or self.mean_repair_time < 0:
            raise ValueError("times must be non-negative")
        if not 0 <= self.correlation_reach <= 1:
            raise ValueError("correlation_reach must be in [0, 1]")

    @property
    def rate_per_year(self) -> float:
        return HOURS_PER_YEAR / self.mean_time_to_occurrence

    @property
    def is_latent(self) -> bool:
        return self.fault_type is FaultType.LATENT


def _years(value: float) -> float:
    return value * HOURS_PER_YEAR


#: Synthetic but order-of-magnitude-plausible default profiles.  Rates
#: are per replica.  Override with measured data where available.
THREAT_REGISTRY: Dict[FaultClass, ThreatProfile] = {
    FaultClass.LARGE_SCALE_DISASTER: ThreatProfile(
        fault_class=FaultClass.LARGE_SCALE_DISASTER,
        fault_type=FaultType.VISIBLE,
        mean_time_to_occurrence=_years(100.0),
        mean_detection_time=0.0,
        mean_repair_time=24.0 * 30,
        correlation_reach=0.8,
        description="Flood, fire, earthquake, act of war destroying a site",
        example="The 9/11 data-center loss and the inaccessible failover site",
        mitigations="Geographic replica separation with truly distant sites",
    ),
    FaultClass.HUMAN_ERROR: ThreatProfile(
        fault_class=FaultClass.HUMAN_ERROR,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=_years(2.0),
        mean_detection_time=_years(0.5),
        mean_repair_time=24.0,
        correlation_reach=0.5,
        description="Accidental deletion/overwrite by operators or users",
        example="Repositories quietly losing data across replicas to admin error",
        mitigations="Administrative independence; no single admin touches all replicas",
    ),
    FaultClass.COMPONENT_FAULT: ThreatProfile(
        fault_class=FaultClass.COMPONENT_FAULT,
        fault_type=FaultType.VISIBLE,
        mean_time_to_occurrence=_years(1.0),
        mean_detection_time=0.0,
        mean_repair_time=8.0,
        correlation_reach=0.2,
        description="Hardware, firmware, network, or third-party service failure",
        example="Power surge destroying a controller card; vanished license server",
        mitigations="Hardware/software diversity; avoid shared third-party dependencies",
    ),
    FaultClass.MEDIA_FAULT: ThreatProfile(
        fault_class=FaultClass.MEDIA_FAULT,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=2.8e5,
        mean_detection_time=1460.0,
        mean_repair_time=1.0 / 3.0,
        correlation_reach=0.1,
        description="Bit rot, unreadable sectors, misdirected writes",
        example="CD-ROMs sold as good for decades failing within two to five years",
        mitigations="Frequent scrubbing against replicas or checksums",
    ),
    FaultClass.MEDIA_OBSOLESCENCE: ThreatProfile(
        fault_class=FaultClass.MEDIA_OBSOLESCENCE,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=_years(10.0),
        mean_detection_time=_years(2.0),
        mean_repair_time=24.0 * 7,
        correlation_reach=0.9,
        description="Media readers no longer obtainable",
        example="9-track tape, 12-inch laser discs, vanishing floppy drives",
        mitigations="Proactive migration to current media before readers disappear",
    ),
    FaultClass.SOFTWARE_OBSOLESCENCE: ThreatProfile(
        fault_class=FaultClass.SOFTWARE_OBSOLESCENCE,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=_years(8.0),
        mean_detection_time=_years(2.0),
        mean_repair_time=24.0 * 14,
        correlation_reach=1.0,
        description="Formats that can no longer be interpreted",
        example="Proprietary camera RAW formats abandoned by their vendors",
        mitigations="Format migration cycles; prefer open, documented formats",
    ),
    FaultClass.LOSS_OF_CONTEXT: ThreatProfile(
        fault_class=FaultClass.LOSS_OF_CONTEXT,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=_years(15.0),
        mean_detection_time=_years(3.0),
        mean_repair_time=24.0 * 30,
        correlation_reach=1.0,
        description="Lost metadata, provenance, or decryption keys",
        example="Encrypted archives whose keys leak or are lost",
        mitigations="Preserve context with the data; re-encrypt before keys age out",
    ),
    FaultClass.ATTACK: ThreatProfile(
        fault_class=FaultClass.ATTACK,
        fault_type=FaultType.LATENT,
        mean_time_to_occurrence=_years(5.0),
        mean_detection_time=_years(1.0),
        mean_repair_time=24.0 * 3,
        correlation_reach=0.7,
        description="Censorship, modification, theft, insider abuse",
        example="Government website 'sanitisation'; flash worms hitting all replicas",
        mitigations="Software diversity, audit protocols hardened like any protocol",
    ),
    FaultClass.ORGANIZATIONAL_FAULT: ThreatProfile(
        fault_class=FaultClass.ORGANIZATIONAL_FAULT,
        fault_type=FaultType.VISIBLE,
        mean_time_to_occurrence=_years(20.0),
        mean_detection_time=0.0,
        mean_repair_time=24.0 * 90,
        correlation_reach=1.0,
        description="Host organisation dies, changes mission, or loses interest",
        example="Research-lab closure leaving undocumented tapes; Ofoto account purge",
        mitigations="Exit strategies; replicas held by independent organisations",
    ),
    FaultClass.ECONOMIC_FAULT: ThreatProfile(
        fault_class=FaultClass.ECONOMIC_FAULT,
        fault_type=FaultType.VISIBLE,
        mean_time_to_occurrence=_years(10.0),
        mean_detection_time=0.0,
        mean_repair_time=24.0 * 180,
        correlation_reach=1.0,
        description="Budget interruptions stopping maintenance and migration",
        example="Libraries cutting serials; collections put online with no upkeep plan",
        mitigations="Low-cost designs; plan for budgets that vary down to zero",
    ),
}


def all_threat_profiles() -> List[ThreatProfile]:
    """All default threat profiles in registry order."""
    return list(THREAT_REGISTRY.values())


def combined_fault_model(
    profiles: Optional[Iterable[ThreatProfile]] = None,
    correlation_factor: Optional[float] = None,
) -> FaultModel:
    """Aggregate threat profiles into a single :class:`FaultModel`.

    Visible and latent rates add across threats; the detection and repair
    times of each type are rate-weighted averages.  The correlation
    factor defaults to the value implied by the threats' correlation
    reach (see :func:`repro.threats.correlation_sources.correlation_pressure`).
    """
    chosen = list(profiles) if profiles is not None else all_threat_profiles()
    if not chosen:
        raise ValueError("at least one threat profile is required")

    visible = [p for p in chosen if p.fault_type is FaultType.VISIBLE]
    latent = [p for p in chosen if p.fault_type is FaultType.LATENT]
    if not visible or not latent:
        raise ValueError(
            "profiles must include at least one visible and one latent threat"
        )

    def combined(group: List[ThreatProfile]) -> Dict[str, float]:
        total_rate = sum(1.0 / p.mean_time_to_occurrence for p in group)
        weights = [
            (1.0 / p.mean_time_to_occurrence) / total_rate for p in group
        ]
        return {
            "mean_time": 1.0 / total_rate,
            "detection": sum(w * p.mean_detection_time for w, p in zip(weights, group)),
            "repair": sum(w * p.mean_repair_time for w, p in zip(weights, group)),
        }

    visible_stats = combined(visible)
    latent_stats = combined(latent)
    if correlation_factor is None:
        from repro.threats.correlation_sources import correlation_pressure

        correlation_factor = correlation_pressure(chosen).implied_alpha
    return FaultModel(
        mean_time_to_visible=visible_stats["mean_time"],
        mean_time_to_latent=latent_stats["mean_time"],
        mean_repair_visible=visible_stats["repair"],
        mean_repair_latent=latent_stats["repair"],
        mean_detect_latent=latent_stats["detection"],
        correlation_factor=correlation_factor,
    )
