"""Cost model for replicated long-term storage.

The paper's Section 4.3 names limited budget as the biggest threat to
digital preservation, and Section 6 repeatedly weighs reliability
strategies by cost (enterprise vs consumer drives, on-line vs off-line
audits, RAID vs plain mirrors, geographic separation).  This module puts
dollar figures on a replication design so those comparisons can be
reported next to the MTTDL figures (experiments E7, E8, E12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.redundancy import RedundancyScheme
from repro.storage.drives import DriveSpec
from repro.storage.media import MediaSpec


@dataclass(frozen=True)
class CostModel:
    """Unit costs for owning and operating storage replicas.

    All rates are per replica unless stated otherwise.

    Attributes:
        hardware_cost_per_tb: purchase cost of the storage itself,
            dollars per terabyte (amortised over
            ``hardware_lifetime_years``).
        hardware_lifetime_years: replacement cycle for the hardware.
        power_cooling_per_tb_year: annual power and cooling cost per
            terabyte (zero for powered-off off-line media).
        admin_cost_per_replica_year: annual system-administration cost
            attributable to one replica.
        site_cost_per_year: annual cost of one additional independent
            site (space, network, contracts); only counted for replicas
            placed at distinct sites.
        audit_cost_per_pass: dollars per full audit pass of one replica.
        repair_cost_per_event: dollars per repair action.
    """

    hardware_cost_per_tb: float
    hardware_lifetime_years: float = 5.0
    power_cooling_per_tb_year: float = 50.0
    admin_cost_per_replica_year: float = 500.0
    site_cost_per_year: float = 0.0
    audit_cost_per_pass: float = 1.0
    repair_cost_per_event: float = 10.0

    def __post_init__(self) -> None:
        if self.hardware_cost_per_tb < 0:
            raise ValueError("hardware_cost_per_tb must be non-negative")
        if self.hardware_lifetime_years <= 0:
            raise ValueError("hardware_lifetime_years must be positive")
        for name in (
            "power_cooling_per_tb_year",
            "admin_cost_per_replica_year",
            "site_cost_per_year",
            "audit_cost_per_pass",
            "repair_cost_per_event",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class StorageCostBreakdown:
    """Annualised cost of one replication design.

    Attributes:
        hardware_per_year: amortised hardware purchase cost.
        power_cooling_per_year: power and cooling.
        administration_per_year: staff cost.
        sites_per_year: cost of the extra independent sites.
        audits_per_year_cost: auditing cost.
        repairs_per_year_cost: expected repair cost.
    """

    hardware_per_year: float
    power_cooling_per_year: float
    administration_per_year: float
    sites_per_year: float
    audits_per_year_cost: float
    repairs_per_year_cost: float

    @property
    def total_per_year(self) -> float:
        return (
            self.hardware_per_year
            + self.power_cooling_per_year
            + self.administration_per_year
            + self.sites_per_year
            + self.audits_per_year_cost
            + self.repairs_per_year_cost
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "hardware": self.hardware_per_year,
            "power_cooling": self.power_cooling_per_year,
            "administration": self.administration_per_year,
            "sites": self.sites_per_year,
            "audits": self.audits_per_year_cost,
            "repairs": self.repairs_per_year_cost,
            "total": self.total_per_year,
        }


def replication_cost(
    cost_model: CostModel,
    dataset_tb: float,
    replicas: int,
    audits_per_replica_year: float = 0.0,
    expected_repairs_per_replica_year: float = 0.0,
    independent_sites: Optional[int] = None,
) -> StorageCostBreakdown:
    """Annualised cost of keeping ``replicas`` copies of ``dataset_tb``.

    Args:
        cost_model: unit costs.
        dataset_tb: size of the preserved collection in terabytes.
        replicas: number of full copies kept.
        audits_per_replica_year: audit passes per replica per year.
        expected_repairs_per_replica_year: expected repair actions per
            replica per year (e.g. the fault rates times 8760).
        independent_sites: number of distinct sites used; defaults to the
            replica count (full geographic independence).

    Raises:
        ValueError: for non-positive dataset size or replica count.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    return scheme_storage_cost(
        cost_model,
        dataset_tb,
        RedundancyScheme(n=replicas, k=1),
        audits_per_fragment_year=audits_per_replica_year,
        expected_repairs_per_fragment_year=expected_repairs_per_replica_year,
        independent_sites=independent_sites,
    )


def scheme_storage_cost(
    cost_model: CostModel,
    dataset_tb: float,
    scheme: RedundancyScheme,
    audits_per_fragment_year: float = 0.0,
    expected_repairs_per_fragment_year: float = 0.0,
    independent_sites: Optional[int] = None,
) -> StorageCostBreakdown:
    """Annualised cost of an (n, k) redundancy scheme over ``dataset_tb``.

    Generalises :func:`replication_cost`: the raw bytes stored are
    ``dataset_tb * n / k`` (each of the ``n`` fragments holds ``1/k`` of
    the collection), so hardware and power scale with the storage
    overhead while administration and auditing scale with the fragment
    count.  Repairing one fragment must read ``k`` surviving fragments,
    so each repair event is charged ``k`` times the per-event cost.
    ``k = 1`` reproduces :func:`replication_cost` exactly.

    Args:
        cost_model: unit costs (per-replica rates apply per fragment).
        dataset_tb: size of the preserved collection in terabytes.
        scheme: the (n, k) redundancy scheme.
        audits_per_fragment_year: audit passes per fragment per year.
        expected_repairs_per_fragment_year: expected repair actions per
            fragment per year.
        independent_sites: number of distinct sites used; defaults to the
            fragment count (full geographic independence).

    Raises:
        ValueError: for non-positive dataset size or invalid rates/sites.
    """
    if dataset_tb <= 0:
        raise ValueError("dataset_tb must be positive")
    if audits_per_fragment_year < 0 or expected_repairs_per_fragment_year < 0:
        raise ValueError("rates must be non-negative")
    sites = independent_sites if independent_sites is not None else scheme.n
    if sites < 1 or sites > scheme.n:
        raise ValueError("independent_sites must be between 1 and replicas")

    stored_tb = dataset_tb * scheme.storage_overhead
    hardware = (
        cost_model.hardware_cost_per_tb
        * stored_tb
        / cost_model.hardware_lifetime_years
    )
    power = cost_model.power_cooling_per_tb_year * stored_tb
    administration = cost_model.admin_cost_per_replica_year * scheme.n
    site_cost = cost_model.site_cost_per_year * max(sites - 1, 0)
    audits = cost_model.audit_cost_per_pass * audits_per_fragment_year * scheme.n
    repairs = (
        cost_model.repair_cost_per_event
        * expected_repairs_per_fragment_year
        * scheme.n
        * scheme.repair_fragments_read
    )
    return StorageCostBreakdown(
        hardware_per_year=hardware,
        power_cooling_per_year=power,
        administration_per_year=administration,
        sites_per_year=site_cost,
        audits_per_year_cost=audits,
        repairs_per_year_cost=repairs,
    )


def cost_model_for_drive(drive: DriveSpec, **overrides: float) -> CostModel:
    """Derive a :class:`CostModel` from a drive's price per gigabyte."""
    parameters = {
        "hardware_cost_per_tb": drive.price_per_gb * 1000.0,
        "hardware_lifetime_years": drive.service_life_years,
    }
    parameters.update(overrides)
    return CostModel(**parameters)


def cost_model_for_media(media: MediaSpec, **overrides: float) -> CostModel:
    """Derive a :class:`CostModel` from a media class specification."""
    parameters = {
        "hardware_cost_per_tb": media.storage_cost_per_tb_year * 5.0,
        "hardware_lifetime_years": 5.0,
        "power_cooling_per_tb_year": 0.0 if not media.is_online else 50.0,
        "audit_cost_per_pass": media.audit_cost,
    }
    parameters.update(overrides)
    return CostModel(**parameters)


def compare_drive_costs(
    consumer: DriveSpec,
    enterprise: DriveSpec,
    dataset_tb: float,
    consumer_replicas: int,
    enterprise_replicas: int,
    audits_per_replica_year: float = 3.0,
) -> Dict[str, float]:
    """Annual cost of a consumer-replica design vs an enterprise design.

    Returns both totals and the ratio, the quantity behind the paper's
    "the large incremental cost of enterprise drives is hard to justify"
    argument.
    """
    consumer_model = cost_model_for_drive(consumer)
    enterprise_model = cost_model_for_drive(enterprise)
    consumer_cost = replication_cost(
        consumer_model,
        dataset_tb,
        consumer_replicas,
        audits_per_replica_year=audits_per_replica_year,
    ).total_per_year
    enterprise_cost = replication_cost(
        enterprise_model,
        dataset_tb,
        enterprise_replicas,
        audits_per_replica_year=audits_per_replica_year,
    ).total_per_year
    return {
        "consumer_total_per_year": consumer_cost,
        "enterprise_total_per_year": enterprise_cost,
        "cost_ratio_enterprise_to_consumer": (
            enterprise_cost / consumer_cost if consumer_cost > 0 else float("inf")
        ),
    }


def kryder_declined_cost(
    base_cost_per_tb: float,
    years_elapsed: float,
    annual_decline: float = 0.15,
) -> float:
    """Hardware $/TB after Kryder-style price decline.

    The paper's Section 4.3 leans on the long-running trend of
    storage-cost-per-byte falling by a roughly constant fraction each
    year (Kryder's observation); a generation refreshed ``years_elapsed``
    years into a fleet timeline buys its hardware at
    ``base * (1 - annual_decline) ** years_elapsed``.

    Raises:
        ValueError: for a negative elapsed time or a decline outside
            [0, 1).
    """
    if base_cost_per_tb < 0:
        raise ValueError("base_cost_per_tb must be non-negative")
    if years_elapsed < 0:
        raise ValueError("years_elapsed must be non-negative")
    if not 0 <= annual_decline < 1:
        raise ValueError("annual_decline must be in [0, 1)")
    return base_cost_per_tb * (1.0 - annual_decline) ** years_elapsed
