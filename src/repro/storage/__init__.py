"""Storage device, media, array, site, and cost models.

Section 6.1 of the paper compares consumer (Seagate Barracuda) and
enterprise (Seagate Cheetah) drives on in-service fault probability,
irrecoverable bit errors over a mostly-idle service life, and cost per
byte.  Sections 6.2-6.5 compare on-line and off-line media, RAID and
plain mirroring, and multi-site replica placement.  This subpackage
encodes those device specifications and the arithmetic behind the
paper's comparisons.
"""

from repro.storage.drives import (
    DriveSpec,
    BARRACUDA_ST3200822A,
    CHEETAH_15K4,
    GENERIC_CONSUMER_DRIVE,
    GENERIC_ENTERPRISE_DRIVE,
    drive_catalog,
)
from repro.storage.bit_errors import (
    bits_transferred,
    expected_bit_errors,
    bit_error_comparison,
    DriveBitErrorResult,
)
from repro.storage.media import (
    MediaClass,
    MediaSpec,
    ONLINE_DISK,
    OFFLINE_TAPE,
    OPTICAL_CDROM,
    media_catalog,
    fault_model_for_media,
)
from repro.storage.raid import (
    RaidLevel,
    raid_mttdl,
    raid1_mttdl,
    raid5_mttdl,
    raid6_mttdl,
)
from repro.storage.costs import (
    CostModel,
    StorageCostBreakdown,
    replication_cost,
    scheme_storage_cost,
    compare_drive_costs,
)
from repro.storage.site import (
    Site,
    ReplicaPlacement,
    IndependenceAssessment,
    assess_independence,
    effective_alpha,
)
from repro.storage.archive import (
    ArchiveCollection,
    CollectionReliability,
    collection_reliability,
    required_audit_bandwidth,
    access_based_detection_is_sufficient,
    audit_rate_for_loss_budget,
)

__all__ = [
    "DriveSpec",
    "BARRACUDA_ST3200822A",
    "CHEETAH_15K4",
    "GENERIC_CONSUMER_DRIVE",
    "GENERIC_ENTERPRISE_DRIVE",
    "drive_catalog",
    "bits_transferred",
    "expected_bit_errors",
    "bit_error_comparison",
    "DriveBitErrorResult",
    "MediaClass",
    "MediaSpec",
    "ONLINE_DISK",
    "OFFLINE_TAPE",
    "OPTICAL_CDROM",
    "media_catalog",
    "fault_model_for_media",
    "RaidLevel",
    "raid_mttdl",
    "raid1_mttdl",
    "raid5_mttdl",
    "raid6_mttdl",
    "CostModel",
    "StorageCostBreakdown",
    "replication_cost",
    "scheme_storage_cost",
    "compare_drive_costs",
    "Site",
    "ReplicaPlacement",
    "IndependenceAssessment",
    "assess_independence",
    "effective_alpha",
    "ArchiveCollection",
    "CollectionReliability",
    "collection_reliability",
    "required_audit_bandwidth",
    "access_based_detection_is_sufficient",
    "audit_rate_for_loss_budget",
]
