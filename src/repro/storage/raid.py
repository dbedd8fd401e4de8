"""MTTDL of RAID array organisations.

The paper's model generalises the RAID reliability analysis of Patterson
et al.; Section 6.4 then asks whether single-site RAID redundancy is
worth its cost compared to geographically separate plain mirrors.  This
module provides standard MTTDL expressions for RAID-1, RAID-5 and RAID-6
groups (visible whole-disk faults only — the classic analysis) so they
can be compared against the paper's latent-fault-aware model and against
cross-site mirroring in experiment E12.
"""

from __future__ import annotations

import enum
import math


class RaidLevel(enum.Enum):
    """Array organisations covered by the classic MTTDL analysis."""

    RAID0 = "raid0"
    RAID1 = "raid1"
    RAID5 = "raid5"
    RAID6 = "raid6"


def _validate(disk_mttf: float, disk_mttr: float, disks: int, minimum: int) -> None:
    if disk_mttf <= 0:
        raise ValueError("disk_mttf must be positive")
    if disk_mttr <= 0:
        raise ValueError("disk_mttr must be positive")
    if disks < minimum:
        raise ValueError(f"this RAID level needs at least {minimum} disks")


def raid0_mttdl(disk_mttf: float, disks: int) -> float:
    """MTTDL of striping with no redundancy: first fault loses data."""
    if disk_mttf <= 0:
        raise ValueError("disk_mttf must be positive")
    if disks < 1:
        raise ValueError("disks must be at least 1")
    return disk_mttf / disks


def raid1_mttdl(disk_mttf: float, disk_mttr: float, disks: int = 2) -> float:
    """MTTDL of an n-way mirror (visible faults only).

    The classic result ``MTTF^n / (n * MTTF_r^{n-1})`` reduces to
    ``MTTF² / (2 MTTR)`` for a two-way mirror.
    """
    _validate(disk_mttf, disk_mttr, disks, 2)
    return disk_mttf ** disks / (disks * disk_mttr ** (disks - 1))


def raid5_mttdl(disk_mttf: float, disk_mttr: float, disks: int) -> float:
    """MTTDL of a single-parity group of ``disks`` drives.

    Data is lost when a second drive fails while the first is being
    rebuilt: ``MTTF² / (N (N-1) MTTR)`` (Patterson et al.).
    """
    _validate(disk_mttf, disk_mttr, disks, 3)
    return disk_mttf ** 2 / (disks * (disks - 1) * disk_mttr)


def raid6_mttdl(disk_mttf: float, disk_mttr: float, disks: int) -> float:
    """MTTDL of a double-parity group of ``disks`` drives.

    Three overlapping failures are needed:
    ``MTTF³ / (N (N-1) (N-2) MTTR²)``.
    """
    _validate(disk_mttf, disk_mttr, disks, 4)
    return disk_mttf ** 3 / (
        disks * (disks - 1) * (disks - 2) * disk_mttr ** 2
    )


def raid_mttdl(
    level: RaidLevel, disk_mttf: float, disk_mttr: float, disks: int
) -> float:
    """Dispatch to the per-level MTTDL expression."""
    if level is RaidLevel.RAID0:
        return raid0_mttdl(disk_mttf, disks)
    if level is RaidLevel.RAID1:
        return raid1_mttdl(disk_mttf, disk_mttr, disks)
    if level is RaidLevel.RAID5:
        return raid5_mttdl(disk_mttf, disk_mttr, disks)
    if level is RaidLevel.RAID6:
        return raid6_mttdl(disk_mttf, disk_mttr, disks)
    raise ValueError(f"unknown RAID level {level!r}")


def raid_with_latent_faults_mttdl(
    disk_mttf: float,
    disk_mttr: float,
    disks: int,
    latent_mttf: float,
) -> float:
    """RAID-5 MTTDL accounting for a latent fault found during rebuild.

    NetApp's threat model (cited in the paper's related work) includes a
    whole-disk failure followed by a latent sector fault discovered during
    reconstruction — the ``P(L2 | V1)`` path.  The group loses data if any
    of the surviving ``N-1`` disks holds an undetected latent fault when a
    rebuild is forced, approximated here by the probability that a latent
    fault arrived on a survivor within the preceding latent mean time
    window (steady state, no scrubbing): ``1 - exp(-(N-1)*MTTR/latent)``
    plus the classic second-whole-disk term.
    """
    _validate(disk_mttf, disk_mttr, disks, 3)
    if latent_mttf <= 0:
        raise ValueError("latent_mttf must be positive")
    whole_disk_rate = disks / disk_mttf
    p_second_disk = (disks - 1) * disk_mttr / disk_mttf
    # Without scrubbing a survivor carries an undetected latent fault with
    # probability approaching the fraction of its lifetime since the last
    # full read; conservatively use the rebuild-read itself as the only
    # scrub, i.e. the survivor accumulated latent faults for its whole
    # current life ~ disk_mttf.
    p_latent_on_survivor = 1.0 - math.exp(-(disks - 1) * disk_mttf / latent_mttf / disks)
    p_loss_given_failure = min(p_second_disk + p_latent_on_survivor, 1.0)
    return 1.0 / (whole_disk_rate * p_loss_given_failure)
