"""MTTDL for r-way replication (paper Eq. 12, Section 5.5).

To reason about replication degrees beyond mirroring, the paper assumes
detection is fast (``MDL`` negligible), latent and visible faults have
similar rates and repair times, and the windows of vulnerability of
successive faults overlap exactly.  Data is lost when ``r - 1``
successive faults all land within the window opened by the first fault.
Each successive fault does so with probability ``MRV / (α MV)``, giving

.. math::

    \\mathrm{MTTDL}(r) = MV \\cdot
        \\left(\\frac{\\alpha MV}{MRV}\\right)^{r-1}
      = \\frac{\\alpha^{r-1} MV^r}{MRV^{r-1}}

The key observation the paper draws from this: replication increases
MTTDL geometrically, but strong correlation (small ``α``) decreases it
geometrically too, so adding replicas without adding independence buys
little.
"""

from __future__ import annotations

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme, scheme_mttdl_eq12


def replicated_mttdl(
    mean_time_to_fault: float,
    mean_repair_time: float,
    replicas: int,
    correlation_factor: float = 1.0,
) -> float:
    """Paper Eq. 12: MTTDL of ``replicas``-way replicated data, in hours.

    Args:
        mean_time_to_fault: per-replica mean time to any fault (hours).
        mean_repair_time: per-fault mean repair time (hours).
        replicas: replication degree ``r`` (>= 1).
        correlation_factor: ``α`` in (0, 1].

    Returns:
        MTTDL in hours.  For a single replica the data is lost as soon as
        the first fault occurs, so the MTTDL is just the mean time to
        fault.

    Raises:
        ValueError: for non-positive parameters or ``replicas < 1``.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    # Probability of each successive fault landing inside the window is
    # MRV / (α MV); the generalised form caps it at 1 so that when every
    # fault cascades the MTTDL degenerates to the single-copy mean time
    # to fault.  Replication is the (n=r, k=1) scheme.
    return scheme_mttdl_eq12(
        mean_time_to_fault,
        mean_repair_time,
        RedundancyScheme(n=replicas, k=1),
        correlation_factor,
    )


def replicated_mttdl_from_model(model: FaultModel, replicas: int) -> float:
    """Eq. 12 driven by a :class:`FaultModel`.

    Follows the paper's Section 5.5 simplification: the combined fault
    process (visible plus latent) with the visible repair time and the
    model's correlation factor.
    """
    combined_mean_time = 1.0 / model.total_fault_rate
    return replicated_mttdl(
        mean_time_to_fault=combined_mean_time,
        mean_repair_time=model.mean_repair_visible,
        replicas=replicas,
        correlation_factor=model.correlation_factor,
    )
