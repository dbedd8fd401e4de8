"""The audit (scrubbing) grid shared by every simulator.

Audits run on one global grid ``I, 2I, 3I, ...``: a latent fault stays
undetected until the first grid point after it occurs, then repairs in
``MRL``.  :func:`audit_interval_for` owns the interval convention and
:func:`audit_detection_time` the grid arithmetic, so the event engine,
the batch kernel and the control variate agree on the scrubbing
physics.
"""

from __future__ import annotations

import numpy as np


def audit_interval_for(model, audits_per_year=None):
    """Audit-grid interval implied by a model, or None for no scrubbing.

    The single owner of the scrub-interval convention shared by the
    event-driven and batch backends: the interval is twice the model's
    ``MDL`` (the paper's "MDL is half the scrub period") unless
    ``audits_per_year`` overrides it; models whose ``MDL`` is no better
    than the latent mean time get no scrubbing at all.  ``MDL = 0``
    gives a zero interval: detection on arrival.

    Args:
        model: a :class:`~repro.core.parameters.FaultModel`.
        audits_per_year: optional audit-rate override (0 disables
            scrubbing).

    Returns:
        The interval in hours, or ``None`` when audits never happen.
    """
    from repro.core.units import HOURS_PER_YEAR

    if audits_per_year is not None:
        if audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")
        if audits_per_year == 0:
            return None
        return HOURS_PER_YEAR / audits_per_year
    if model.mean_detect_latent >= model.mean_time_to_latent:
        return None
    return 2.0 * model.mean_detect_latent


def audit_detection_time(times, interval):
    """When latent faults occurring at ``times`` are detected.

    The first grid point after each time for a positive ``interval``;
    the fault time itself for a zero interval (detection on arrival);
    ``inf`` when ``interval`` is ``None`` (audits never happen).
    ``times`` may be a scalar or an array.
    """
    if interval is None:
        return np.full(np.shape(times), np.inf)
    if interval == 0.0:
        return times
    return (np.floor(times / interval) + 1.0) * interval
