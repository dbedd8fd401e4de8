"""Chain builders for the replicated-storage systems in the paper.

The mirrored chain tracks which kind of fault (visible, latent
undetected, latent detected) currently afflicts the degraded copy.
Correlation is modelled exactly as in the analytic model: once one copy
is faulty, the mean time to a fault on the surviving copy is multiplied
by ``α`` (i.e. its fault rates are divided by ``α``).

The r-way chain is a birth-death chain over the number of failed
replicas used to check Eq. 12's overlapping-window approximation.
"""

from __future__ import annotations

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.markov.absorbing import mean_time_to_absorption
from repro.markov.chain import MarkovChain

#: State labels of the mirrored chain.
HEALTHY = "healthy"
ONE_VISIBLE = "one_visible"
ONE_LATENT_UNDETECTED = "one_latent_undetected"
ONE_LATENT_DETECTED = "one_latent_detected"
LOST = "lost"


def build_mirrored_chain(
    model: FaultModel, double_first_fault_rate: bool = True
) -> MarkovChain:
    """CTMC of a mirrored pair under the paper's fault model.

    States:

    * ``healthy`` — both copies intact.
    * ``one_visible`` — one copy down with a visible fault, repair under
      way (mean ``MRV``).
    * ``one_latent_undetected`` — one copy silently corrupt; detection
      pending (mean ``MDL``).
    * ``one_latent_detected`` — the latent fault has been detected and is
      being repaired (mean ``MRL``).
    * ``lost`` — a second fault hit the surviving copy before repair
      completed (absorbing).

    While one copy is faulty the surviving copy's fault rates are divided
    by the correlation factor ``α``.

    Args:
        model: the fault-model parameters.
        double_first_fault_rate: if true (the physically accurate
            choice), either of the two copies can suffer the first fault,
            so the rates out of ``healthy`` are doubled.  The paper's
            Eq. 7 counts first faults at the single-copy rate; pass
            False to match that convention exactly (used when validating
            the closed forms in experiment E11).
    """
    chain = MarkovChain()
    chain.add_state(HEALTHY)
    chain.add_state(ONE_VISIBLE)
    chain.add_state(ONE_LATENT_UNDETECTED)
    chain.add_state(ONE_LATENT_DETECTED)
    chain.add_state(LOST, absorbing=True)

    visible_rate = model.visible_rate
    latent_rate = model.latent_rate
    correlated_second_rate = (visible_rate + latent_rate) / model.correlation_factor
    first_fault_factor = 2.0 if double_first_fault_rate else 1.0

    # First fault: either copy can fail (unless matching the paper's
    # single-initiator convention).
    chain.add_transition(HEALTHY, ONE_VISIBLE, first_fault_factor * visible_rate)
    chain.add_transition(
        HEALTHY, ONE_LATENT_UNDETECTED, first_fault_factor * latent_rate
    )

    # Visible fault: repair races against a (correlated) second fault.
    if model.mean_repair_visible > 0:
        chain.add_transition(ONE_VISIBLE, HEALTHY, 1.0 / model.mean_repair_visible)
    chain.add_transition(ONE_VISIBLE, LOST, correlated_second_rate)

    # Latent fault: detection, then repair; a second fault at any point
    # during that window loses the data.
    if model.mean_detect_latent > 0:
        chain.add_transition(
            ONE_LATENT_UNDETECTED,
            ONE_LATENT_DETECTED,
            1.0 / model.mean_detect_latent,
        )
    else:
        # Immediate detection: treat as a very fast transition so the
        # undetected state is passed through without numerical trouble.
        chain.add_transition(
            ONE_LATENT_UNDETECTED, ONE_LATENT_DETECTED, 1e9
        )
    chain.add_transition(ONE_LATENT_UNDETECTED, LOST, correlated_second_rate)

    if model.mean_repair_latent > 0:
        chain.add_transition(
            ONE_LATENT_DETECTED, HEALTHY, 1.0 / model.mean_repair_latent
        )
    else:
        chain.add_transition(ONE_LATENT_DETECTED, HEALTHY, 1e9)
    chain.add_transition(ONE_LATENT_DETECTED, LOST, correlated_second_rate)

    return chain


def mirrored_mttdl_markov(
    model: FaultModel, double_first_fault_rate: bool = True
) -> float:
    """Exact MTTDL (hours) of the mirrored pair from the CTMC."""
    chain = build_mirrored_chain(
        model, double_first_fault_rate=double_first_fault_rate
    )
    return mean_time_to_absorption(chain, start=HEALTHY)


def build_scheme_chain(
    mean_time_to_fault: float,
    mean_repair_time: float,
    scheme: RedundancyScheme,
    correlation_factor: float = 1.0,
    parallel_repair: bool = False,
    scale_fault_rate_with_survivors: bool = True,
) -> MarkovChain:
    """Birth-death CTMC over the number of faulty fragments of a scheme.

    The general redundancy chain: an ``(n, k)`` scheme stores ``n``
    fragments and loses data when ``n - k + 1`` of them are
    simultaneously faulty, so the chain's states are the integers
    ``0 .. n - k + 1`` with the last one absorbing.  ``k = 1`` recovers
    the classic r-way replicated chain (states ``0 .. r``, absorbing at
    ``r``) exactly.

    Args:
        mean_time_to_fault: per-fragment mean time to any fault (hours).
        mean_repair_time: mean repair time per faulty fragment (hours).
        scheme: the redundancy scheme; ``scheme.n`` fragments, absorbing
            at ``scheme.loss_threshold`` faulty.
        correlation_factor: once at least one fragment is faulty, the
            per-fragment fault rate of the survivors is divided by this
            factor (matching the analytic model's ``α``).
        parallel_repair: if true, each faulty fragment is repaired
            concurrently (repair rate ``f / MR`` from state ``f``);
            otherwise a single repair crew works at rate ``1 / MR``.
        scale_fault_rate_with_survivors: if true the aggregate fault rate
            from state ``f`` is ``(n - f)`` times the per-fragment rate;
            Eq. 12's approximation effectively ignores that factor, so it
            can be disabled for a like-for-like comparison.

    Returns:
        A chain whose states are the integers ``0 .. n - k + 1`` with
        the last state absorbing.
    """
    if mean_time_to_fault <= 0:
        raise ValueError("mean_time_to_fault must be positive")
    if mean_repair_time <= 0:
        raise ValueError("mean_repair_time must be positive")
    if not 0 < correlation_factor <= 1:
        raise ValueError("correlation_factor must be in (0, 1]")

    threshold = scheme.loss_threshold
    chain = MarkovChain()
    for failed in range(threshold + 1):
        chain.add_state(failed, absorbing=(failed == threshold))

    base_rate = 1.0 / mean_time_to_fault
    repair_rate = 1.0 / mean_repair_time
    for failed in range(threshold):
        survivors = scheme.n - failed
        per_fragment_rate = base_rate
        if failed > 0:
            per_fragment_rate = base_rate / correlation_factor
        aggregate = (
            survivors * per_fragment_rate
            if scale_fault_rate_with_survivors
            else per_fragment_rate
        )
        chain.add_transition(failed, failed + 1, aggregate)
        if failed > 0:
            rate = repair_rate * failed if parallel_repair else repair_rate
            chain.add_transition(failed, failed - 1, rate)
    return chain


def scheme_mttdl_markov(
    mean_time_to_fault: float,
    mean_repair_time: float,
    scheme: RedundancyScheme,
    correlation_factor: float = 1.0,
    parallel_repair: bool = False,
    scale_fault_rate_with_survivors: bool = True,
) -> float:
    """Exact MTTDL (hours) of the (n, k) birth-death chain."""
    chain = build_scheme_chain(
        mean_time_to_fault=mean_time_to_fault,
        mean_repair_time=mean_repair_time,
        scheme=scheme,
        correlation_factor=correlation_factor,
        parallel_repair=parallel_repair,
        scale_fault_rate_with_survivors=scale_fault_rate_with_survivors,
    )
    return mean_time_to_absorption(chain, start=0)


def build_replicated_chain(
    mean_time_to_fault: float,
    mean_repair_time: float,
    replicas: int,
    correlation_factor: float = 1.0,
    parallel_repair: bool = False,
    scale_fault_rate_with_survivors: bool = True,
) -> MarkovChain:
    """Birth-death CTMC over the number of failed replicas.

    Thin wrapper over :func:`build_scheme_chain` for the ``(r, 1)``
    scheme: data is lost when all ``r`` replicas are simultaneously
    failed, so the states are ``0 .. r`` with ``r`` absorbing.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    return build_scheme_chain(
        mean_time_to_fault=mean_time_to_fault,
        mean_repair_time=mean_repair_time,
        scheme=RedundancyScheme(n=replicas, k=1),
        correlation_factor=correlation_factor,
        parallel_repair=parallel_repair,
        scale_fault_rate_with_survivors=scale_fault_rate_with_survivors,
    )


def replicated_mttdl_markov(
    mean_time_to_fault: float,
    mean_repair_time: float,
    replicas: int,
    correlation_factor: float = 1.0,
    parallel_repair: bool = False,
    scale_fault_rate_with_survivors: bool = True,
) -> float:
    """Exact MTTDL (hours) of the r-way birth-death chain."""
    chain = build_replicated_chain(
        mean_time_to_fault=mean_time_to_fault,
        mean_repair_time=mean_repair_time,
        replicas=replicas,
        correlation_factor=correlation_factor,
        parallel_repair=parallel_repair,
        scale_fault_rate_with_survivors=scale_fault_rate_with_survivors,
    )
    return mean_time_to_absorption(chain, start=0)


def build_scrubbed_chain(model: FaultModel, audits_per_year: float) -> MarkovChain:
    """Mirrored chain whose detection delay comes from a scrub rate
    (:meth:`~repro.core.parameters.FaultModel.with_audit_rate`)."""
    return build_mirrored_chain(model.with_audit_rate(audits_per_year))
