"""First-class redundancy schemes: r-way replication and (n, k) codes.

The paper's reliability model (Eq. 12 and the Markov MTTDL analysis)
assumes r-way mirroring, but the related work it cites — Weatherspoon
and Kubiatowicz's erasure-coding comparison and Patterson et al.'s RAID
— frames the production answer for long-term archives as "any ``k`` of
``n`` fragments reconstruct".  This module is the single place that
knows what a redundancy scheme *is*:

* :class:`RedundancyScheme` — ``n`` stored fragments of which any ``k``
  reconstruct the object.  Data is lost when more than ``n - k``
  fragments are simultaneously faulty, i.e. when the number of faulty
  fragments reaches the :attr:`~RedundancyScheme.loss_threshold`
  ``n - k + 1``.  Repair of one fragment reads ``k`` surviving
  fragments.
* :func:`Replication` — ``r``-way replication as the ``(n=r, k=1)``
  special case (loss only when all ``r`` copies are down).
* :func:`ErasureCode` — an explicit ``(n, k)`` code.

It also owns the scheme-aware closed forms.  The residual-window
chaining argument behind Eq. 12 generalises directly: a window of
vulnerability opens when any of the ``n`` fragments faults, and data is
lost when ``n - k`` *further* faults all land inside it, each drawn
from the remaining healthy fragments at the correlated rate.  For
``k = 1`` the formulas reduce exactly to the existing replication
closed forms (:func:`repro.simulation.rare_event.analytic_loss_rate`
and Eq. 12), which is what keeps the replication path bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.parameters import FaultModel, json_integer


@dataclass(frozen=True)
class RedundancyScheme:
    """An ``(n, k)`` redundancy scheme.

    ``n`` fragments are stored; any ``k`` of them reconstruct the
    object.  ``k = 1`` is plain ``n``-way replication (every fragment is
    a full copy); ``k > 1`` is an erasure code with storage overhead
    ``n / k``.

    Attributes:
        n: number of stored fragments (>= 1).
        k: number of fragments needed to reconstruct (1 <= k <= n).
    """

    n: int
    k: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 1 <= self.k <= self.n:
            raise ValueError("k must be between 1 and n")

    @property
    def loss_threshold(self) -> int:
        """Faulty-fragment count at which data is lost (``n - k + 1``)."""
        return self.n - self.k + 1

    @property
    def max_tolerable_faults(self) -> int:
        """Largest number of simultaneous faults survived (``n - k``)."""
        return self.n - self.k

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per user byte (``n / k``; ``r`` for replication)."""
        return self.n / self.k

    @property
    def repair_fragments_read(self) -> int:
        """Fragments read to rebuild one lost fragment (``k``)."""
        return self.k

    @property
    def is_replication(self) -> bool:
        """True when the scheme is plain replication (``k == 1``)."""
        return self.k == 1

    def describe(self) -> str:
        """Short human label: ``3-way replication`` or ``EC(6,4)``."""
        if self.is_replication:
            return f"{self.n}-way replication"
        return f"EC({self.n},{self.k})"

    def key(self) -> str:
        """Canonical compact form ``n,k`` (used in CLI and cache keys)."""
        return f"{self.n},{self.k}"

    def as_dict(self) -> Dict[str, int]:
        return {"n": self.n, "k": self.k}

    @staticmethod
    def from_dict(
        payload: Dict[str, object], path: str = "scheme"
    ) -> "RedundancyScheme":
        """Rebuild from :meth:`as_dict`; a count that is not an integer
        raises a ``ValueError`` naming its JSON path under ``path``."""
        return RedundancyScheme(
            n=json_integer(payload.get("n"), f"{path}.n"),
            k=json_integer(payload.get("k"), f"{path}.k"),
        )


def Replication(replicas: int) -> RedundancyScheme:
    """``r``-way replication as the ``(n=r, k=1)`` scheme."""
    return RedundancyScheme(n=replicas, k=1)


def ErasureCode(n: int, k: int) -> RedundancyScheme:
    """An ``(n, k)`` erasure code (any ``k`` of ``n`` reconstruct)."""
    return RedundancyScheme(n=n, k=k)


def parse_scheme(text: str) -> RedundancyScheme:
    """Parse ``"n,k"`` (or bare ``"n"`` meaning replication) to a scheme.

    Raises:
        ValueError: for malformed input or invalid ``(n, k)``.
    """
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return Replication(int(parts[0]))
        if len(parts) == 2:
            return RedundancyScheme(n=int(parts[0]), k=int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"invalid scheme {text!r}: {exc}") from exc
    raise ValueError(
        f"invalid scheme {text!r}: expected 'n,k' (erasure) or 'r' "
        "(replication)"
    )


def resolve_scheme(
    scheme: Optional[Union[RedundancyScheme, str]],
    replicas: Optional[int] = None,
) -> RedundancyScheme:
    """Normalise the optional ``scheme``/legacy ``replicas`` pair.

    Every layer that grew a ``scheme`` argument next to its historical
    ``replicas`` argument resolves them here: an explicit scheme wins,
    a string is parsed, and a bare replica count becomes ``(r, 1)``.
    """
    if scheme is not None:
        if isinstance(scheme, str):
            return parse_scheme(scheme)
        return scheme
    if replicas is None:
        raise ValueError("either scheme or replicas must be provided")
    return Replication(replicas)


def scheme_loss_rate(model: FaultModel, scheme: RedundancyScheme) -> float:
    """Data-loss rate (per hour) of a scheme, simulator-consistent.

    Generalises the chained residual-window argument of
    :func:`repro.simulation.rare_event.analytic_loss_rate`: a window of
    vulnerability opens when any of the ``n`` fragments faults (rate
    ``n λ_T`` per fault type); data is lost when ``n - k`` further
    faults land inside it.  The ``j``-th successive fault has ``n - j``
    candidate fragments, each faulting at the correlated rate
    ``λ_any / α``, into an expected residual window of ``W_T / 2^(j-1)``
    (each uniformly-arriving fault leaves on average half the remaining
    overlap).  Every per-step probability is capped at 1.

    For ``k = 1`` this is identical to the replication formula; for
    ``k = n`` (no redundancy beyond striping) the first fault is the
    loss and the rate is ``n λ_T``.
    """
    lam_any = model.total_fault_rate
    alpha = model.correlation_factor
    rate = 0.0
    for lam_first, window in (
        (model.visible_rate, model.visible_window),
        (model.latent_rate, model.latent_window),
    ):
        product = 1.0
        for j in range(1, scheme.loss_threshold):
            residual = window / 2.0 ** (j - 1)
            product *= min(1.0, (scheme.n - j) * residual * lam_any / alpha)
        rate += scheme.n * lam_first * product
    return rate


def scheme_mttdl_eq12(
    mean_time_to_fault: float,
    mean_repair_time: float,
    scheme: RedundancyScheme,
    correlation_factor: float = 1.0,
) -> float:
    """Eq. 12 generalised to ``(n, k)``: MTTDL in hours.

    Under the overlapping-window simplification each of the ``n - k``
    successive faults needed after the first lands inside the window
    with probability ``MRV / (α MV)``, so

    .. math::

        \\mathrm{MTTDL}(n, k) = MV \\cdot
            \\left(\\frac{\\alpha MV}{MRV}\\right)^{n - k}

    which reduces to Eq. 12 for ``k = 1`` and to the single-copy mean
    time to fault for ``k = n``.
    """
    if mean_time_to_fault <= 0:
        raise ValueError("mean_time_to_fault must be positive")
    if mean_repair_time < 0:
        raise ValueError("mean_repair_time must be non-negative")
    if not 0 < correlation_factor <= 1:
        raise ValueError("correlation_factor must be in (0, 1]")
    if scheme.max_tolerable_faults == 0:
        return mean_time_to_fault
    if mean_repair_time == 0:
        return float("inf")
    per_step = correlation_factor * mean_time_to_fault / mean_repair_time
    if per_step <= 1:
        return mean_time_to_fault
    return mean_time_to_fault * per_step ** scheme.max_tolerable_faults
