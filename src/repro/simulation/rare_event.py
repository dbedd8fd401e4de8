"""Rare-event acceleration: failure-biased importance sampling.

The paper's realistic operating points have MTTDLs of thousands to
millions of years, which is exactly where brute-force Monte-Carlo
degenerates: nearly every trial censors at the horizon, the estimators
fall back to rule-of-three upper bounds, and the planner cannot rank
high-reliability designs.

:func:`repro.simulation.batch.simulate_batch` accepts a ``bias`` factor
that accelerates the surviving replicas' fault clocks while a trial is
degraded and returns exact per-trial path-measure log-likelihood
ratios.  :class:`WeightedLossTally` turns those weighted trials into
unbiased loss-probability estimates with IS-aware standard errors and
effective-sample-size reporting; :func:`default_failure_bias` picks an
acceleration factor that lands the *biased* loss probability in the
comfortably-observable range.

The one adaptive loop in :mod:`repro.simulation.estimators` fills the
tally chunk by chunk (``method="is" | "auto"``).  The tally answers an
MTTDL question as the weighted expected time on test over the weighted
loss probability (:func:`~repro.simulation.estimators.time_on_test_mttdl`),
which stays right at horizons where nearly every trial loses data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme, resolve_scheme, scheme_loss_rate
from repro.simulation.batch import BatchRunResult
from repro.simulation.estimators import LossScoreTally, MonteCarloEstimate

#: Target probability that a *biased* mirrored trial loses data; higher
#: replication degrees target the (replicas - 1)-th power of this, since
#: every additional biased fault compounds the weights' spread.
DEFAULT_TARGET_BIASED_LOSS = 0.3

#: Hard cap on the automatic failure-biasing factor.
MAX_FAILURE_BIAS = 1e4

#: 95% upper bound on a proportion when zero events were observed.
RULE_OF_THREE = 3.0


def analytic_loss_rate(
    model: FaultModel,
    replicas: int,
    scheme: Optional[RedundancyScheme] = None,
) -> float:
    """Data-loss rate (per hour) in simulator-consistent semantics.

    A window of vulnerability opens when any of the ``n`` fragments
    faults (rate ``n λ_T`` per fault type); data is lost when every
    fault the scheme can still absorb lands inside it.  The ``j``-th
    successive fault has ``n - j`` candidate fragments, each faulting at
    the correlated rate ``λ_any / α``, into an expected residual window
    of ``W_T / 2^(j-1)`` (each uniformly-arriving fault leaves on
    average half the remaining overlap for the next one).  Every
    per-step probability is capped at 1, mirroring the paper's treatment
    of windows so long that the linearisation saturates.

    The chained-window formula itself lives in
    :func:`repro.core.redundancy.scheme_loss_rate` (the single owner);
    this wrapper resolves the legacy ``replicas`` argument to the
    ``(r, 1)`` scheme, and the optimizer's analytic screen
    (:func:`repro.optimize.evaluate.screen_loss_rate`) delegates here.
    """
    if scheme is None and replicas < 1:
        raise ValueError("replicas must be at least 1")
    return scheme_loss_rate(model, resolve_scheme(scheme, replicas))


def default_failure_bias(
    model: FaultModel,
    replicas: int,
    horizon: float,
    target: Optional[float] = None,
    max_bias: float = MAX_FAILURE_BIAS,
    scheme: Optional[RedundancyScheme] = None,
) -> float:
    """Failure-biasing factor aimed at an observable biased loss rate.

    Degraded-regime biasing by ``b`` multiplies the loss probability by
    roughly ``b^(T-1)``, where ``T`` is the scheme's loss threshold
    (``n - k + 1`` faulty fragments; the replication degree ``r`` for
    plain replication) — each of the ``T - 1`` successive faults inside
    the window accelerates by ``b``.  The factor solving
    ``p · b^(T-1) = target`` lands the biased run where a comfortable
    fraction of trials actually lose data.  The target shrinks
    geometrically with the threshold because each extra biased fault
    also compounds the weights' spread.  Already-lossy operating points
    (``p >= target``) return 1 — no biasing needed — and the factor is
    capped at ``max_bias`` to keep the degraded windows from
    saturating.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if scheme is None and replicas < 2:
        return 1.0
    resolved = resolve_scheme(scheme, replicas)
    threshold = resolved.loss_threshold
    if threshold < 2:
        return 1.0
    rate = scheme_loss_rate(model, resolved)
    loss_probability = -math.expm1(-rate * horizon)
    if target is None:
        target = DEFAULT_TARGET_BIASED_LOSS ** (threshold - 1)
    if loss_probability <= 0.0:
        return max_bias
    if loss_probability >= target:
        return 1.0
    return min(
        (target / loss_probability) ** (1.0 / (threshold - 1)), max_bias
    )


@dataclass
class WeightedLossTally(LossScoreTally):
    """Accumulates importance-weighted loss indicators across chunks.

    Per trial the estimator's summand is ``x = w · 1{lost}``, and the
    MTTDL's is also ``z = w · (T - τ) · 1{lost}``, the weighted time
    the trial would have spent past its loss time ``τ``; the tally keeps
    the running moments needed for the unbiased means, their standard
    errors, and the effective sample size of the loss weights, so the
    estimators' adaptive loop can extend a run chunk by chunk without
    holding per-trial arrays.
    """

    losses: int = 0

    def add(self, result: BatchRunResult) -> None:
        lost = result.lost
        loss_weights = result.weights[lost]
        self.add_scores(
            result.trials,
            loss_weights,
            loss_weights * (result.horizon - result.end_time[lost]),
        )
        self.losses += result.losses

    @property
    def mean(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.sum_x / self.trials

    @property
    def std_error(self) -> float:
        if self.trials < 2:
            return math.inf
        mean = self.mean
        variance = (self.sum_x_sq - self.trials * mean * mean) / (
            self.trials - 1
        )
        return math.sqrt(max(variance, 0.0) / self.trials)

    @property
    def relative_error(self) -> float:
        if self.mean <= 0.0:
            return math.inf
        return self.std_error / self.mean

    @property
    def ess(self) -> float:
        """Kish effective sample size ``(Σx)² / Σx²`` of the loss weights.

        Zero before the first loss.  A value far below the loss count
        signals weight degeneracy: a few heavy paths dominate the
        estimate, and its CI should not be trusted.
        """
        if self.sum_x_sq <= 0.0:
            return 0.0
        return self.sum_x * self.sum_x / self.sum_x_sq

    def pilot_round(self) -> Dict[str, object]:
        return {
            "relative_error": self.relative_error,
            "effective_sample_size": self.ess,
        }

    def estimate(self) -> MonteCarloEstimate:
        """The tallied trials as a loss-probability estimate."""
        return MonteCarloEstimate(
            mean=self.mean,
            std_error=self.std_error if self.losses else 0.0,
            trials=self.trials,
            censored=self.trials - self.losses,
            clamp_hi=1.0,
            method="is",
            effective_sample_size=self.ess if self.losses else 0.0,
        )


