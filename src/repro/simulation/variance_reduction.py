r"""The variance-reduced loss-probability estimator for the batch backend.

The control variate sits behind the ``variance_reduction`` axis of
:func:`~repro.simulation.estimators.run_mttdl` /
:func:`~repro.simulation.estimators.run_loss_probability` (and of
:class:`~repro.study.scenario.EstimatorPolicy`).  It targets the same
quantity as ``method="standard"`` — the mission loss probability under
the batch kernel's physics — but reaches a given confidence interval in
orders of magnitude fewer trials.

This module supplies the estimator's tally
(:class:`ControlVariateTally`) and chunk draw
(:func:`control_variate_draw`).  The one adaptive loop of
:mod:`repro.simulation.estimators` runs them, so a ``"cv"`` run stops,
caps its budget and traces one ``pilot_round`` per chunk like every
other estimate.  ``method="auto"`` runs them too, for threshold-2
questions on the batch backend whose horizon is short enough, in
screened MTTDLs, for the skeleton to finish before a standard chunk
(:data:`~repro.simulation.estimators.AUTO_CV_SPANS`): it walks every
trial to the horizon, where plain sampling stops each at its loss.

Control variates / conditional Monte-Carlo (``"cv"``)
-----------------------------------------------------

For threshold-2 schemes (mirrored replication, or any ``(n, n-1)``
code), a loss is a fault landing on an already-degraded trial.  Instead
of *sampling* that second fault — the rare event — the estimator
simulates only the *skeleton* process of first faults and repairs
(second faults suppressed) and scores each trial with the **exact
analytic** loss probability conditioned on its realized trajectory.
Because repairs and latent detection are deterministic and the fault
clocks are exponential, second faults form an inhomogeneous Poisson
process along the skeleton with intensity
``(n - 1) · λ_total / α`` during degraded sojourns, so

.. math::

    C_i \;=\; 1 - \exp\bigl(-\Lambda_i\bigr), \qquad
    \Lambda_i = \frac{(n-1)\,\lambda_T}{\alpha}\,W_i,

with ``W_i`` the trial's total degraded exposure clipped at the
mission horizon.  ``E[C_i]`` equals the loss probability *exactly*
(tower property over skeleton trajectories), so the per-trial score is
the closed-form value :func:`repro.core.redundancy.scheme_loss_rate`
linearises, evaluated on the simulated windows instead of their
expectation: the control ``X_i = Y_i - C_i`` has exactly zero mean and
unit regression coefficient, and the surviving estimator is the mean of
``C_i``.  The Bernoulli noise of "did the second fault land" — the
dominant variance at realistic operating points — is integrated out
analytically; what remains is only the (small) variability of the
windows themselves, which is what buys the ~300x trial reduction
benchmarked in e19.

The MTTDL is the conditional expected time on test over the
conditional loss probability,

.. math::

    \widehat{M} \;=\; \frac{\overline{\int_0^T e^{-\Lambda_i(t)}\,dt}}
                            {\overline{1 - e^{-\Lambda_i(T)}}},

the same ratio the plain estimator's total time over losses estimates,
with the ratio delta method's standard error
(:func:`~repro.simulation.estimators.time_on_test_mttdl`).  The
skeleton accumulates each trial's integral window by window.

When to use what
----------------

``"cv"`` is the strongest tool where it applies (threshold-2 schemes,
no failure biasing): its per-trial scores are already integrated over
the rare event, so it reaches a 10% relative-error target orders of
magnitude faster than standard sampling.  Failure-biased importance
sampling (``method="is"``) remains the generalist for arbitrary
thresholds at extreme reliability levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme, resolve_scheme

# The control variate never runs the batch kernel.  ``simulate_batch``
# stays importable from here because ``perfbench/tracing.py`` wraps the
# ``simulate_batch`` attribute of every estimator module.
from repro.simulation.batch import simulate_batch  # noqa: F401
from repro.simulation.estimators import LossScoreTally, MonteCarloEstimate
from repro.simulation.rng import control_variate_generator
from repro.simulation.scrubbing import (
    audit_detection_time,
    audit_interval_for,
)


def require_threshold_two(
    scheme: Optional[RedundancyScheme], replicas: int
) -> RedundancyScheme:
    """Validate that the operating point is a threshold-2 scheme."""
    resolved = resolve_scheme(scheme, replicas)
    if resolved.loss_threshold != 2:
        raise ValueError(
            "variance_reduction='cv' applies to threshold-2 schemes only "
            "(mirrored replication or (n, n-1) codes); got loss threshold "
            f"{resolved.loss_threshold} — use method='is' instead"
        )
    return resolved


def _skeleton(
    model: FaultModel,
    trials: int,
    horizon: float,
    rng: np.random.Generator,
    scheme: RedundancyScheme,
    audits_per_year: Optional[float],
    time_on_test: bool,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-trial ``Λ_i``, the loss hazard integrated along the suppressed
    skeleton, and with ``time_on_test`` the expected time past the loss,
    ``z_i = E[(T - τ)⁺ | skeleton] = ∫₀ᵀ (1 - exp(-Λ_i(t))) dt``.

    Simulates first faults and their deterministic recoveries only; at
    most one replica is ever faulty (any further fault would be the loss
    the estimator integrates out), so the skeleton is a simple
    alternating renewal process advanced with one batched draw per
    window.  A window opening at ``a`` with pre-window survival ``S``
    and hazard ``μ`` over length ``L`` (``w = μ L``) adds
    ``S · ((T - a - 1/μ) · (1 - e^(-w)) + L · e^(-w))`` to ``z_i``: its
    loss density ``S μ e^(-μ u)`` integrated against ``T - a - u``.
    """
    replicas = scheme.n
    interval = audit_interval_for(model, audits_per_year)
    total_rate = model.total_fault_rate
    p_visible = model.visible_rate / total_rate
    # Fully-healthy gap to the next first fault: min of ``n`` base-rate
    # clocks (correlation only accelerates *degraded* trials, and
    # degraded exposure is integrated, not sampled).
    mean_gap = 1.0 / (replicas * total_rate)
    degraded_intensity = (replicas - 1) * total_rate / model.correlation_factor
    reach = horizon - 1.0 / degraded_intensity

    clock = np.zeros(trials)
    exposure = np.zeros(trials)
    after = np.zeros(trials) if time_on_test else None
    active = np.arange(trials)
    while active.size:
        gaps = rng.exponential(mean_gap, active.size)
        fault_at = clock[active] + gaps
        running = fault_at < horizon
        active = active[running]
        if active.size == 0:
            break
        fault_at = fault_at[running]
        visible = rng.random(active.size) < p_visible
        window_end = np.empty(active.size)
        window_end[visible] = fault_at[visible] + model.mean_repair_visible
        latent = ~visible
        window_end[latent] = (
            audit_detection_time(fault_at[latent], interval)
            + model.mean_repair_latent
        )
        window_end = np.minimum(window_end, horizon)
        length = window_end - fault_at
        if after is None:
            exposure[active] += degraded_intensity * length
        else:
            before = exposure[active]
            window = degraded_intensity * length
            lost = -np.expm1(-window)
            after[active] += np.exp(-before) * (
                (reach - fault_at) * lost + length * (1.0 - lost)
            )
            exposure[active] = before + window
        clock[active] = window_end
        active = active[window_end < horizon]
    return exposure, after


@dataclass
class ControlVariateTally(LossScoreTally):
    """Per-trial conditional loss probabilities ``C_i``, chunk by chunk.

    The estimate is their sample mean, with the sample standard error.
    "Censored" trials are those that never opened a window of
    vulnerability: their score is exactly zero, so the estimate's
    ``losses`` property counts the informative trials.  An MTTDL run
    also tallies each trial's conditional time past the loss ``z_i``
    (see :func:`_skeleton`).
    """

    windowed: int = 0

    def add(self, chunk: Tuple[np.ndarray, Optional[np.ndarray]]) -> None:
        scores, after = chunk
        self.add_scores(scores.size, scores, after)
        self.windowed += int(np.count_nonzero(scores > 0.0))

    @property
    def std_error(self) -> float:
        if self.trials < 2:
            return math.inf
        mean = self.sum_x / self.trials
        variance = max(self.sum_x_sq / self.trials - mean * mean, 0.0) * (
            self.trials / (self.trials - 1.0)
        )
        return math.sqrt(variance / self.trials)

    @property
    def relative_error(self) -> float:
        """Standard error over the mean; ``inf`` while every score is 0."""
        mean = self.sum_x / self.trials
        return self.std_error / mean if mean > 0.0 else math.inf

    def pilot_round(self) -> Dict[str, object]:
        return {"relative_error": self.relative_error}

    def estimate(self) -> MonteCarloEstimate:
        return MonteCarloEstimate(
            mean=self.sum_x / self.trials,
            std_error=self.std_error,
            trials=self.trials,
            censored=self.trials - self.windowed,
            clamp_hi=1.0,
            method="cv",
        )


def control_variate_draw(
    model: FaultModel,
    horizon: float,
    seed: int,
    replicas: int,
    audits_per_year: Optional[float],
    scheme: Optional[RedundancyScheme],
    time_on_test: bool,
) -> Callable[[int, int], Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Chunks of conditional scores ``C_i = 1 - exp(-Λ_i)``, with each
    trial's conditional time past the loss when ``time_on_test`` (an
    MTTDL run) and ``None`` in its place otherwise.

    Chunk ``c`` runs the skeleton on ``control_variate_generator(seed,
    c)``, a stream no batch chunk of the same seed shares.

    Raises:
        ValueError: unless the scheme's loss threshold is 2.
    """
    resolved = require_threshold_two(scheme, replicas)

    def draw(chunk: int, trials: int):
        rng = control_variate_generator(seed, chunk)
        exposure, after = _skeleton(
            model, trials, horizon, rng, resolved, audits_per_year,
            time_on_test,
        )
        return -np.expm1(-exposure), after

    return draw
