r"""Vectorized batch Monte-Carlo backend.

Instead of running N independent :class:`SimulationEngine` event loops,
this backend simulates N replicated systems *simultaneously* with NumPy
array state: per-replica next-fault times, fault flags, and repair
completions, advancing every live trial to its own next event in
lock-step sweeps of batched draws.  Total work is the same number of
events as the event-driven backend, but the per-event cost is a few
vectorized array operations instead of a Python callback dispatch, which
is what makes thousand-scenario sweeps practical (see
``benchmarks/test_bench_e14_batch_speedup.py``).

The backend covers the configurations :func:`system_from_fault_model`
builds from a :class:`~repro.core.parameters.FaultModel`:

* exponential visible and latent fault processes per replica;
* deterministic repairs (``MRV`` / ``MRL``);
* periodic scrubbing on the global audit grid ``I, 2I, 3I, ...`` with
  interval ``I = 2 * MDL`` (or derived from ``audits_per_year``), or no
  scrubbing at all;
* the paper's non-compounding multiplicative correlation (fault rates
  of healthy replicas are divided by ``alpha`` while any replica is
  faulty).

Because the processes are memoryless and repairs deterministic, a
fault's entire recovery is known the instant it occurs: a visible fault
at ``t`` recovers at ``t + MRV``; a latent fault at ``t`` is detected at
the first audit-grid point after ``t`` and recovers ``MRL`` later (or
never, without scrubbing).  Each lock-step sweep therefore only has to
race per-replica fault arrivals against known recovery times, resampling
pending arrivals whenever a trial enters or leaves the degraded regime —
exactly the behaviour of the event-driven
:class:`~repro.simulation.system.ReplicatedStorageSystem`, which the
cross-validation tests in ``tests/simulation/test_batch.py`` check
estimate-for-estimate.

Custom :data:`~repro.simulation.monte_carlo.SystemFactory` systems
(shared-fate shocks, Weibull hazards, stochastic repair policies) are
not expressible here; use ``backend="event"`` for those.

Importance sampling
-------------------

Passing ``bias=b`` (b > 1) switches the backend into *failure-biased
importance sampling*: while a trial is degraded (at least one replica
faulty), the surviving replicas' fault arrivals are drawn at ``b``
times their true rate, so second faults land inside windows of
vulnerability orders of magnitude more often.  First faults keep the
true rate — only the short degraded sojourns are distorted, which is
what keeps the weights tight.  Because repairs and latent detection are
deterministic, the simulated process is a Markov jump process whose
only randomness is the fault arrivals, so the Radon–Nikodym derivative
of the true path measure with respect to the biased one factorises over
the realized trajectory:

.. math::

    w \;=\; b^{-K} \exp\Bigl((b - 1) \int \Lambda(t)\,dt\Bigr),

where ``K`` counts the faults that landed on an already-degraded trial
and the integral runs over the trial's degraded sojourns with ``Λ(t)``
the *true* degraded fault intensity (healthy replicas × total
per-replica rate ÷ ``α``).  The exposure integral is accumulated
sojourn by sojourn in the lock-step sweeps and returned per trial as
``log_weight``; reweighting any path functional by ``exp(log_weight)``
is exactly unbiased (``E_q[w · h(path)] = E_f[h(path)]``), and — unlike
naive per-draw likelihood ratios, whose non-firing clocks have
unbounded ratios and infinite variance for ``b >= 2`` — the weights
only involve realized degraded sojourns, so a loss weight is
essentially ``b^-(r-1)`` with a correction factor near one.  The
weighted estimators live in :mod:`repro.simulation.rare_event`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.rng import batch_generator, piecewise_generator
from repro.simulation.scrubbing import audit_interval_for

# Integer replica states / fault types used in the array representation.
OK = 0
VISIBLE = 1
LATENT = 2

#: Mapping from the array fault-type codes to the public enum.
FAULT_TYPE_BY_CODE: Dict[int, FaultType] = {
    VISIBLE: FaultType.VISIBLE,
    LATENT: FaultType.LATENT,
}


@dataclass(frozen=True)
class BatchRunResult:
    """Per-trial outcomes of one batched simulation.

    Attributes:
        lost: boolean array — whether each trial lost data.
        end_time: loss time for lost trials, the horizon for censored
            ones (hours).
        first_fault_type: for lost trials, the code (``VISIBLE`` /
            ``LATENT``) of the oldest outstanding fault at the loss
            instant; ``-1`` for censored trials.
        final_fault_type: code of the fault that completed the loss;
            ``-1`` for censored trials.
        horizon: the censoring horizon the batch ran to (hours).
        sweeps: how many lock-step sweeps the batch needed (each sweep
            advances every live trial by one event).
        log_weight: per-trial log-likelihood ratios when the batch ran
            with failure biasing (``bias`` > 1); ``None`` for a plain
            run, meaning every weight is exactly 1.
    """

    lost: np.ndarray
    end_time: np.ndarray
    first_fault_type: np.ndarray
    final_fault_type: np.ndarray
    horizon: float
    sweeps: int
    log_weight: Optional[np.ndarray] = None

    @property
    def trials(self) -> int:
        return int(self.lost.shape[0])

    @property
    def losses(self) -> int:
        return int(np.count_nonzero(self.lost))

    @property
    def censored(self) -> int:
        return self.trials - self.losses

    @property
    def total_observed_time(self) -> float:
        """Sum of per-trial observed times (loss or censoring times)."""
        return float(self.end_time.sum())

    @property
    def weights(self) -> np.ndarray:
        """Per-trial importance weights (all ones for a plain run)."""
        if self.log_weight is None:
            return np.ones(self.trials)
        return np.exp(self.log_weight)

    def combination_counts(self) -> Dict[Tuple[FaultType, FaultType], int]:
        """Count losses by (first fault, final fault) combination.

        A single ``bincount`` over the packed code ``first * 3 + final``
        replaces the four full-array mask passes the double loop over
        fault types used to need (the codes are 1 or 2, so the packed
        values 4, 5, 7, 8 are unique per combination).  Losses without
        fault attribution (code ``-1`` — e.g. a migration sweep losing
        the format rather than the bits) are excluded.
        """
        attributed = self.lost & (self.first_fault_type >= 0)
        packed = (
            self.first_fault_type[attributed].astype(np.int64) * 3
            + self.final_fault_type[attributed]
        )
        binned = np.bincount(packed, minlength=9)
        return {
            (first, final): int(binned[first_code * 3 + final_code])
            for first_code, first in FAULT_TYPE_BY_CODE.items()
            for final_code, final in FAULT_TYPE_BY_CODE.items()
        }


#: Ceiling on a single block's eager ``(trials, replicas)`` state and
#: exponential pre-draws.  Larger runs subdivide internally, reusing the
#: same generator block after block, so peak memory stays proportional
#: to the ceiling rather than to the request.  Runs at or below it are
#: untouched (single block, identical draw order), which keeps every
#: fixed-seed result in the historical trial range bit-for-bit stable.
MAX_EAGER_TRIALS = 131072


def simulate_batch(
    model: FaultModel,
    trials: int,
    horizon: float,
    seed: int = 0,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    chunk: int = 0,
    bias: Optional[float] = None,
    scheme: Optional[RedundancyScheme] = None,
) -> BatchRunResult:
    """Simulate ``trials`` redundant systems in lock-step to ``horizon``.

    Args:
        model: the fault-model operating point.
        trials: number of independent systems to simulate.
        horizon: censoring horizon in hours; trials that survive to it
            are censored.
        seed: root seed (shared with the event backend's convention, but
            drawing from the reserved batch stream).
        replicas: replication degree (ignored when ``scheme`` is given).
        audits_per_year: overrides the model-derived audit interval.
        chunk: batch-extension index used by adaptive sampling; each
            chunk draws from an independent stream of the same seed.
        bias: failure-biasing factor for importance sampling; while a
            trial is degraded the surviving replicas' fault arrivals are
            drawn at ``bias`` times their true rate and the result
            carries per-trial ``log_weight``s.  ``None`` (or 1) runs the
            plain, unweighted simulation.
        scheme: redundancy scheme; the state matrix holds ``scheme.n``
            fragments and a trial loses data when
            ``scheme.loss_threshold`` of them are simultaneously faulty.
            ``None`` keeps the historical ``replicas`` semantics — an
            ``(n, 1)`` scheme consumes the RNG stream identically to
            ``replicas=n``, so the two are bit-for-bit interchangeable.

    Raises:
        ValueError: for non-positive ``trials`` / ``horizon`` / ``bias``
            or a replication degree below 1.
    """
    if scheme is not None:
        replicas = scheme.n
        loss_threshold = scheme.loss_threshold
    else:
        loss_threshold = replicas
    if trials <= 0:
        raise ValueError("trials must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    if bias is not None and bias <= 0:
        raise ValueError("bias must be positive")

    rng = batch_generator(seed, chunk)
    tel = obs.current()
    began = time.perf_counter() if tel.enabled else 0.0
    if trials <= MAX_EAGER_TRIALS:
        result = _simulate_batch_block(
            model,
            trials,
            horizon,
            rng,
            replicas,
            loss_threshold,
            audits_per_year,
            bias,
        )
    else:
        # Memory cap: subdivide, reusing the same generator sequentially
        # so the whole run stays a deterministic function of
        # (seed, chunk).
        blocks = []
        start = 0
        while start < trials:
            size = min(MAX_EAGER_TRIALS, trials - start)
            blocks.append(
                _simulate_batch_block(
                    model,
                    size,
                    horizon,
                    rng,
                    replicas,
                    loss_threshold,
                    audits_per_year,
                    bias,
                )
            )
            start += size
        result = _concatenate_blocks(blocks, float(horizon))
    if tel.enabled:
        tel.count("batch.calls")
        tel.count("batch.trials", trials)
        tel.count("batch.sweeps", result.sweeps)
        tel.observe("batch.call_seconds", time.perf_counter() - began)
    return result


def _concatenate_blocks(
    blocks: Sequence[BatchRunResult], horizon: float
) -> BatchRunResult:
    log_weight = None
    if blocks[0].log_weight is not None:
        log_weight = np.concatenate([block.log_weight for block in blocks])
    return BatchRunResult(
        lost=np.concatenate([block.lost for block in blocks]),
        end_time=np.concatenate([block.end_time for block in blocks]),
        first_fault_type=np.concatenate(
            [block.first_fault_type for block in blocks]
        ),
        final_fault_type=np.concatenate(
            [block.final_fault_type for block in blocks]
        ),
        horizon=horizon,
        sweeps=sum(block.sweeps for block in blocks),
        log_weight=log_weight,
    )


def _simulate_batch_block(
    model: FaultModel,
    trials: int,
    horizon: float,
    rng: np.random.Generator,
    replicas: int,
    loss_threshold: int,
    audits_per_year: Optional[float],
    bias: Optional[float],
) -> BatchRunResult:
    interval = audit_interval_for(model, audits_per_year)
    mean_visible = model.mean_time_to_visible
    mean_latent = model.mean_time_to_latent
    repair_visible = model.mean_repair_visible
    repair_latent = model.mean_repair_latent
    alpha = model.correlation_factor
    correlated = alpha < 1.0

    # Failure biasing: while a trial is degraded (>= 1 faulty replica),
    # the surviving replicas' fault clocks are drawn at ``accel`` times
    # their true (already alpha-corrected) rate; first faults keep the
    # true rate, so only the short windows of vulnerability are
    # distorted.  The path-measure log-likelihood ratio
    #   log w = -K log(accel)
    #           + (accel - 1) * integral of the true degraded fault
    #             intensity over the trial's degraded sojourns,
    # (K = faults suffered while already degraded) is accumulated
    # sojourn by sojourn.
    accel = 1.0 if bias is None else float(bias)
    weighting = accel != 1.0
    # Regime changes require resampling pending arrivals whenever the
    # degraded-regime sampling rate differs from the base rate — for
    # correlation, biasing, or both.
    reschedule = correlated or weighting
    degraded_scale = alpha / accel
    inv_alpha = 1.0 / alpha if correlated else 1.0
    total_rate = 1.0 / mean_visible + 1.0 / mean_latent
    log_accel = math.log(accel) if weighting else 0.0
    log_weight = np.zeros(trials) if weighting else None
    last_event = np.zeros(trials) if weighting else None

    state = np.zeros((trials, replicas), dtype=np.int8)
    fault_time = np.full((trials, replicas), np.inf)
    recovery = np.full((trials, replicas), np.inf)
    next_visible = rng.exponential(mean_visible, size=(trials, replicas))
    next_latent = rng.exponential(mean_latent, size=(trials, replicas))

    lost = np.zeros(trials, dtype=bool)
    end_time = np.full(trials, float(horizon))
    first_type = np.full(trials, -1, dtype=np.int8)
    final_type = np.full(trials, -1, dtype=np.int8)

    live = np.arange(trials)
    sweeps = 0
    while live.size:
        sweeps += 1
        # Next event per live trial: healthy replicas race their pending
        # fault arrivals, faulty replicas wait for their known recovery.
        fault_candidate = np.minimum(next_visible[live], next_latent[live])
        candidate = np.where(
            state[live] == OK, fault_candidate, recovery[live]
        )
        which = np.argmin(candidate, axis=1)
        event_time = candidate[np.arange(live.size), which]

        if weighting:
            # Exposure term of the likelihood ratio: between a trial's
            # consecutive events its regime is constant, and sampling
            # only differs from the truth during degraded sojourns,
            # where the true intensity is healthy replicas x per-replica
            # rate divided by alpha.
            healthy_now = np.count_nonzero(state[live] == OK, axis=1)
            intensity = np.where(
                healthy_now < replicas,
                healthy_now * total_rate * inv_alpha,
                0.0,
            )
            segment_end = np.minimum(event_time, horizon)
            log_weight[live] += (
                (accel - 1.0) * intensity * (segment_end - last_event[live])
            )
            last_event[live] = segment_end

        # Trials whose next event falls past the horizon are censored.
        running = event_time < horizon
        live = live[running]
        if live.size == 0:
            break
        which = which[running]
        event_time = event_time[running]
        is_recovery = state[live, which] != OK

        if is_recovery.any():
            rows = live[is_recovery]
            cols = which[is_recovery]
            times = event_time[is_recovery]
            state[rows, cols] = OK
            recovery[rows, cols] = np.inf
            fault_time[rows, cols] = np.inf
            still_faulty = np.count_nonzero(state[rows] != OK, axis=1)
            # New arrivals for the recovered replica draw at the current
            # regime's *sampling* rate (divided by alpha while the trial
            # stays degraded — the paper's non-compounding correlation —
            # and additionally accelerated by the failure bias there).
            scale = np.where(still_faulty > 0, degraded_scale, 1.0)
            next_visible[rows, cols] = times + rng.exponential(
                1.0, rows.size
            ) * (mean_visible * scale)
            next_latent[rows, cols] = times + rng.exponential(
                1.0, rows.size
            ) * (mean_latent * scale)
            if reschedule:
                # Leaving the degraded regime: healthy replicas fall back
                # to base-rate arrivals (memoryless, so resampling is
                # distributionally exact — same as the event engine's
                # reschedule).
                back = still_faulty == 0
                if back.any():
                    b_rows = rows[back]
                    b_times = times[back]
                    next_visible[b_rows] = b_times[:, None] + rng.exponential(
                        mean_visible, (b_rows.size, replicas)
                    )
                    next_latent[b_rows] = b_times[:, None] + rng.exponential(
                        mean_latent, (b_rows.size, replicas)
                    )

        faulted = ~is_recovery
        if faulted.any():
            rows = live[faulted]
            cols = which[faulted]
            times = event_time[faulted]
            fault_code = np.where(
                next_visible[rows, cols] <= next_latent[rows, cols],
                VISIBLE,
                LATENT,
            ).astype(np.int8)
            state[rows, cols] = fault_code
            fault_time[rows, cols] = times
            next_visible[rows, cols] = np.inf
            next_latent[rows, cols] = np.inf

            # The whole recovery is determined at fault time: visible
            # faults repair after MRV; latent faults wait for the next
            # audit-grid point, then repair after MRL (never, without
            # scrubbing).
            completed = np.empty(rows.size)
            visible_mask = fault_code == VISIBLE
            completed[visible_mask] = times[visible_mask] + repair_visible
            latent_mask = ~visible_mask
            if interval is None:
                completed[latent_mask] = np.inf
            else:
                detection = (
                    np.floor(times[latent_mask] / interval) + 1.0
                ) * interval
                completed[latent_mask] = detection + repair_latent
            recovery[rows, cols] = completed

            faulty_now = np.count_nonzero(state[rows] != OK, axis=1)
            if weighting:
                # Jump term: a fault landing on an already-degraded trial
                # fired from a clock sampled at ``accel`` times its true
                # rate; first faults fired at the true rate.
                second_or_later = rows[faulty_now >= 2]
                log_weight[second_or_later] -= log_accel
            # An (n, k) scheme loses as soon as the faulty count reaches
            # n - k + 1; replication is the threshold = n special case.
            loss_mask = faulty_now >= loss_threshold
            if loss_mask.any():
                l_rows = rows[loss_mask]
                lost[l_rows] = True
                end_time[l_rows] = times[loss_mask]
                final_type[l_rows] = fault_code[loss_mask]
                oldest = np.argmin(fault_time[l_rows], axis=1)
                first_type[l_rows] = state[l_rows, oldest]
            if reschedule:
                # Entering the degraded regime (0 -> 1 faulty replicas):
                # healthy replicas' pending arrivals accelerate by
                # 1/alpha (correlation) and by the failure bias.
                degraded = (faulty_now == 1) & ~loss_mask
                if degraded.any():
                    d_rows = rows[degraded]
                    d_times = times[degraded]
                    healthy = state[d_rows] == OK
                    visible_draws = d_times[:, None] + rng.exponential(
                        mean_visible * degraded_scale, (d_rows.size, replicas)
                    )
                    latent_draws = d_times[:, None] + rng.exponential(
                        mean_latent * degraded_scale, (d_rows.size, replicas)
                    )
                    next_visible[d_rows] = np.where(
                        healthy, visible_draws, next_visible[d_rows]
                    )
                    next_latent[d_rows] = np.where(
                        healthy, latent_draws, next_latent[d_rows]
                    )

        live = live[~lost[live]]

    return BatchRunResult(
        lost=lost,
        end_time=end_time,
        first_fault_type=first_type,
        final_fault_type=final_type,
        horizon=float(horizon),
        sweeps=sweeps,
        log_weight=log_weight,
    )


# ---------------------------------------------------------------------------
# Piecewise-constant (epoch-switched) rates
# ---------------------------------------------------------------------------
#
# Epoch / horizon boundary semantics (explicit, by construction):
#
# * A fault clock drawn in one rate regime is *exposure-corrected* when
#   the rates change mid-trial: the remaining delay ``next - t`` is an
#   exponential with the old sampling mean, so rescaling it by the ratio
#   of the new mean to the old one yields exactly the new regime's
#   remaining-delay distribution (memorylessness + scale family).  The
#   correction consumes no random numbers, so a boundary where nothing
#   changes is bit-for-bit a no-op — the property the regression test
#   pins down by requiring a two-epoch timeline with identical rates to
#   reproduce the single-epoch run exactly under the same seed.
# * A latent fault still *undetected* at a boundary (its detection time
#   lies beyond it) is re-anchored to the new epoch's audit grid: the
#   detection moves to the first new-grid point after the boundary (or
#   to never, when the new epoch does not scrub) and the repair follows
#   at the new epoch's ``MRL``.  When the grid is unchanged this is the
#   identity, because no old-grid point can lie between the fault and
#   the boundary (the fault would already have been detected).
# * An *in-flight* repair (visible, or latent already detected) keeps
#   its completion time: the repair started under the old regime and
#   its duration was fixed the moment it began.
#
# Unlike :func:`simulate_batch`, whose lock-step sweeps share one RNG
# stream across trials (so the draw a trial receives depends on how the
# sweep happens to batch it with others), the piecewise kernel gives
# every (trial, replica) its own pre-drawn pool of unit exponentials and
# handles *all* regime changes — degraded-regime entry/exit as well as
# epoch switches — by exposure correction.  Random numbers are consumed
# only at time zero and when a replica returns to service, indexed by a
# per-replica cursor, which is what makes chunked/segmented execution
# (and the fleet simulator's shock injection) reproducible regardless of
# where the timeline is cut.


@dataclass(frozen=True)
class RateSegment:
    """One epoch of a piecewise-constant timeline.

    Attributes:
        model: the fault-model operating point during the epoch.
        end_time: absolute end of the epoch in hours (exclusive).
        audits_per_year: overrides the model-derived audit interval for
            the epoch.
    """

    model: FaultModel
    end_time: float
    audits_per_year: Optional[float] = None

    def __post_init__(self) -> None:
        if self.end_time <= 0:
            raise ValueError("end_time must be positive")


#: Initial per-replica clock-pool depth; pools double when exhausted.
_POOL_DEPTH = 4


class PiecewiseBatchState:
    """Resumable vectorized fleet/batch state with epoch-switched rates.

    Drives the same physics as :func:`simulate_batch` (exponential
    visible/latent faults, deterministic repairs, audit-grid latent
    detection, the paper's non-compounding multiplicative correlation)
    but exposes the simulation as a *state machine*:

    * :meth:`advance_to` runs lock-step sweeps up to an absolute time,
      leaving surviving trials live with their pending clocks intact;
    * :meth:`switch_model` applies a rate-regime change at the current
      time with the boundary semantics documented above;
    * :meth:`inject_faults` lands external faults (correlated shocks)
      on selected trials, entering the exact same degraded-regime
      machinery as organic faults;
    * :meth:`result` packages the outcome as a :class:`BatchRunResult`.

    ``repair_year_counts`` (when constructed with ``track_years``)
    accumulates completed repairs per calendar year for cost
    accounting, and ``repairs`` counts them per trial.
    """

    def __init__(
        self,
        model: FaultModel,
        trials: int,
        replicas: int = 2,
        audits_per_year: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        chunk: int = 0,
        track_years: Optional[int] = None,
        scheme: Optional[RedundancyScheme] = None,
    ) -> None:
        if scheme is not None:
            replicas = scheme.n
        if trials <= 0:
            raise ValueError("trials must be positive")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self._rng = rng if rng is not None else piecewise_generator(seed, chunk)
        self.trials = trials
        self.replicas = replicas
        self.loss_threshold = (
            scheme.loss_threshold if scheme is not None else replicas
        )
        self.now = 0.0
        self.sweeps = 0

        self.state = np.zeros((trials, replicas), dtype=np.int8)
        self.fault_time = np.full((trials, replicas), np.inf)
        self.detection = np.full((trials, replicas), np.inf)
        self.recovery = np.full((trials, replicas), np.inf)

        self.lost = np.zeros(trials, dtype=bool)
        self.end_time = np.full(trials, np.inf)
        self.first_type = np.full(trials, -1, dtype=np.int8)
        self.final_type = np.full(trials, -1, dtype=np.int8)
        self.repairs = np.zeros(trials, dtype=np.int64)
        self.shock_faults = 0
        self.repair_year_counts = (
            np.zeros(int(track_years) + 1, dtype=np.int64)
            if track_years is not None
            else None
        )

        self._capacity = _POOL_DEPTH
        self._pool_visible = self._rng.exponential(
            1.0, (trials, replicas, self._capacity)
        )
        self._pool_latent = self._rng.exponential(
            1.0, (trials, replicas, self._capacity)
        )
        self._cursor = np.ones((trials, replicas), dtype=np.int64)

        self._set_model(model, audits_per_year)
        self.next_visible = self._pool_visible[:, :, 0] * self._mean_visible
        self.next_latent = self._pool_latent[:, :, 0] * self._mean_latent

    # -- model / regime ----------------------------------------------------

    def _set_model(
        self, model: FaultModel, audits_per_year: Optional[float]
    ) -> None:
        self.model = model
        self._interval = audit_interval_for(model, audits_per_year)
        self._mean_visible = model.mean_time_to_visible
        self._mean_latent = model.mean_time_to_latent
        self._repair_visible = model.mean_repair_visible
        self._repair_latent = model.mean_repair_latent
        self._alpha = model.correlation_factor
        self._correlated = self._alpha < 1.0

    def switch_model(
        self, model: FaultModel, audits_per_year: Optional[float] = None
    ) -> None:
        """Change the rate regime at the current time (epoch boundary).

        Pending fault clocks of healthy replicas are exposure-corrected
        by the ratio of the new sampling mean to the old one (per trial,
        because degraded trials sample at ``mean * alpha``); undetected
        latent faults re-anchor to the new audit grid; in-flight repairs
        keep their completion times.  A switch to an identical regime is
        exactly a no-op.
        """
        now = self.now
        degraded = np.count_nonzero(self.state != OK, axis=1) > 0
        old_scale = np.where(degraded, self._alpha, 1.0)
        new_scale = np.where(degraded, model.correlation_factor, 1.0)
        factor_visible = (
            model.mean_time_to_visible * new_scale
        ) / (self._mean_visible * old_scale)
        factor_latent = (
            model.mean_time_to_latent * new_scale
        ) / (self._mean_latent * old_scale)

        healthy = (self.state == OK) & ~self.lost[:, None]
        for factor, clocks in (
            (factor_visible, self.next_visible),
            (factor_latent, self.next_latent),
        ):
            changed = factor != 1.0
            if changed.any():
                # Skipping factor-1 trials keeps the no-change boundary
                # bit-exact (now + (x - now) * 1.0 need not round to x).
                stretch = now + (clocks - now) * factor[:, None]
                np.copyto(clocks, stretch, where=healthy & changed[:, None])

        old_interval = self._interval
        old_repair_latent = self._repair_latent
        self._set_model(model, audits_per_year)

        undetected = (
            (self.state == LATENT)
            & (self.detection > now)
            & ~self.lost[:, None]
        )
        if undetected.any() and (
            self._interval != old_interval
            or self._repair_latent != old_repair_latent
        ):
            if self._interval is None:
                self.detection[undetected] = np.inf
                self.recovery[undetected] = np.inf
            else:
                anchored = (
                    math.floor(now / self._interval) + 1.0
                ) * self._interval
                self.detection[undetected] = anchored
                self.recovery[undetected] = anchored + self._repair_latent

    # -- clock pools -------------------------------------------------------

    def _pop_clocks(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Next unit exponentials for the given replicas' fresh clocks."""
        cursor = self._cursor[rows, cols]
        if cursor.max(initial=-1) >= self._capacity:
            grow = self._capacity
            self._pool_visible = np.concatenate(
                [
                    self._pool_visible,
                    self._rng.exponential(
                        1.0, (self.trials, self.replicas, grow)
                    ),
                ],
                axis=2,
            )
            self._pool_latent = np.concatenate(
                [
                    self._pool_latent,
                    self._rng.exponential(
                        1.0, (self.trials, self.replicas, grow)
                    ),
                ],
                axis=2,
            )
            self._capacity += grow
        z_visible = self._pool_visible[rows, cols, cursor]
        z_latent = self._pool_latent[rows, cols, cursor]
        self._cursor[rows, cols] = cursor + 1
        return z_visible, z_latent

    # -- regime-change rescaling -------------------------------------------

    def _rescale_healthy(
        self,
        rows: np.ndarray,
        times: np.ndarray,
        factor: float,
        exclude_cols: Optional[np.ndarray] = None,
    ) -> None:
        """Exposure-correct pending clocks of ``rows``' healthy replicas.

        ``exclude_cols`` leaves one replica per row untouched (the one
        whose clocks were just drawn in the new regime already).
        """
        mask = self.state[rows] == OK
        if exclude_cols is not None:
            mask[np.arange(rows.size), exclude_cols] = False
        anchor = times[:, None]
        for clocks in (self.next_visible, self.next_latent):
            block = clocks[rows]
            clocks[rows] = np.where(
                mask, anchor + (block - anchor) * factor, block
            )

    # -- fault landing (shared by organic faults and shocks) ---------------

    def _record_repairs(self, times: np.ndarray) -> None:
        if self.repair_year_counts is None:
            return
        years = np.minimum(
            (times / HOURS_PER_YEAR).astype(np.int64),
            self.repair_year_counts.size - 1,
        )
        np.add.at(self.repair_year_counts, years, 1)

    def _land_faults(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        times: np.ndarray,
        fault_code: np.ndarray,
        previously_faulty: np.ndarray,
    ) -> None:
        """Apply faults to healthy replicas and run the loss/regime logic.

        ``previously_faulty`` is each row's faulty count *before* the
        fault lands (used for the degraded-regime entry rescale).  A row
        may repeat with different columns for a simultaneous
        multi-replica event (shock); ``(row, col)`` pairs must be
        unique.
        """
        self.state[rows, cols] = fault_code
        self.fault_time[rows, cols] = times
        self.next_visible[rows, cols] = np.inf
        self.next_latent[rows, cols] = np.inf

        completed = np.empty(rows.size)
        detected = np.empty(rows.size)
        visible_mask = fault_code == VISIBLE
        detected[visible_mask] = times[visible_mask]
        completed[visible_mask] = times[visible_mask] + self._repair_visible
        latent_mask = ~visible_mask
        if latent_mask.any():
            if self._interval is None:
                detected[latent_mask] = np.inf
                completed[latent_mask] = np.inf
            else:
                grid = (
                    np.floor(times[latent_mask] / self._interval) + 1.0
                ) * self._interval
                detected[latent_mask] = grid
                completed[latent_mask] = grid + self._repair_latent
        self.detection[rows, cols] = detected
        self.recovery[rows, cols] = completed

        faulty_now = np.count_nonzero(self.state[rows] != OK, axis=1)
        # ``>=`` because a multi-replica shock can jump the faulty count
        # past an (n, k) scheme's threshold in one landing; replication
        # is the threshold = n special case where ``>=`` means ``==``.
        loss_mask = faulty_now >= self.loss_threshold
        if loss_mask.any():
            l_rows = rows[loss_mask]
            self.lost[l_rows] = True
            self.end_time[l_rows] = times[loss_mask]
            self.final_type[l_rows] = fault_code[loss_mask]
            oldest = np.argmin(self.fault_time[l_rows], axis=1)
            self.first_type[l_rows] = self.state[l_rows, oldest]
        if self._correlated:
            entered = (previously_faulty == 0) & ~loss_mask
            if entered.any():
                # A multi-replica shock repeats its row once per struck
                # replica; the regime entry must rescale each trial once.
                e_rows = rows[entered]
                e_times = times[entered]
                unique_rows, first_index = np.unique(
                    e_rows, return_index=True
                )
                self._rescale_healthy(
                    unique_rows, e_times[first_index], self._alpha
                )

    def inject_faults(
        self,
        time: float,
        members: np.ndarray,
        replica_hits: np.ndarray,
        fault_code: int = VISIBLE,
    ) -> None:
        """Land external (shock) faults on selected trials at ``time``.

        Args:
            time: absolute event time; must not precede the state's
                current time.
            members: unique trial indices the event reaches.
            replica_hits: boolean array of shape ``(len(members),
                replicas)`` selecting which replicas the event damages;
                already-faulty replicas are unaffected.
            fault_code: ``VISIBLE`` or ``LATENT``.
        """
        if time < self.now:
            raise ValueError("cannot inject faults in the past")
        members = np.asarray(members)
        alive = ~self.lost[members]
        members = members[alive]
        replica_hits = np.asarray(replica_hits, dtype=bool)[alive]
        if members.size == 0:
            return
        hits = replica_hits & (self.state[members] == OK)
        struck = hits.any(axis=1)
        if not struck.any():
            return
        rows_2d, cols_2d = np.nonzero(hits)
        previously_faulty = np.count_nonzero(
            self.state[members] != OK, axis=1
        )
        # Land per-row so a multi-replica hit runs the same loss logic a
        # simultaneous multi-fault shock implies; rows stay unique per
        # call because each replica column appears at most once per row.
        row_trials = members[rows_2d]
        self.shock_faults += row_trials.size
        times = np.full(row_trials.size, float(time))
        codes = np.full(row_trials.size, fault_code, dtype=np.int8)
        self._land_faults(
            row_trials,
            cols_2d,
            times,
            codes,
            previously_faulty[rows_2d],
        )

    # -- time advance ------------------------------------------------------

    def advance_to(self, until: float) -> None:
        """Run lock-step sweeps until every live trial's next event is at
        or beyond ``until`` (events at exactly ``until`` belong to the
        next epoch).  Surviving trials keep their pending clocks."""
        if until < self.now:
            raise ValueError("cannot advance backwards")
        active = np.flatnonzero(~self.lost)
        while active.size:
            self.sweeps += 1
            fault_candidate = np.minimum(
                self.next_visible[active], self.next_latent[active]
            )
            candidate = np.where(
                self.state[active] == OK,
                fault_candidate,
                self.recovery[active],
            )
            which = np.argmin(candidate, axis=1)
            event_time = candidate[np.arange(active.size), which]
            running = event_time < until
            active = active[running]
            if active.size == 0:
                break
            which = which[running]
            event_time = event_time[running]
            is_recovery = self.state[active, which] != OK

            if is_recovery.any():
                rows = active[is_recovery]
                cols = which[is_recovery]
                times = event_time[is_recovery]
                self.state[rows, cols] = OK
                self.recovery[rows, cols] = np.inf
                self.fault_time[rows, cols] = np.inf
                self.detection[rows, cols] = np.inf
                self.repairs[rows] += 1
                self._record_repairs(times)
                still_faulty = np.count_nonzero(
                    self.state[rows] != OK, axis=1
                )
                scale = np.where(still_faulty > 0, self._alpha, 1.0)
                z_visible, z_latent = self._pop_clocks(rows, cols)
                self.next_visible[rows, cols] = times + z_visible * (
                    self._mean_visible * scale
                )
                self.next_latent[rows, cols] = times + z_latent * (
                    self._mean_latent * scale
                )
                if self._correlated:
                    back = still_faulty == 0
                    if back.any():
                        # Leaving the degraded regime: the *other*
                        # healthy replicas' clocks stretch back to base
                        # rate; the recovered replica's clocks were just
                        # drawn at base rate and are excluded.
                        self._rescale_healthy(
                            rows[back],
                            times[back],
                            1.0 / self._alpha,
                            exclude_cols=cols[back],
                        )

            faulted = ~is_recovery
            if faulted.any():
                rows = active[faulted]
                cols = which[faulted]
                times = event_time[faulted]
                fault_code = np.where(
                    self.next_visible[rows, cols]
                    <= self.next_latent[rows, cols],
                    VISIBLE,
                    LATENT,
                ).astype(np.int8)
                previously_faulty = np.count_nonzero(
                    self.state[rows] != OK, axis=1
                )
                self._land_faults(
                    rows, cols, times, fault_code, previously_faulty
                )

            active = active[~self.lost[active]]
        self.now = float(until)

    # -- packaging ---------------------------------------------------------

    def result(self) -> BatchRunResult:
        """The outcome so far as a :class:`BatchRunResult`.

        Trials still alive are censored at the current time.
        """
        end_time = np.where(self.lost, self.end_time, self.now)
        return BatchRunResult(
            lost=self.lost.copy(),
            end_time=end_time,
            first_fault_type=self.first_type.copy(),
            final_fault_type=self.final_type.copy(),
            horizon=self.now,
            sweeps=self.sweeps,
        )


def simulate_batch_piecewise(
    segments: Sequence[RateSegment],
    trials: int,
    seed: int = 0,
    replicas: int = 2,
    chunk: int = 0,
    rng: Optional[np.random.Generator] = None,
    scheme: Optional[RedundancyScheme] = None,
) -> BatchRunResult:
    """Simulate ``trials`` systems through a piecewise-constant timeline.

    Each :class:`RateSegment` holds until its ``end_time``; at every
    boundary the state applies the explicit epoch semantics documented
    above (exposure-corrected fault clocks, re-anchored latent
    detection, in-flight repairs kept).  A single segment reproduces the
    physics of :func:`simulate_batch`, and a timeline split at any point
    into identical-rate segments returns bit-identical results for the
    same seed.

    Raises:
        ValueError: for an empty timeline or non-increasing segment end
            times.
    """
    if not segments:
        raise ValueError("at least one segment is required")
    previous_end = 0.0
    for segment in segments:
        if segment.end_time <= previous_end:
            raise ValueError("segment end times must be strictly increasing")
        previous_end = segment.end_time
    first = segments[0]
    state = PiecewiseBatchState(
        first.model,
        trials,
        replicas=replicas,
        audits_per_year=first.audits_per_year,
        rng=rng,
        seed=seed,
        chunk=chunk,
        scheme=scheme,
    )
    state.advance_to(first.end_time)
    for segment in segments[1:]:
        state.switch_model(segment.model, segment.audits_per_year)
        state.advance_to(segment.end_time)
    return state.result()
