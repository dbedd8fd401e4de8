r"""Vectorized batch Monte-Carlo backend.

Instead of running N independent :class:`SimulationEngine` event loops,
this backend simulates N replicated systems *simultaneously* with NumPy
array state: one clock per replica (its next fault while healthy, its
repair completion while faulty) and its fault flag, advancing every live
trial to its own next event in lock-step sweeps of batched draws.  Total
work is the same number of events as the event-driven backend, but the
per-event cost is a few vectorized array operations instead of a Python
callback dispatch, which is what makes thousand-scenario sweeps
practical (see ``benchmarks/test_bench_e14_batch_speedup.py``).

The backend simulates the same :class:`~repro.core.parameters.FaultModel`
system as the event engine (:func:`system_from_fault_model
<repro.simulation.system.system_from_fault_model>`):

* exponential visible and latent fault processes per replica;
* deterministic repairs (``MRV`` / ``MRL``);
* periodic scrubbing on the global audit grid ``I, 2I, 3I, ...`` with
  interval ``I = 2 * MDL`` (or derived from ``audits_per_year``),
  detection on arrival for ``MDL = 0``, or no scrubbing at all;
* the paper's non-compounding multiplicative correlation (fault rates
  of healthy replicas are divided by ``alpha`` while any replica is
  faulty).

Because the processes are memoryless and repairs deterministic, a
fault's entire recovery is known the instant it occurs: a visible fault
at ``t`` recovers at ``t + MRV``; a latent fault at ``t`` is detected at
the first audit-grid point after ``t`` and recovers ``MRL`` later (or
never, without scrubbing).  Each lock-step sweep therefore only has to
race per-replica fault arrivals against known recovery times.  A healthy
replica's visible and latent clocks race as one clock at their summed
rate, and a fault takes its type when it lands, visible with the
visible share of that rate (competing exponentials).  When a trial
enters or leaves the degraded regime its healthy replicas' pending
arrivals are stretched to the new rate (memorylessness) — exactly the
behaviour of the event-driven
:class:`~repro.simulation.system.ReplicatedStorageSystem`, which the
cross-validation tests in ``tests/simulation/test_batch.py`` check
estimate-for-estimate.

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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.rng import batch_generator, piecewise_generator
from repro.simulation.scrubbing import (
    audit_detection_time,
    audit_interval_for,
)

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


#: Version of the kernel's random stream, i.e. of how a seed's generator
#: is consumed (see the draw-order comment above the kernel).  The keys
#: of stored fleet chunks and planner refinements carry it, so bump it
#: whenever the kernel draws differently: entries stored under the old
#: stream then miss instead of mixing with results of the new one, which
#: would make a warm run differ from a cold run at the same seed.
#: Version 3: one clock per replica, stretched on regime changes.
STREAM_VERSION = 3


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

    A stationary run is a one-segment timeline: each block of at most
    :data:`MAX_EAGER_TRIALS` trials is a :class:`PiecewiseBatchState`
    on the chunk's batch stream, advanced straight to the horizon.

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
    if trials <= 0:
        raise ValueError("trials must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = batch_generator(seed, chunk)
    tel = obs.current()
    began = time.perf_counter() if tel.enabled else 0.0
    # Memory cap: subdivide, reusing the same generator sequentially so
    # the whole run stays a deterministic function of (seed, chunk).
    blocks = []
    for start in range(0, trials, MAX_EAGER_TRIALS):
        state = PiecewiseBatchState(
            model,
            min(MAX_EAGER_TRIALS, trials - start),
            replicas=replicas,
            audits_per_year=audits_per_year,
            rng=rng,
            scheme=scheme,
            bias=bias,
        )
        state.advance_to(horizon)
        blocks.append(state.result())
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
    if len(blocks) == 1:
        return blocks[0]

    def joined(field: str) -> np.ndarray:
        return np.concatenate([getattr(block, field) for block in blocks])

    return BatchRunResult(
        lost=joined("lost"),
        end_time=joined("end_time"),
        first_fault_type=joined("first_fault_type"),
        final_fault_type=joined("final_fault_type"),
        horizon=horizon,
        sweeps=sum(block.sweeps for block in blocks),
        log_weight=(
            None if blocks[0].log_weight is None else joined("log_weight")
        ),
    )


# ---------------------------------------------------------------------------
# The kernel: piecewise-constant (epoch-switched) rates
# ---------------------------------------------------------------------------
#
# Random numbers come from one generator shared by every trial of the
# state, in a fixed order: the time-zero clocks, then per sweep one
# ``exponential(1.0, n)`` for the replicas returning to service and one
# ``random(n)`` for the types of the faults landing.  Which draw a trial
# receives therefore depends on how the sweeps batch it with the others,
# so cutting a timeline (an epoch boundary, a shock time) changes a
# seed's outcome but not its distribution.  The stream's layout is
# versioned as :data:`STREAM_VERSION`.
#
# A sweep takes each live trial's next event (its earliest clock, the
# first replica on ties), lets the trials whose event lies at or past
# the target time wait, and splits the rest once, by index arrays, into
# recoveries (the event's replica is faulty) and landings (it is
# healthy).  Recoveries are applied first; trials are independent, so
# the order only fixes which draws each batch receives.  A sweep holds
# each trial once, so its landings add to the faulty counts directly,
# while a shock, which can fault several replicas of one trial at once,
# accumulates them with ``np.add.at``.
#
# Regime changes draw nothing.  A healthy replica's clock ``c`` was
# drawn at some sampling mean; at time ``t`` its remaining delay
# ``c - t`` is an exponential with that mean (memorylessness), so
# stretching it to ``t + (c - t) * m_new / m_old`` yields exactly the
# remaining delay at the new mean ``m_new`` (scale family).  A trial
# entering the degraded regime (a fault or a shock takes it from zero
# to one faulty replica) stretches its healthy replicas by ``alpha /
# bias``, and leaving it (its last faulty replica recovers) by the
# inverse.  The replica that recovered draws its clock at the rate of
# the regime it returns to, after the stretch, so it is not stretched.
#
# Epoch boundaries are regime changes too:
#
# * A healthy replica's clock is *exposure-corrected* when the rates
#   change mid-trial: it is stretched by the ratio of the new sampling
#   mean to the old one, as above, and the next fault to land takes its
#   type from the new epoch's visible share.  A switch to the same
#   rates changes no state.
# * A latent fault still *undetected* at a boundary (its detection time
#   lies beyond it) is re-anchored to the new epoch's audit grid: the
#   detection moves to the first new-grid point after the boundary (or
#   to never, when the new epoch does not scrub) and the repair follows
#   at the new epoch's ``MRL``.  When the grid is unchanged this is the
#   identity, because no old-grid point can lie between the fault and
#   the boundary (the fault would already have been detected).  The
#   detection time is not stored: it is the recovery time (the faulty
#   replica's clock) less the ``MRL`` the repair was scheduled with.
# * An *in-flight* repair (visible, or latent already detected) keeps
#   its completion time: the repair started under the old regime and
#   its duration was fixed the moment it began.


class PiecewiseBatchState:
    """Resumable vectorized batch state with epoch-switched rates.

    The one Monte-Carlo kernel (exponential visible/latent faults,
    deterministic repairs, audit-grid latent detection, the paper's
    non-compounding multiplicative correlation, optional failure
    biasing), exposed as a *state machine*:

    * :meth:`advance_to` runs lock-step sweeps up to an absolute time,
      leaving surviving trials live with their pending clocks intact;
    * :meth:`switch_model` applies a rate-regime change at the current
      time with the boundary semantics documented above;
    * :meth:`inject_faults` lands external faults (correlated shocks)
      on selected trials, entering the exact same degraded-regime
      machinery as organic faults;
    * :meth:`result` packages the outcome as a :class:`BatchRunResult`.

    With ``bias`` set, the importance-sampling exposure integral and
    jump term accumulate across :meth:`advance_to` calls into
    ``log_weight``.  With ``track_years`` set, ``repair_year_counts``
    accumulates completed repairs per calendar year for cost
    accounting and ``repairs`` counts them per trial.
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
        bias: Optional[float] = None,
    ) -> None:
        if scheme is not None:
            replicas = scheme.n
        if trials <= 0:
            raise ValueError("trials must be positive")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if bias is not None and bias <= 0:
            raise ValueError("bias must be positive")
        self._rng = rng if rng is not None else piecewise_generator(seed, chunk)
        self.trials = trials
        self.replicas = replicas
        self.loss_threshold = (
            scheme.loss_threshold if scheme is not None else replicas
        )
        self.now = 0.0
        self.sweeps = 0
        # Failure biasing (see the module docstring): ``log_weight``
        # accumulates each trial's likelihood ratio sojourn by sojourn,
        # and ``_last_event`` is how far its exposure integral has run.
        self._accel = 1.0 if bias is None else float(bias)
        weighting = self._accel != 1.0
        self.log_weight = np.zeros(trials) if weighting else None
        self._last_event = np.zeros(trials) if weighting else None

        self.state = np.zeros((trials, replicas), dtype=np.int8)
        self.fault_time = np.full((trials, replicas), np.inf)

        self.lost = np.zeros(trials, dtype=bool)
        self.end_time = np.full(trials, np.inf)
        self.first_type = np.full(trials, -1, dtype=np.int8)
        self.final_type = np.full(trials, -1, dtype=np.int8)
        self.shock_faults = 0
        tracking = track_years is not None
        self.repairs = np.zeros(trials, dtype=np.int64) if tracking else None
        self.repair_year_counts = (
            np.zeros(int(track_years) + 1, dtype=np.int64)
            if tracking
            else None
        )
        # When the latest epoch began, and the MRL each fault older than
        # that was scheduled with (see ``switch_model``).
        self._switched_at = 0.0
        self._latent_mrl: Union[float, np.ndarray] = 0.0

        self._set_model(model, audits_per_year)
        # One clock per replica: its next fault (of either type) while
        # healthy, its recovery while faulty.  ``_faulty`` is what each
        # sweep would otherwise recount from the 2-D state; every writer
        # of ``state`` keeps ``_faulty == count_nonzero(state != OK,
        # axis=1)``.
        self.clock = self._rng.exponential(
            self._mean_fault, (trials, replicas)
        )
        self._faulty = np.zeros(trials, dtype=np.int64)

    # -- model / regime ----------------------------------------------------

    def _set_model(
        self, model: FaultModel, audits_per_year: Optional[float]
    ) -> None:
        self.model = model
        self._interval = audit_interval_for(model, audits_per_year)
        self._repair_visible = model.mean_repair_visible
        self._repair_latent = model.mean_repair_latent
        self._alpha = model.correlation_factor
        self._total_rate = model.total_fault_rate
        # A healthy replica's clock races both fault types at their
        # summed rate; the fault that lands is visible with the visible
        # share of it.
        self._mean_fault = 1.0 / self._total_rate
        self._visible_share = model.visible_rate / self._total_rate
        # Degraded trials sample at ``alpha / accel`` times the base
        # mean, so entering or leaving that regime stretches the healthy
        # replicas' clocks whenever the two rates differ.
        self._degraded_scale = self._alpha / self._accel
        self._inv_alpha = 1.0 / self._alpha

    def _stretch(
        self,
        rows: np.ndarray,
        times: np.ndarray,
        factor: Union[float, np.ndarray],
        all_healthy: bool = False,
    ) -> None:
        """Stretch the pending fault clocks of the healthy replicas of
        ``rows`` (unique) by ``factor`` (one, or one per row as a
        column) from ``times``: memorylessness makes a stretched
        residual exact.  ``all_healthy`` skips the health mask when
        every replica of ``rows`` is healthy."""
        clocks = self.clock.take(rows, axis=0)
        anchor = times[:, None]
        stretched = anchor + (clocks - anchor) * factor
        if not all_healthy:
            healthy = self.state.take(rows, axis=0) == OK
            stretched = np.where(healthy, stretched, clocks)
        self.clock[rows] = stretched

    def switch_model(
        self, model: FaultModel, audits_per_year: Optional[float] = None
    ) -> None:
        """Change the rate regime at the current time (epoch boundary).

        Pending fault clocks of healthy replicas are exposure-corrected
        by the ratio of the new sampling mean to the old one (per trial,
        because degraded trials sample at ``mean * alpha / bias``);
        undetected latent faults re-anchor to the new audit grid;
        in-flight repairs keep their completion times.  Nothing is
        drawn, and a switch to an identical regime changes no state.
        """
        now = self.now
        degraded = self._faulty > 0
        old_mean = self._mean_fault * np.where(degraded, self._alpha, 1.0)
        new_mean = (1.0 / model.total_fault_rate) * np.where(
            degraded, model.correlation_factor, 1.0
        )
        factor = new_mean / old_mean
        # Skipping factor-1 trials keeps the no-change boundary bit-exact
        # (now + (x - now) * 1.0 need not round to x).
        rows = np.flatnonzero((factor != 1.0) & ~self.lost)
        if rows.size:
            self._stretch(rows, np.full(rows.size, now), factor[rows, None])

        # A latent recovery is its detection plus the MRL it was
        # scheduled with: the outgoing epoch's for faults landed since
        # the last switch, the recorded one for older faults.
        scheduled_mrl = np.where(
            self.fault_time >= self._switched_at,
            self._repair_latent,
            self._latent_mrl,
        )
        old_interval = self._interval
        old_repair_latent = self._repair_latent
        self._set_model(model, audits_per_year)

        undetected = (
            (self.state == LATENT)
            & (self.clock > now + scheduled_mrl)
            & ~self.lost[:, None]
        )
        if undetected.any() and (
            self._interval != old_interval
            or self._repair_latent != old_repair_latent
        ):
            self.clock[undetected] = (
                audit_detection_time(now, self._interval) + self._repair_latent
            )
            scheduled_mrl[undetected] = self._repair_latent
        self._latent_mrl = scheduled_mrl
        self._switched_at = now

    # -- fault landing (shared by organic faults and shocks) ---------------

    def _land_faults(
        self,
        rows: np.ndarray,
        cells: np.ndarray,
        times: np.ndarray,
        fault_code: np.ndarray,
        repeated_rows: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fault healthy replicas and mark the trials this loses.

        ``cells`` are flat ``row * replicas + replica`` indices and must
        be unique.  The whole recovery is determined at fault time:
        visible faults repair after MRV; latent faults wait for the next
        audit-grid point, then repair after MRL (never, without
        scrubbing).  A row may repeat with different replicas, for a
        simultaneous multi-replica event (shock), only with
        ``repeated_rows``.  Returns each row's faulty count after the
        landing and the positions (into ``rows``) of the landings that
        lose their trial.
        """
        self.state.reshape(-1)[cells] = fault_code
        self.fault_time.reshape(-1)[cells] = times
        self.clock.reshape(-1)[cells] = np.where(
            fault_code == VISIBLE,
            times + self._repair_visible,
            audit_detection_time(times, self._interval) + self._repair_latent,
        )

        if repeated_rows:
            # ``add.at`` because a multi-replica shock repeats its row.
            np.add.at(self._faulty, rows, 1)
            faulty_now = self._faulty[rows]
        else:
            faulty_now = self._faulty.take(rows) + 1
            self._faulty[rows] = faulty_now
        # An (n, k) scheme loses as soon as the faulty count reaches
        # n - k + 1; ``>=`` because a multi-replica shock can jump past
        # the threshold in one landing.
        losses = (faulty_now >= self.loss_threshold).nonzero()[0]
        if losses.size:
            l_rows = rows.take(losses)
            self.lost[l_rows] = True
            self.end_time[l_rows] = times.take(losses)
            self.final_type[l_rows] = fault_code.take(losses)
            oldest = np.argmin(self.fault_time.take(l_rows, axis=0), axis=1)
            self.first_type[l_rows] = self.state.reshape(-1).take(
                l_rows * self.replicas + oldest
            )
        return faulty_now, losses

    def inject_faults(
        self,
        time: float,
        members: np.ndarray,
        replica_hits: np.ndarray,
        fault_code: int = VISIBLE,
    ) -> None:
        """Land external (shock) faults on selected trials at ``time``.

        A ``time`` after the current time first advances the state to
        it, so every organic event before the shock happens first.

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
        if time > self.now:
            self.advance_to(time)
        members = np.asarray(members)
        alive = ~self.lost[members]
        members = members[alive]
        replica_hits = np.asarray(replica_hits, dtype=bool)[alive]
        if members.size == 0:
            return
        hits = replica_hits & (self.state.take(members, axis=0) == OK)
        if not hits.any():
            return
        rows_2d, cols_2d = np.nonzero(hits)
        previously_faulty = self._faulty[members]
        # One landing call so a multi-replica hit runs the loss logic a
        # simultaneous multi-fault shock implies; each cell appears once
        # because a replica column appears once per row.
        row_trials = members[rows_2d]
        self.shock_faults += row_trials.size
        times = np.full(row_trials.size, float(time))
        codes = np.full(row_trials.size, fault_code, dtype=np.int8)
        _, losses = self._land_faults(
            row_trials,
            row_trials * self.replicas + cols_2d,
            times,
            codes,
            repeated_rows=True,
        )
        if self._degraded_scale != 1.0:
            # Entering the degraded regime: a shock is not drawn from
            # the biased clocks, so it adds no jump term, but the
            # surviving replicas now race at the degraded rate.
            entered = previously_faulty[rows_2d] == 0
            entered[losses] = False
            if entered.any():
                e_rows = np.unique(row_trials[entered])
                self._stretch(
                    e_rows, np.full(e_rows.size, float(time)),
                    self._degraded_scale,
                )

    # -- time advance ------------------------------------------------------

    def advance_to(self, until: float) -> None:
        """Run lock-step sweeps until every live trial's next event is at
        or beyond ``until`` (events at exactly ``until`` belong to the
        next epoch).  Surviving trials keep their pending clocks."""
        if until < self.now:
            raise ValueError("cannot advance backwards")
        # The sweep loop reads its arrays and constants from locals,
        # addresses (trial, replica) cells through flat ``trial *
        # replicas + replica`` indices, and splits its trials with index
        # arrays (``nonzero`` + ``take``) rather than boolean masks.
        rng = self._rng
        flat_state = self.state.reshape(-1)
        flat_fault_time = self.fault_time.reshape(-1)
        clock = self.clock
        flat_clock = clock.reshape(-1)
        faulty = self._faulty
        lost = self.lost
        replicas = self.replicas
        pairs = replicas == 2
        if pairs:
            first_clock, second_clock = clock[:, 0], clock[:, 1]
        mean_fault = self._mean_fault
        visible_share = self._visible_share
        visible_code, latent_code = np.int8(VISIBLE), np.int8(LATENT)
        degraded_scale = self._degraded_scale
        # Regime changes stretch clocks where the two regimes' sampling
        # rates differ, on trials that can be degraded without having
        # lost (a loss threshold of one loses at every fault).
        stretching = degraded_scale != 1.0 and self.loss_threshold > 1
        log_weight = self.log_weight
        weighting = log_weight is not None
        if weighting:
            last_event = self._last_event
            log_accel = math.log(self._accel)
            # Exposure term of the likelihood ratio per hour, by faulty
            # count: sampling only differs from the truth during
            # degraded sojourns, where the true intensity is healthy
            # replicas x per-replica rate divided by alpha.
            healthy = replicas - np.arange(replicas + 1)
            exposure_rate = (self._accel - 1.0) * np.where(
                healthy < replicas,
                healthy * self._total_rate * self._inv_alpha,
                0.0,
            )
        repairs = self.repairs
        year_counts = self.repair_year_counts
        if repairs is not None:
            last_year = year_counts.size - 1

        live = np.flatnonzero(~lost)
        sweeps = 0
        while live.size:
            sweeps += 1
            # Next event per live trial: the earliest of its replicas'
            # clocks, the first replica on ties.  A pair compares its
            # two columns; wider rows take one ``argmin``, which costs
            # less than a pass per column from three replicas up.
            if pairs:
                first = first_clock.take(live)
                second = second_clock.take(live)
                cell = live * 2 + (second < first)
                event_time = np.minimum(first, second)
            else:
                earliest = clock.take(live, axis=0).argmin(axis=1)
                cell = live * replicas + earliest
                event_time = flat_clock.take(cell)

            if weighting:
                # Between a trial's consecutive events its regime is
                # constant, so its exposure runs to its next event (or
                # to ``until``) at the rate of its faulty count.
                segment_end = np.minimum(event_time, until)
                log_weight[live] += exposure_rate.take(faulty.take(live)) * (
                    segment_end - last_event.take(live)
                )
                last_event[live] = segment_end

            # Trials whose next event falls at or past ``until`` wait.
            running = (event_time < until).nonzero()[0]
            if running.size < live.size:
                if running.size == 0:
                    break
                live = live.take(running)
                cell = cell.take(running)
                event_time = event_time.take(running)
            # Each event is a recovery (its replica is faulty) or a
            # landing fault (its replica is healthy).
            event_state = flat_state.take(cell)
            recovering = event_state.nonzero()[0]
            landing = (event_state == OK).nonzero()[0]

            if recovering.size:
                rows = live.take(recovering)
                cells = cell.take(recovering)
                times = event_time.take(recovering)
                flat_state[cells] = OK
                flat_fault_time[cells] = np.inf
                remaining = faulty.take(rows) - 1
                faulty[rows] = remaining
                if repairs is not None:
                    repairs[rows] += 1
                    year = (times / HOURS_PER_YEAR).astype(np.int64)
                    np.add.at(year_counts, np.minimum(year, last_year), 1)
                # The recovered replica's next fault comes at the
                # sampling rate of the regime the trial is in now
                # (divided by alpha while it stays degraded — the
                # paper's non-compounding correlation — and accelerated
                # by the failure bias there).
                delay = rng.exponential(1.0, rows.size) * mean_fault
                if stretching:
                    back = remaining == 0
                    delay *= np.where(back, 1.0, degraded_scale)
                    leaving = back.nonzero()[0]
                    if leaving.size:
                        # Leaving the degraded regime: the other healthy
                        # replicas slow back to base-rate arrivals.  The
                        # recovered replica's clock still reads its
                        # recovery time, which a stretch from that time
                        # leaves as it is.
                        self._stretch(
                            rows.take(leaving),
                            times.take(leaving),
                            1.0 / degraded_scale,
                            all_healthy=True,
                        )
                flat_clock[cells] = times + delay

            if landing.size:
                rows = live.take(landing)
                cells = cell.take(landing)
                times = event_time.take(landing)
                # Competing exponentials: the landing fault is visible
                # with the visible share of the summed rate in force.
                fault_code = np.where(
                    rng.random(rows.size) < visible_share,
                    visible_code,
                    latent_code,
                )
                if stretching:
                    # Entering the degraded regime (0 -> 1 faulty
                    # replicas): healthy replicas' pending arrivals
                    # accelerate by 1/alpha and by the failure bias.
                    # The stretch runs before the landing, while every
                    # replica is healthy: the landing one's clock reads
                    # the fault time, which the stretch leaves as it is
                    # and the landing then overwrites.
                    entering = (faulty.take(rows) == 0).nonzero()[0]
                    if entering.size:
                        self._stretch(
                            rows.take(entering),
                            times.take(entering),
                            degraded_scale,
                            all_healthy=True,
                        )
                faulty_now, losses = self._land_faults(
                    rows, cells, times, fault_code
                )
                if weighting:
                    # Jump term: a fault landing on an already-degraded
                    # trial fired from a clock sampled at ``accel``
                    # times its true rate; first faults fired at the
                    # true rate.
                    log_weight[rows[faulty_now >= 2]] -= log_accel
                if losses.size:
                    live = live[~lost.take(live)]
        self.sweeps += sweeps
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
            log_weight=(
                None if self.log_weight is None else self.log_weight.copy()
            ),
        )
