"""The Monte-Carlo estimation loop behind every simulated answer.

:func:`repro.study.run` dispatches its simulated point estimates straight
to :func:`run_mttdl` and :func:`run_loss_probability`, which library
callers may also call directly with a
:class:`~repro.core.parameters.FaultModel`.  This module also owns the
shared plumbing:

* :func:`check_backend` / :func:`check_method` /
  :func:`check_variance_reduction` — validation of the ``backend`` /
  ``method`` / ``variance_reduction`` knobs (one error message,
  everywhere);
* :func:`adaptive_cap` — the ``target_relative_error`` trial budget;
* :func:`zero_loss_ci_high` — the rule-of-three upper bound attached to
  zero-loss refinements.

Backends
--------

Both estimators accept ``backend="batch"`` (the default — the vectorized
lock-step simulator in :mod:`repro.simulation.batch`) or
``backend="event"`` (one
:class:`~repro.simulation.system.ReplicatedStorageSystem` event loop per
trial, the batch kernel's cross-validation reference, which simulates
the same model 1-2 orders of magnitude slower).  The two backends draw
from disjoint streams of the same root seed, so their trajectories
differ trial-for-trial but their estimates agree within Monte-Carlo
noise (cross-validated in ``tests/simulation/test_batch.py``).

Adaptive sampling
-----------------

Every estimate is a stream of per-trial scores summed into a tally: a
0/1 loss (with the trial's observed time, for the MTTDL), an
importance-weighted 0/1 loss
(:class:`~repro.simulation.rare_event.WeightedLossTally`) or a
conditional loss probability
(:class:`~repro.simulation.variance_reduction.ControlVariateTally`),
the last two with the trial's time past the loss for the MTTDL, whose
moments both keep in a :class:`LossScoreTally`.  One loop draws chunks
of ``trials`` into the tally.  Without ``target_relative_error`` it
stops after the first chunk; with one, it keeps extending until the
tally's relative error falls to the target or ``max_trials`` (default
64 chunks) is reached, the last chunk clamped so that the cap is hard.  Each tally owns its relative-error rule:
``1/sqrt(losses)`` for the MTTDL's MLE, ``sqrt((1 - p) / losses)`` for a
plain loss proportion, and the sample standard error over the mean for
weighted and conditional scores.  Chunks use independent sub-streams of
the root seed, so an adaptive run is exactly reproducible for a given
seed regardless of where it stops.  Every chunk is traced as one
``pilot_round`` event.

Censoring
---------

:func:`run_mttdl` treats trials that survive to the horizon as
*censored* observations and uses the censoring-correct exponential MLE —
total observed time divided by the number of observed losses — rather
than folding horizon times into a plain sample mean (which would bias
the MTTDL downward exactly when the system is most reliable).  A
:class:`HighCensoringWarning` is emitted when more than 20% of trials
are censored; with no observed losses at all the estimate is infinite
and only meaningful as "no loss seen in ``total time`` of operation".
Weighted and conditional MTTDLs estimate the same ratio, the expected
time on test over the loss probability (:func:`time_on_test_mttdl`):
``(T - mean w (T - τ) 1{lost}) / mean w 1{lost}`` under importance
sampling, ``mean ∫₀ᵀ exp(-Λ_i(t)) dt / mean (1 - exp(-Λ_i(T)))``
under the control variate, each with the ratio delta method's
standard error.  Unlike inverting ``p = 1 - exp(-T / MTTDL)``, the
ratio keeps its resolution at horizons where nearly every trial loses
data.

Rare-event methods
------------------

At realistic archival operating points almost every trial censors and
the standard estimators degenerate.  Both estimators therefore accept a
``method``:

* ``"standard"`` — plain Monte-Carlo as described above (the default).
* ``"is"`` — failure-biased importance sampling on the batch machinery
  (:mod:`repro.simulation.rare_event`): degraded-regime fault clocks
  are accelerated and the trials reweighted by exact path-measure
  likelihood ratios.  The ``backend`` argument is ignored (IS always
  runs vectorized).
* ``"auto"`` — on the batch backend without a ``bias``, a
  threshold-2 question (a pair or an ``(n, n-1)`` code) is answered by
  the control variate, exactly as ``variance_reduction="cv"`` answers
  it, whenever its horizon is short enough, in screened MTTDLs, for the
  skeleton to finish first (:data:`AUTO_CV_SPANS`): its scores
  integrate the loss-causing fault, so it meets a target in a fraction
  of the trials, but it walks every trial to the horizon, where a
  standard chunk stops each trial at its loss.  Otherwise ``auto``
  runs one standard pilot chunk; when it censors too heavily to be
  informative (above the :data:`CENSORED_WARNING_FRACTION` threshold
  for MTTDL, fewer than :data:`AUTO_MIN_LOSSES` observed losses for
  loss probabilities), it discards it and switches to ``"is"``;
  otherwise it keeps extending the standard run.  The check is asked
  once, after the first chunk.  A loss-probability pilot that the
  analytic screen expects to see at most :data:`AUTO_SKIP_PILOT_LOSSES`
  losses is not drawn: the run switches before it.  The answer is
  unchanged, because importance sampling starts on chunk 0's stream
  whether or not a pilot ran first.  MTTDL pilots always run, since one
  may stay standard with a few losses when its target is loose.

Weighted estimates report a Kish effective sample size
(``MonteCarloEstimate.effective_sample_size``); an ESS far below the
observed loss count signals weight degeneracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme, resolve_scheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.batch import BatchRunResult, simulate_batch
from repro.simulation.rng import RandomStreams
from repro.simulation.system import RunResult, system_from_fault_model

#: Fraction of censored trials above which a warning is emitted.
CENSORED_WARNING_FRACTION = 0.2

#: Default cap on adaptive sampling, as a multiple of the initial chunk.
DEFAULT_ADAPTIVE_CHUNK_LIMIT = 64

#: ``method="auto"``: a loss-probability pilot with fewer observed
#: losses than this switches to a rare-event method (at 20 losses the
#: standard binomial relative error is still ~22%).
AUTO_MIN_LOSSES = 20

#: ``method="auto"``: a loss-probability run whose standard pilot the
#: analytic screen expects to see at most this many losses skips the
#: pilot and starts importance sampling at once.  Measured on the
#: benchmark's planner and estimate questions (seeds 1-10, 500 auto
#: refinements at loss thresholds 3-4 over 17 designs), the screen
#: under-predicts a design's simulated loss probability by at most
#: 2.1x (pooled over its 40 runs); every pilot it expected to see at
#: most 17.9 losses was discarded, and a pilot expected to see 1 (so at
#: most ~2.5) reaches the :data:`AUTO_MIN_LOSSES` that would keep it with
#: a chance below 1e-11.
AUTO_SKIP_PILOT_LOSSES = 1.0

#: ``method="auto"``: the horizon, in screened MTTDLs, up to which the
#: control variate answers a threshold-2 question of each kind faster
#: than a standard chunk, once chunks are large enough that per-trial
#: work dominates.  The skeleton walks every trial to the horizon while
#: a standard chunk stops each trial at its loss, so the control
#: variate's edge shrinks as the horizon grows, and sooner for an MTTDL,
#: whose skeleton also integrates the time on test window by window.
#: Timed on the alpha 0.5, MDL 730 h pair (2 x86-64 cores, no numba,
#: fastest of 7 alternating runs, no target), the break-even fell from
#: 7.7 (loss) and 5 (MTTDL) MTTDLs in 2,000-trial chunks to 3.9 and 2.7
#: in 20,000-trial chunks and about 4 and 2.5 in 50,000-trial ones.
AUTO_CV_SPANS: Dict[str, float] = {"loss_probability": 3.5, "mttdl": 2.2}

#: ``method="auto"``: the chunk size at which the control variate's
#: bound is twice :data:`AUTO_CV_SPANS`.  It grows as
#: ``1 + AUTO_CV_SWEEP_TRIALS / n`` for ``n``-trial chunks, because the
#: standard kernel's fixed cost per sweep, worth about this many trials'
#: work, weighs more in small chunks.  On the pair above, a control
#: variate run at the bound took 0.62-0.98 of a standard chunk's time
#: in chunks of 200 to 50,000 trials.
AUTO_CV_SWEEP_TRIALS = 2000

#: Recognised estimator methods, in the order help text lists them.
METHODS: Tuple[str, ...] = ("standard", "is", "auto")

#: Recognised simulation backends.
BACKENDS: Tuple[str, ...] = ("event", "batch")

#: Recognised variance-reduction modes (see
#: :mod:`repro.simulation.variance_reduction`).
VARIANCE_REDUCTIONS: Tuple[str, ...] = ("none", "cv")

_UNSET = object()


class HighCensoringWarning(UserWarning):
    """More than 20% of MTTDL trials were censored at the horizon.

    The censoring-correct MLE stays unbiased, but its confidence
    interval widens sharply; extend the horizon or the trial count.
    """


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Aggregated estimate from repeated simulation trials.

    Attributes:
        mean: the estimated quantity (``inf`` for an MTTDL run that
            observed no losses at all).
        std_error: standard error of the estimate.
        trials: number of trials contributing.
        censored: how many trials were censored (data survived to the
            horizon) when estimating a time-to-loss.
        clamp_lo: default lower clamp applied by
            :meth:`confidence_interval` (physical quantities like times
            and probabilities cannot be negative).
        clamp_hi: default upper clamp (1.0 for probabilities).
        method: how the estimate was produced (``"standard"``, ``"is"``
            or ``"cv"`` — an ``"auto"`` run records what it resolved
            to).
        effective_sample_size: Kish effective sample size of the
            importance weights behind a weighted estimate; ``None`` for
            unweighted methods.
    """

    mean: float
    std_error: float
    trials: int
    censored: int = 0
    clamp_lo: Optional[float] = 0.0
    clamp_hi: Optional[float] = None
    method: str = "standard"
    effective_sample_size: Optional[float] = None

    def confidence_interval(
        self, z: float = 1.96, lo: object = _UNSET, hi: object = _UNSET
    ) -> Tuple[float, float]:
        """Normal-approximation confidence interval (default 95%).

        The interval is clamped to ``[lo, hi]``; the bounds default to
        the estimate's own ``clamp_lo`` / ``clamp_hi`` (pass ``None``
        explicitly to disable clamping on one side).
        """
        lo_bound = self.clamp_lo if lo is _UNSET else lo
        hi_bound = self.clamp_hi if hi is _UNSET else hi
        if math.isfinite(self.mean) and math.isfinite(self.std_error):
            low = self.mean - z * self.std_error
            high = self.mean + z * self.std_error
        else:
            low, high = -math.inf, math.inf
        if lo_bound is not None:
            low = max(low, lo_bound)
            high = max(high, lo_bound)
        if hi_bound is not None:
            high = min(high, hi_bound)
            low = min(low, hi_bound)
        return (low, high)

    @property
    def relative_error(self) -> float:
        """Standard error as a fraction of the mean.

        A zero mean (no observed losses) returns ``inf``, never 0: the
        estimate carries no information about its own precision, and
        reading it as "perfectly converged" would terminate adaptive
        sampling the moment a rare-event run starts.
        """
        if self.mean == 0:
            return math.inf
        if not math.isfinite(self.mean):
            return math.inf
        return self.std_error / abs(self.mean)

    @property
    def losses(self) -> int:
        """Trials that actually observed a loss."""
        return self.trials - self.censored


def check_backend(backend: str) -> None:
    """Validate a simulation backend."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected 'event' or 'batch'")


def check_method(method: str) -> None:
    """Validate an estimator method."""
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )


def check_variance_reduction(
    variance_reduction: str,
    backend: str,
    method: str,
    bias: Optional[float],
) -> None:
    """Validate a ``variance_reduction`` / estimator combination.

    The variance-reduced estimators replace the sampling scheme itself,
    so they only compose with the plain batch estimator: rare-event
    methods, the event backend and explicit failure biasing are all
    rejected with a pointer to the working alternative.
    """
    if variance_reduction not in VARIANCE_REDUCTIONS:
        raise ValueError(
            f"unknown variance_reduction {variance_reduction!r}; expected "
            f"one of {VARIANCE_REDUCTIONS}"
        )
    if variance_reduction == "none":
        return
    if backend != "batch":
        raise ValueError(
            "variance reduction requires backend='batch'"
        )
    if method != "standard":
        raise ValueError(
            "variance reduction replaces the sampling scheme; combine it "
            "with method='standard' only (importance sampling is an "
            "alternative, not a composable layer)"
        )
    if bias is not None:
        raise ValueError(
            "bias is an importance-sampling knob; it cannot be combined "
            "with variance_reduction"
        )


def adaptive_cap(trials: int, max_trials: Optional[int]) -> int:
    """Hard trial budget of an adaptive (``target_relative_error``) run."""
    if max_trials is None:
        return trials * DEFAULT_ADAPTIVE_CHUNK_LIMIT
    if max_trials < trials:
        raise ValueError("max_trials must be at least the initial trial count")
    return max_trials


def zero_loss_ci_high(trials: int) -> float:
    """Rule-of-three upper confidence bound for a zero-loss run."""
    from repro.simulation.rare_event import RULE_OF_THREE

    if trials <= 0:
        raise ValueError("trials must be positive")
    return min(1.0, RULE_OF_THREE / trials)


def mttdl_mle(
    total_time: float, losses: int, trials: int
) -> MonteCarloEstimate:
    """Censoring-correct exponential MLE: total observed time / losses.

    For an exponential time-to-loss with right censoring, the MLE of the
    mean is the total time on test divided by the number of observed
    losses; its standard error is ``mean / sqrt(losses)``.
    """
    censored = trials - losses
    if trials > 0 and censored / trials > CENSORED_WARNING_FRACTION:
        warnings.warn(
            f"{censored} of {trials} trials were censored at the horizon "
            f"({censored / trials:.0%}); the MLE stays unbiased but its "
            "confidence interval is wide — extend max_time or trials",
            HighCensoringWarning,
            stacklevel=3,
        )
    if losses == 0:
        return MonteCarloEstimate(
            mean=math.inf, std_error=math.inf, trials=trials, censored=censored
        )
    mean = total_time / losses
    return MonteCarloEstimate(
        mean=mean,
        std_error=mean / math.sqrt(losses),
        trials=trials,
        censored=censored,
    )


def time_on_test_mttdl(
    horizon: float,
    trials: int,
    sum_x: float,
    sum_x_sq: float,
    sum_z: float,
    sum_z_sq: float,
    sum_xz: float,
) -> Tuple[float, float]:
    """MTTDL and its standard error from per-trial loss scores.

    Each trial scores ``x``, its (importance-weighted or conditional)
    chance of a loss by ``horizon``, and ``z``, its matching share of
    the horizon left after that loss.  The expected time on test is
    ``E[min(τ, T)] = T - E[z]`` and the loss probability ``E[x]``, so
    the MTTDL is ``(T - mean z) / mean x``: the estimand of the plain
    MLE's total time over losses, at any horizon.  Its standard error is
    the ratio estimator's delta method, ``sd(z + M x) / (sqrt(n) mean
    x)``.  Without a positive score the MTTDL is infinite.
    """
    if trials == 0 or sum_x <= 0.0:
        return math.inf, math.inf
    mean_x = sum_x / trials
    mean_z = sum_z / trials
    mttdl = (horizon - mean_z) / mean_x
    if trials < 2:
        return mttdl, math.inf
    # The sample variance of z + M x, expanded into the tallied moments.
    spread = (
        (sum_z_sq - trials * mean_z * mean_z)
        + 2.0 * mttdl * (sum_xz - trials * mean_x * mean_z)
        + mttdl * mttdl * (sum_x_sq - trials * mean_x * mean_x)
    ) / (trials - 1)
    return mttdl, math.sqrt(max(spread, 0.0) / trials) / mean_x


@dataclass
class LossScoreTally:
    """Running moments of per-trial loss scores ``x`` and, for an MTTDL
    run, times past the loss ``z``: what :func:`time_on_test_mttdl`
    reads.

    The importance-sampling and control-variate tallies extend it with
    their own ``estimate()`` (the loss probability) and inherit the
    MTTDL from it.
    """

    trials: int = 0
    sum_x: float = 0.0
    sum_x_sq: float = 0.0
    sum_z: float = 0.0
    sum_z_sq: float = 0.0
    sum_xz: float = 0.0

    def add_scores(
        self, trials: int, x: np.ndarray, z: Optional[np.ndarray]
    ) -> None:
        """Tally ``trials`` more trials.  ``x`` holds the loss scores of
        those that may score above 0 (the rest score 0) and ``z`` their
        times past the loss, or ``None`` for a loss-probability run."""
        self.trials += trials
        self.sum_x += float(x.sum())
        self.sum_x_sq += float(np.square(x).sum())
        if z is not None:
            self.sum_z += float(z.sum())
            self.sum_z_sq += float(np.square(z).sum())
            self.sum_xz += float((x * z).sum())

    def mttdl_estimate(self, horizon: float) -> MonteCarloEstimate:
        """The tallied trials as an MTTDL estimate: time on test over the
        loss probability, with the loss estimate's method, censoring
        and effective sample size, and no upper clamp."""
        mean, std_error = time_on_test_mttdl(
            horizon, self.trials, self.sum_x, self.sum_x_sq, self.sum_z,
            self.sum_z_sq, self.sum_xz,
        )
        return replace(
            self.estimate(), mean=mean, std_error=std_error, clamp_hi=None
        )


def binomial_loss_estimate(losses: int, trials: int) -> MonteCarloEstimate:
    """Plain loss proportion over unweighted trials, with its binomial
    standard error (floored so a 0 or 1 proportion keeps a positive
    one)."""
    p = losses / trials
    return MonteCarloEstimate(
        mean=p,
        std_error=math.sqrt(max(p * (1.0 - p), 1e-12) / trials),
        trials=trials,
        # Surviving trials are censored-at-mission-end observations, so
        # the ``losses`` property stays meaningful for this estimator.
        censored=trials - losses,
        clamp_hi=1.0,
    )


def _emit_estimate(
    estimator: str, estimate: MonteCarloEstimate
) -> MonteCarloEstimate:
    """Record the final estimate as a flight-recorder event.

    Pass-through, so both estimators can report the resolved method,
    the sampling diagnostics and the answer itself in one line.
    Non-finite means (a lossless MTTDL) are sanitised by the trace
    writer.
    """
    tel = obs.current()
    if tel.enabled:
        tel.event(
            "estimate",
            data={
                "estimator": estimator,
                "method": estimate.method,
                "mean": estimate.mean,
                "std_error": estimate.std_error,
                "trials": estimate.trials,
                "losses": estimate.losses,
                "censored": estimate.censored,
                "effective_sample_size": estimate.effective_sample_size,
            },
        )
    return estimate


@dataclass
class _Counts:
    """Unweighted 0/1 losses and time on test: the tally of plain sampling.

    Both estimators share it; ``estimator`` picks the relative-error
    rule (the MTTDL's MLE or the binomial proportion) and the ``auto``
    pilot check.
    """

    estimator: str
    trials: int = 0
    losses: int = 0
    total_time: float = 0.0

    def add(self, result: Union[BatchRunResult, List[RunResult]]) -> None:
        """Tally a batch chunk, or a chunk of event-engine runs.

        Event runs add their end times to the running total one at a
        time, in trial order, wherever the chunk boundaries fall.
        """
        if isinstance(result, BatchRunResult):
            self.trials += result.trials
            self.losses += result.losses
            self.total_time += result.total_observed_time
            return
        for run in result:
            self.total_time += run.end_time
            if run.lost:
                self.losses += 1
        self.trials += len(result)

    @property
    def relative_error(self) -> float:
        """Standard error over the mean; ``inf`` before the first loss."""
        if not self.losses:
            return math.inf
        if self.estimator == "mttdl":
            # The MLE's relative error is exactly 1 / sqrt(losses).
            return 1.0 / math.sqrt(self.losses)
        # Binomial relative error given the observed count.
        return math.sqrt((1.0 - self.losses / self.trials) / self.losses)

    def pilot_round(self) -> Dict[str, object]:
        return {
            "losses": self.losses,
            "relative_error": self.relative_error if self.losses else None,
        }

    def uninformative(self, target: Optional[float]) -> bool:
        """Whether an ``auto`` pilot hands over to importance sampling.

        An MTTDL pilot does when it censored past
        :data:`CENSORED_WARNING_FRACTION` and has not met ``target``
        anyway; a loss-probability pilot does when it saw fewer than
        :data:`AUTO_MIN_LOSSES` losses, too few for a meaningful CI.
        """
        if self.estimator == "mttdl":
            censored = (self.trials - self.losses) / self.trials
            return censored > CENSORED_WARNING_FRACTION and not (
                target is not None and self.relative_error <= target
            )
        return self.losses < AUTO_MIN_LOSSES

    def estimate(self) -> MonteCarloEstimate:
        """The tallied trials as a loss-probability estimate."""
        return binomial_loss_estimate(self.losses, self.trials)


def _extend(
    tally,
    draw: Callable[[int, int], object],
    trials: int,
    cap: int,
    target: Optional[float],
    estimator: str,
    method: str,
    pilot_fails: Optional[Callable[[object], bool]] = None,
):
    """The one adaptive loop: draw chunks into ``tally`` until it meets
    ``target``.

    ``draw(chunk, n)`` simulates ``n`` trials on chunk ``chunk``'s own
    stream and returns what ``tally.add`` takes.  Without a target the
    loop stops after one chunk; with one, it stops once
    ``tally.relative_error`` reaches it or the tally holds ``cap``
    trials.  ``pilot_fails(tally)`` is asked once, after the first
    chunk: when it holds, the pilot is discarded, the escalation is
    recorded and ``None`` is returned.  Every call starts on chunk 0,
    so the importance-sampling loop that follows a discarded pilot
    draws what it draws when the pilot is skipped.
    """
    tel = obs.current()
    chunk = 0
    while tally.trials < cap:
        if tally.trials and (
            target is None or tally.relative_error <= target
        ):
            break
        # The final chunk is clamped so max_trials is a hard cap, not
        # "the last multiple of trials past the cap".
        tally.add(draw(chunk, min(trials, cap - tally.trials)))
        chunk += 1
        if tel.enabled:
            tel.event(
                "pilot_round",
                data={
                    "estimator": estimator,
                    "method": method,
                    "round": chunk,
                    "trials": tally.trials,
                    **tally.pilot_round(),
                },
            )
        if chunk == 1 and pilot_fails is not None and pilot_fails(tally):
            _record_escalation(estimator, tally.trials, tally.losses)
            return None
    return tally


def _record_escalation(
    estimator: str, pilot_trials: int, pilot_losses: int, **extra: object
) -> None:
    """Count and trace an ``auto`` run's switch to importance sampling."""
    tel = obs.current()
    if tel.enabled:
        tel.count("estimator.escalations")
        tel.event(
            "escalation",
            data={
                "estimator": estimator,
                "from": "standard",
                "to": "is",
                "pilot_trials": pilot_trials,
                "pilot_losses": pilot_losses,
                **extra,
            },
        )


def _conditional_pays(estimator: str, spans: float, trials: int) -> bool:
    """Whether ``auto`` answers a threshold-2 question by conditional
    Monte-Carlo: its horizon, ``spans`` screened MTTDLs, is within the
    break-even :data:`AUTO_CV_SPANS` ``× (1 + AUTO_CV_SWEEP_TRIALS / n)``
    for chunks of ``n = trials``, and within ``H_n ≈ ln n + γ``, where a
    standard chunk expects its last loss and stops sweeping.
    """
    return spans <= min(
        math.log(trials) + 0.5772,
        AUTO_CV_SPANS[estimator] * (1.0 + AUTO_CV_SWEEP_TRIALS / trials),
    )


def _sample(estimator, model, horizon, trials, seed, replicas,
            audits_per_year, scheme, backend, target, max_trials, method,
            bias, variance_reduction):
    """Pick the tally and chunk draw for the settings and run the loop.

    ``auto`` on the batch backend without a ``bias`` answers a
    threshold-2 question by the control variate where
    :func:`_conditional_pays`.  Otherwise an ``auto`` pilot that fails
    its check hands over to importance sampling, which starts afresh on
    the same budget, and a loss-probability pilot the analytic screen
    condemns (at most :data:`AUTO_SKIP_PILOT_LOSSES` expected losses) is
    not drawn at all.
    """
    cap = adaptive_cap(trials, max_trials)
    chunk_trials = min(trials, cap)
    # The analytic screen behind the routing, the pilot prediction and
    # the IS bias reads the audit interval from MDL, so it sees the
    # override folded in; the kernel reads the override itself.
    screened = (
        model if audits_per_year is None
        else model.with_audit_rate(audits_per_year)
    )
    if method == "auto":
        from repro.simulation.rare_event import analytic_loss_rate

        # The horizon in screened MTTDLs.
        spans = analytic_loss_rate(screened, replicas, scheme) * horizon
        if (
            backend == "batch" and bias is None
            and resolve_scheme(scheme, replicas).loss_threshold == 2
            and _conditional_pays(estimator, spans, chunk_trials)
        ):
            variance_reduction = "cv"
    if variance_reduction != "none":
        from repro.simulation.variance_reduction import (
            ControlVariateTally,
            control_variate_draw,
        )

        draw = control_variate_draw(
            model, horizon, seed, replicas, audits_per_year, scheme,
            time_on_test=estimator == "mttdl",
        )
        return _extend(
            ControlVariateTally(), draw, trials, cap, target, estimator, "cv"
        )
    root = RandomStreams(seed=seed)

    def batch(chunk: int, n: int, bias: Optional[float] = None):
        return simulate_batch(
            model,
            trials=n,
            horizon=horizon,
            seed=seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
            chunk=chunk,
            bias=bias,
            scheme=scheme,
        )

    def event(chunk: int, n: int):
        # Only the last chunk is ever clamped, so chunk c starts at
        # trial c * trials; trial i runs on the root seed's spawn(i).
        first = chunk * trials
        return [
            system_from_fault_model(
                model,
                replicas=replicas,
                streams=root.spawn(trial),
                audits_per_year=audits_per_year,
                scheme=scheme,
            ).run(max_time=horizon)
            for trial in range(first, first + n)
        ]

    if method == "auto" and estimator == "loss_probability":
        # A pilot the screen condemns would be discarded unseen; skipping
        # it leaves the answer as it was, because IS chunk 0 draws from
        # the same stream either way.
        predicted = -math.expm1(-spans) * chunk_trials
        if predicted <= AUTO_SKIP_PILOT_LOSSES:
            _record_escalation(estimator, 0, 0, predicted_losses=predicted)
            method = "is"
    if method != "is":
        draw = batch if backend == "batch" else event
        pilot_fails = (
            partial(_Counts.uninformative, target=target)
            if method == "auto"
            else None
        )
        tally = _extend(
            _Counts(estimator), draw, trials, cap, target, estimator,
            "standard", pilot_fails,
        )
        if tally is not None:
            return tally
    from repro.simulation.rare_event import (
        WeightedLossTally,
        default_failure_bias,
    )

    if bias is None:
        bias = default_failure_bias(screened, replicas, horizon, scheme=scheme)
    return _extend(
        WeightedLossTally(), partial(batch, bias=bias), trials, cap, target,
        estimator, "is",
    )


def run_mttdl(
    model: FaultModel,
    trials: int = 200,
    seed: int = 0,
    max_time: Optional[float] = None,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    backend: str = "batch",
    target_relative_error: Optional[float] = None,
    max_trials: Optional[int] = None,
    method: str = "standard",
    bias: Optional[float] = None,
    scheme: Optional[RedundancyScheme] = None,
    variance_reduction: str = "none",
) -> MonteCarloEstimate:
    """Estimate the MTTDL by simulating until data loss.

    Each trial runs an independent system until data loss or ``max_time``
    (default: 1000 times the model's mean time to a visible fault —
    generous for the compressed-time operating points used in tests and
    examples, but highly reliable configurations need an explicit
    ``max_time`` to keep censoring rare).  Surviving trials enter the
    censoring-correct MLE (see the module docstring).  With
    ``target_relative_error`` the run extends in chunks of
    ``trials`` until the standard error falls below that fraction of the
    mean or ``max_trials`` (default 64 chunks) is reached.

    ``method="is"`` (or an ``"auto"`` run whose pilot censors past the
    warning threshold) weights the trials by failure-biased importance
    sampling, and ``variance_reduction="cv"`` (or an ``"auto"`` run the
    control variate answers) scores them by their conditional loss
    probabilities; either divides the expected time on test by the loss
    probability by ``max_time`` (:func:`time_on_test_mttdl`), so
    high-reliability MTTDLs converge in thousands of trials instead of
    censoring to death.  ``bias`` overrides the automatic
    failure-biasing factor.

    Raises:
        ValueError: if trials or max_time is not positive, or the
            backend/method/variance-reduction combination is invalid.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    check_backend(backend)
    check_method(method)
    check_variance_reduction(variance_reduction, backend, method, bias)
    if max_time is None:
        # A horizon long enough that censoring is rare: many multiples
        # of the mean time between any faults times a replication
        # safety factor.
        max_time = 1000.0 * model.mean_time_to_visible
    if max_time <= 0:
        raise ValueError("max_time must be positive")
    tally = _sample(
        "mttdl", model, max_time, trials, seed, replicas, audits_per_year,
        scheme, backend, target_relative_error, max_trials, method, bias,
        variance_reduction,
    )
    if isinstance(tally, _Counts):
        estimate = mttdl_mle(tally.total_time, tally.losses, tally.trials)
    else:
        estimate = tally.mttdl_estimate(max_time)
    return _emit_estimate("mttdl", estimate)


def run_loss_probability(
    model: FaultModel,
    mission_time: float = 50.0 * HOURS_PER_YEAR,
    trials: int = 500,
    seed: int = 0,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    backend: str = "batch",
    target_relative_error: Optional[float] = None,
    max_trials: Optional[int] = None,
    method: str = "standard",
    bias: Optional[float] = None,
    scheme: Optional[RedundancyScheme] = None,
    variance_reduction: str = "none",
) -> MonteCarloEstimate:
    """Estimate the probability of data loss within a mission time.

    This matches the paper's "probability of data loss in 50 years"
    metric without the exponential shortcut; the estimate's confidence
    interval is clamped to [0, 1].  ``backend`` and
    ``target_relative_error`` behave as in :func:`run_mttdl`.

    ``method="is"`` runs failure-biased importance sampling on the batch
    machinery (``bias`` overrides the automatic acceleration factor,
    ``trials`` sizes each weighted chunk), and ``"auto"`` answers a
    threshold-2 question by the control variate where it pays, and
    otherwise pilots a standard chunk first, switching to IS when fewer
    than :data:`AUTO_MIN_LOSSES` losses were observed (see the module
    docstring).  With ``variance_reduction="cv"`` the control-variate
    estimator (:mod:`repro.simulation.variance_reduction`) replaces the
    plain batch one.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if mission_time <= 0:
        raise ValueError("mission_time must be positive")
    check_backend(backend)
    check_method(method)
    check_variance_reduction(variance_reduction, backend, method, bias)
    tally = _sample(
        "loss_probability", model, mission_time, trials, seed, replicas,
        audits_per_year, scheme, backend, target_relative_error, max_trials,
        method, bias, variance_reduction,
    )
    return _emit_estimate("loss_probability", tally.estimate())
