"""Shared estimator plumbing for every Monte-Carlo front end.

Historically the argument checking, adaptive-sampling caps and the
pilot→censoring-check→rare-event-escalation loops lived in
:mod:`repro.simulation.monte_carlo` and were re-implemented piecemeal by
:mod:`repro.optimize.evaluate`.  This module is now the single owner:

* :func:`check_backend` / :func:`check_method` — validation of the
  ``backend`` / ``method`` knobs (one error message, everywhere);
* :func:`adaptive_cap` — the ``target_relative_error`` trial budget;
* :func:`run_mttdl` / :func:`run_loss_probability` — the estimation
  loops themselves, including the ``method="auto"`` pilot escalation to
  importance sampling or multilevel splitting;
* :func:`zero_loss_ci_high` — the rule-of-three upper bound attached to
  zero-loss refinements.

:mod:`repro.simulation.monte_carlo` re-exports the public names, so the
historical import paths keep working; :mod:`repro.study.engine`
dispatches straight to the loops here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro import obs
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.batch import simulate_batch
from repro.simulation.rng import RandomStreams
from repro.simulation.system import (
    ReplicatedStorageSystem,
    system_from_fault_model,
)

SystemFactory = Callable[[RandomStreams], ReplicatedStorageSystem]

#: Fraction of censored trials above which a warning is emitted.
CENSORED_WARNING_FRACTION = 0.2

#: Default cap on adaptive sampling, as a multiple of the initial chunk.
DEFAULT_ADAPTIVE_CHUNK_LIMIT = 64

#: ``method="auto"``: a loss-probability pilot with fewer observed
#: losses than this switches to a rare-event method (at 20 losses the
#: standard binomial relative error is still ~22%).
AUTO_MIN_LOSSES = 20

#: Recognised estimator methods, in the order help text lists them.
METHODS: Tuple[str, ...] = ("standard", "is", "splitting", "auto")

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
            or ``"splitting"`` — an ``"auto"`` run records what it
            resolved to).
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


def default_factory(
    model: FaultModel,
    replicas: int,
    audits_per_year: Optional[float],
    scheme: Optional[RedundancyScheme] = None,
) -> SystemFactory:
    """The event backend's factory for plain :class:`FaultModel` systems."""

    def factory(streams: RandomStreams) -> ReplicatedStorageSystem:
        return system_from_fault_model(
            model,
            replicas=replicas,
            streams=streams,
            audits_per_year=audits_per_year,
            scheme=scheme,
        )

    return factory


def check_backend(backend: str, factory: Optional[SystemFactory]) -> None:
    """Validate a simulation backend / factory combination."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected 'event' or 'batch'")
    if backend == "batch" and factory is not None:
        raise ValueError(
            "the batch backend simulates FaultModel-derived systems only; "
            "use backend='event' with a custom factory"
        )


def check_method(
    method: str,
    factory: Optional[SystemFactory] = None,
    allowed: Tuple[str, ...] = METHODS,
) -> None:
    """Validate an estimator method against a factory and an allowed set.

    ``allowed`` lets callers that support only a subset of the methods
    (e.g. the optimizer's refinement, which has no splitting path)
    reject the rest with the same message shape.
    """
    if method not in allowed:
        raise ValueError(
            f"unknown method {method!r}; expected one of {allowed}"
        )
    if method == "is" and factory is not None:
        raise ValueError(
            "importance sampling runs on the batch machinery and needs a "
            "FaultModel; use method='splitting' for custom factories"
        )


def check_variance_reduction(
    variance_reduction: str,
    backend: str,
    method: str,
    factory: Optional[SystemFactory],
    bias: Optional[float],
) -> None:
    """Validate a ``variance_reduction`` / estimator combination.

    The variance-reduced estimators replace the sampling scheme itself,
    so they only compose with the plain batch estimator: rare-event
    methods, custom factories, the event backend and explicit failure
    biasing are all rejected with a pointer to the working alternative.
    """
    if variance_reduction not in VARIANCE_REDUCTIONS:
        raise ValueError(
            f"unknown variance_reduction {variance_reduction!r}; expected "
            f"one of {VARIANCE_REDUCTIONS}"
        )
    if variance_reduction == "none":
        return
    if factory is not None:
        raise ValueError(
            "variance reduction runs on the batch machinery and needs a "
            "FaultModel; use method='splitting' for custom factories"
        )
    if backend != "batch":
        raise ValueError(
            "variance reduction requires backend='batch'"
        )
    if method != "standard":
        raise ValueError(
            "variance reduction replaces the sampling scheme; combine it "
            "with method='standard' only (importance sampling and "
            "splitting are alternatives, not composable layers)"
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


def _emit_estimate(
    estimator: str, estimate: MonteCarloEstimate
) -> MonteCarloEstimate:
    """Record the final estimate as a flight-recorder event.

    Pass-through, so every ``return`` path of the estimation loops can
    report the resolved method, the sampling diagnostics and the answer
    itself in one line.  Non-finite means (a lossless MTTDL) are
    sanitised by the trace writer.
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


def _is_loss_tally(
    model: FaultModel,
    trials: int,
    horizon: float,
    seed: int,
    replicas: int,
    audits_per_year: Optional[float],
    bias: Optional[float],
    target_relative_error: Optional[float],
    cap: int,
    scheme: Optional[RedundancyScheme] = None,
    estimator: str = "loss_probability",
):
    """Run adaptive importance-sampled batch chunks into a tally."""
    from repro.simulation import rare_event

    tel = obs.current()
    if bias is None:
        bias = rare_event.default_failure_bias(
            model, replicas, horizon, scheme=scheme
        )
    tally = rare_event.WeightedLossTally()
    chunk = 0
    while tally.trials < cap:
        if tally.trials and (
            target_relative_error is None
            or tally.relative_error <= target_relative_error
        ):
            break
        chunk_trials = min(trials, cap - tally.trials) if tally.trials else trials
        tally.add(
            simulate_batch(
                model,
                trials=chunk_trials,
                horizon=horizon,
                seed=seed,
                replicas=replicas,
                audits_per_year=audits_per_year,
                chunk=chunk,
                bias=bias,
                scheme=scheme,
            )
        )
        chunk += 1
        if tel.enabled:
            tel.event(
                "pilot_round",
                data={
                    "estimator": estimator,
                    "method": "is",
                    "round": chunk,
                    "trials": tally.trials,
                    "relative_error": tally.relative_error,
                    "effective_sample_size": tally.ess,
                },
            )
    return tally


def run_mttdl(
    model: Optional[FaultModel] = None,
    trials: int = 200,
    seed: int = 0,
    max_time: Optional[float] = None,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    factory: Optional[SystemFactory] = None,
    backend: str = "event",
    target_relative_error: Optional[float] = None,
    max_trials: Optional[int] = None,
    method: str = "standard",
    bias: Optional[float] = None,
    scheme: Optional[RedundancyScheme] = None,
    variance_reduction: str = "none",
) -> MonteCarloEstimate:
    """The MTTDL estimation loop (see :func:`~repro.simulation.monte_carlo.estimate_mttdl`).

    Runs independent trials until data loss or the censoring horizon,
    extends adaptively toward a ``target_relative_error``, and — under
    ``method="auto"`` — discards a pilot that censored past the warning
    threshold in favour of failure-biased importance sampling.  With
    ``variance_reduction`` set, the horizon loss probability is
    estimated by the requested variance-reduced estimator
    (:mod:`repro.simulation.variance_reduction`) and inverted through
    the exponential loss law instead.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    check_backend(backend, factory)
    check_method(method, factory)
    check_variance_reduction(variance_reduction, backend, method, factory, bias)
    if method == "splitting":
        raise ValueError(
            "splitting estimates mission loss probabilities; use "
            "estimate_loss_probability or method='is' for the MTTDL"
        )
    if method == "is" and model is None:
        raise ValueError("method='is' needs a FaultModel")
    custom_factory = factory
    if factory is None:
        if model is None:
            raise ValueError("either model or factory must be provided")
        if backend == "event":
            factory = default_factory(model, replicas, audits_per_year, scheme)
    if max_time is None:
        if model is not None:
            # A horizon long enough that censoring is rare: many multiples
            # of the mean time between any faults times a replication
            # safety factor.
            max_time = 1000.0 * model.mean_time_to_visible
        else:
            max_time = 1e9

    if variance_reduction != "none":
        from repro.simulation import rare_event
        from repro.simulation import variance_reduction as vr_module

        estimate = vr_module.variance_reduced_loss_probability(
            variance_reduction,
            model,
            max_time,
            trials,
            seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
            target_relative_error=target_relative_error,
            max_trials=max_trials,
            scheme=scheme,
        )
        return _emit_estimate(
            "mttdl",
            rare_event.mttdl_from_loss_probability(estimate, max_time),
        )

    tel = obs.current()
    cap = adaptive_cap(trials, max_trials)
    total_time = 0.0
    losses = 0
    done = 0
    chunk = 0
    root = RandomStreams(seed=seed)
    use_is = method == "is"
    while not use_is and done < cap:
        if done and (
            target_relative_error is None
            # The MLE's relative error is exactly 1 / sqrt(losses).
            or (
                losses > 0
                and 1.0 / math.sqrt(losses) <= target_relative_error
            )
        ):
            break
        # The final adaptive chunk is clamped so max_trials is a hard
        # cap, not "the last multiple of trials past the cap".
        chunk_trials = min(trials, cap - done) if done else trials
        if backend == "batch":
            result = simulate_batch(
                model,
                trials=chunk_trials,
                horizon=max_time,
                seed=seed,
                replicas=replicas,
                audits_per_year=audits_per_year,
                chunk=chunk,
                scheme=scheme,
            )
            total_time += result.total_observed_time
            losses += result.losses
        else:
            for trial in range(done, done + chunk_trials):
                outcome = factory(root.spawn(trial)).run(max_time=max_time)
                total_time += outcome.end_time
                if outcome.lost:
                    losses += 1
        done += chunk_trials
        chunk += 1
        if tel.enabled:
            tel.event(
                "pilot_round",
                data={
                    "estimator": "mttdl",
                    "method": "standard",
                    "round": chunk,
                    "trials": done,
                    "losses": losses,
                    # The MLE's relative error is exactly 1/sqrt(losses).
                    "relative_error": (
                        1.0 / math.sqrt(losses) if losses else None
                    ),
                },
            )
        if (
            method == "auto"
            and chunk == 1
            and model is not None
            and custom_factory is None
            and (done - losses) / done > CENSORED_WARNING_FRACTION
            and not (
                target_relative_error is not None
                and losses > 0
                and 1.0 / math.sqrt(losses) <= target_relative_error
            )
        ):
            # The *pilot* censored too heavily to be informative (and
            # did not converge anyway): discard it and restart with
            # importance sampling.  Later chunks never re-trigger the
            # switch — adaptive extension is already doing its job — and
            # a custom factory cannot switch (IS on the bare model would
            # estimate a different system).
            use_is = True
            if tel.enabled:
                tel.count("estimator.escalations")
                tel.event(
                    "escalation",
                    data={
                        "estimator": "mttdl",
                        "from": "standard",
                        "to": "is",
                        "pilot_trials": done,
                        "pilot_losses": losses,
                    },
                )
    if use_is:
        from repro.simulation import rare_event

        tally = _is_loss_tally(
            model,
            trials=trials,
            horizon=max_time,
            seed=seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
            bias=bias,
            target_relative_error=target_relative_error,
            cap=cap,
            scheme=scheme,
            estimator="mttdl",
        )
        return _emit_estimate(
            "mttdl",
            rare_event.mttdl_from_loss_probability(
                tally.loss_estimate(), max_time
            ),
        )
    return _emit_estimate("mttdl", mttdl_mle(total_time, losses, done))


def _splitting_estimate(
    model: Optional[FaultModel],
    factory: Optional[SystemFactory],
    mission_time: float,
    trials: int,
    seed: int,
    replicas: int,
    audits_per_year: Optional[float],
    target_relative_error: Optional[float],
    cap: int,
    scheme: Optional[RedundancyScheme] = None,
) -> MonteCarloEstimate:
    """Adaptive chunks of fixed-effort multilevel-splitting passes.

    Each chunk is one independent splitting replication (``trials``
    systems per level); replications pool by averaging, so the combined
    estimate stays unbiased and its standard error shrinks as
    ``1 / sqrt(chunks)``.
    """
    from repro.simulation import rare_event

    means = []
    errors = []
    done = 0
    losses = 0
    chunk = 0
    while done < cap:
        if chunk and (
            target_relative_error is None
            or (
                sum(means)
                and math.sqrt(sum(e * e for e in errors))
                / max(sum(means), 1e-300)
                <= target_relative_error
            )
        ):
            break
        run = rare_event.splitting_loss_probability(
            model=model,
            mission_time=mission_time,
            trials_per_level=trials,
            seed=seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
            factory=factory,
            chunk=chunk,
            scheme=scheme,
        )
        means.append(run.mean)
        errors.append(run.std_error)
        done += run.trials
        losses += run.losses
        chunk += 1
    mean = sum(means) / chunk
    std_error = math.sqrt(sum(e * e for e in errors)) / chunk
    return MonteCarloEstimate(
        mean=mean,
        std_error=std_error,
        trials=done,
        censored=done - losses,
        clamp_hi=1.0,
        method="splitting",
    )


def run_loss_probability(
    model: Optional[FaultModel] = None,
    mission_time: float = 50.0 * HOURS_PER_YEAR,
    trials: int = 500,
    seed: int = 0,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    factory: Optional[SystemFactory] = None,
    backend: str = "event",
    target_relative_error: Optional[float] = None,
    max_trials: Optional[int] = None,
    method: str = "standard",
    bias: Optional[float] = None,
    scheme: Optional[RedundancyScheme] = None,
    variance_reduction: str = "none",
) -> MonteCarloEstimate:
    """The loss-probability estimation loop (see
    :func:`~repro.simulation.monte_carlo.estimate_loss_probability`).

    A ``method="auto"`` pilot with fewer than :data:`AUTO_MIN_LOSSES`
    observed losses is discarded in favour of importance sampling (plain
    models) or multilevel splitting (custom factories).  With
    ``variance_reduction`` set, the plain batch estimator is replaced by
    the requested variance-reduced one
    (:mod:`repro.simulation.variance_reduction`).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if mission_time <= 0:
        raise ValueError("mission_time must be positive")
    check_backend(backend, factory)
    check_method(method, factory)
    check_variance_reduction(variance_reduction, backend, method, factory, bias)
    if method == "is" and model is None:
        raise ValueError("method='is' needs a FaultModel")
    custom_factory = factory
    if factory is None:
        if model is None:
            raise ValueError("either model or factory must be provided")
        if backend == "event":
            factory = default_factory(model, replicas, audits_per_year, scheme)

    if variance_reduction != "none":
        from repro.simulation import variance_reduction as vr_module

        return _emit_estimate(
            "loss_probability",
            vr_module.variance_reduced_loss_probability(
                variance_reduction,
                model,
                mission_time,
                trials,
                seed,
                replicas=replicas,
                audits_per_year=audits_per_year,
                target_relative_error=target_relative_error,
                max_trials=max_trials,
                scheme=scheme,
            ),
        )

    tel = obs.current()
    cap = adaptive_cap(trials, max_trials)
    if method == "splitting":
        return _emit_estimate(
            "loss_probability",
            _splitting_estimate(
                model if custom_factory is None else None,
                custom_factory,
                mission_time,
                trials,
                seed,
                replicas,
                audits_per_year,
                target_relative_error,
                cap,
                scheme=scheme,
            ),
        )
    losses = 0
    done = 0
    chunk = 0
    root = RandomStreams(seed=seed)
    use_is = method == "is"
    use_splitting = False
    while not use_is and not use_splitting and done < cap:
        if done and (
            target_relative_error is None
            or (
                losses > 0
                and math.sqrt((1.0 - losses / done) / losses)
                <= target_relative_error
            )
        ):
            break
        chunk_trials = min(trials, cap - done) if done else trials
        if backend == "batch":
            result = simulate_batch(
                model,
                trials=chunk_trials,
                horizon=mission_time,
                seed=seed,
                replicas=replicas,
                audits_per_year=audits_per_year,
                chunk=chunk,
                scheme=scheme,
            )
            losses += result.losses
        else:
            for trial in range(done, done + chunk_trials):
                outcome = factory(root.spawn(trial)).run(max_time=mission_time)
                if outcome.lost:
                    losses += 1
        done += chunk_trials
        chunk += 1
        if tel.enabled:
            tel.event(
                "pilot_round",
                data={
                    "estimator": "loss_probability",
                    "method": "standard",
                    "round": chunk,
                    "trials": done,
                    "losses": losses,
                    # Binomial relative error given the observed count.
                    "relative_error": (
                        math.sqrt((1.0 - losses / done) / losses)
                        if losses
                        else None
                    ),
                },
            )
        if method == "auto" and losses < AUTO_MIN_LOSSES:
            # Too few losses for a meaningful CI: discard the pilot and
            # switch to a rare-event method — importance sampling when
            # the pilot simulated a plain FaultModel, splitting when a
            # custom factory did (IS on the bare model would silently
            # estimate a different system than the factory builds).
            if custom_factory is None:
                use_is = True
            else:
                use_splitting = True
            if tel.enabled:
                tel.count("estimator.escalations")
                tel.event(
                    "escalation",
                    data={
                        "estimator": "loss_probability",
                        "from": "standard",
                        "to": "is" if use_is else "splitting",
                        "pilot_trials": done,
                        "pilot_losses": losses,
                    },
                )
    if use_is:
        tally = _is_loss_tally(
            model,
            trials=trials,
            horizon=mission_time,
            seed=seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
            bias=bias,
            target_relative_error=target_relative_error,
            cap=cap,
            scheme=scheme,
        )
        return _emit_estimate("loss_probability", tally.loss_estimate())
    if use_splitting:
        return _emit_estimate(
            "loss_probability",
            _splitting_estimate(
                None,
                custom_factory,
                mission_time,
                trials,
                seed,
                replicas,
                audits_per_year,
                target_relative_error,
                cap,
                scheme=scheme,
            ),
        )
    p = losses / done
    std_error = math.sqrt(max(p * (1.0 - p), 1e-12) / done)
    return _emit_estimate(
        "loss_probability",
        MonteCarloEstimate(
            mean=p,
            std_error=std_error,
            trials=done,
            # Surviving trials are censored-at-mission-end observations,
            # so the ``losses`` property stays meaningful for this
            # estimator.
            censored=done - losses,
            clamp_hi=1.0,
        ),
    )
