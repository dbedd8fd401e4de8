"""Every adaptive estimation path of the Monte-Carlo loops, pinned.

Each case calls :func:`run_mttdl` or :func:`run_loss_probability` at a
fixed seed inside a recording telemetry session and pins

* the estimate: ``(mean, std_error, trials, censored, method,
  effective_sample_size)``;
* a digest of the ``data`` of the trace records the loops write: every
  ``pilot_round`` of the sampled methods (``standard`` and ``is``),
  every ``escalation`` and the final ``estimate``, in order;
* the ``estimator.escalations`` counter and the warnings raised.

The cases cross the batch and event backends with ``standard`` and
``auto``; ``auto`` pilots that escalate and that do not, for both
estimators, on pairs and on triples, including an MTTDL pilot that
censors past the threshold but has already met its target; no target,
a target and a clamped ``max_trials``; importance sampling at its
default bias and at an explicit one, mirrored and (3,2); and the
control variate for both estimators, with and without a target,
including a run whose first 3-trial chunk scores zero.

``auto`` on a batch pair whose horizon the control variate reaches
(:data:`ROUTED`) is pinned as equal to the explicit control-variate run
of the same arguments, not to recorded numbers.  Every value below was
recorded from the estimators; none is an expected statistic.
"""

import hashlib
import io
import json
import warnings

import pytest

from repro import obs
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.estimators import (
    HighCensoringWarning,
    run_loss_probability,
    run_mttdl,
)

#: Compressed time: MTTDL ~770 h, so a few hundred trials see losses.
FAST = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)

#: The daily-scrubbed Cheetah pair: ~1.7e-4 loss in 50 years.
RARE = FaultModel(1.4e6, 2.8e5, 1.0 / 3.0, 1.0 / 3.0, 12.0, 1.0)

FIFTY_YEARS = 50.0 * HOURS_PER_YEAR
ERASURE = RedundancyScheme(3, 2)

LOSS = "loss_probability"
MTTDL = "mttdl"

#: name -> (estimator, keyword arguments).
CASES = {
    # Plain sampling on both backends.
    "loss-batch": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=400, seed=1)),
    "loss-batch-target": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=200, seed=2,
        target_relative_error=0.1)),
    "loss-batch-clamped": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=300, seed=3,
        target_relative_error=0.01, max_trials=1000)),
    "loss-event": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=60, seed=4, backend="event")),
    "loss-event-target": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=40, seed=5, backend="event",
        target_relative_error=0.25)),
    "mttdl-batch": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=300, seed=1)),
    "mttdl-batch-target": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=100, seed=2,
        target_relative_error=0.05)),
    "mttdl-batch-clamped": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=300, seed=3,
        target_relative_error=0.01, max_trials=700)),
    "mttdl-batch-censored": (MTTDL, dict(
        model=FAST, max_time=300.0, trials=200, seed=4)),
    "mttdl-event": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=40, seed=5, backend="event")),
    "mttdl-event-target": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=30, seed=6, backend="event",
        target_relative_error=0.15)),
    "mttdl-event-censored": (MTTDL, dict(
        model=FAST, max_time=300.0, trials=40, seed=7, backend="event")),
    # auto: pilots that stay standard and pilots that escalate.
    "loss-auto-stays": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=300, seed=1, method="auto")),
    "loss-auto-stays-target": (LOSS, dict(
        model=FAST, mission_time=200.0, trials=200, seed=2, method="auto",
        target_relative_error=0.08)),
    "loss-auto-escalates": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=500, seed=3,
        method="auto")),
    "loss-auto-escalates-target": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=500, seed=4,
        method="auto", target_relative_error=0.1)),
    "loss-auto-escalates-clamped": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=400, seed=5,
        method="auto", target_relative_error=0.01, max_trials=1000)),
    "loss-event-auto-stays": (LOSS, dict(
        model=FAST, mission_time=400.0, trials=80, seed=6, backend="event",
        method="auto")),
    "loss-auto-escalates-one-chunk": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=500, seed=6,
        method="auto", target_relative_error=0.05, max_trials=500)),
    "loss-event-auto-escalates": (LOSS, dict(
        model=FAST, mission_time=20.0, trials=40, seed=7, backend="event",
        method="auto", target_relative_error=0.2)),
    "mttdl-auto-stays": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=200, seed=1, method="auto")),
    "mttdl-auto-escalates": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=300, seed=2,
        method="auto")),
    "mttdl-auto-escalates-target": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=300, seed=3,
        method="auto", target_relative_error=0.1)),
    "mttdl-auto-censoring-converged": (MTTDL, dict(
        model=FAST, max_time=900.0, trials=1000, seed=3, method="auto",
        target_relative_error=0.05)),
    "mttdl-auto-censoring-unconverged": (MTTDL, dict(
        model=FAST, max_time=300.0, trials=200, seed=4, method="auto",
        target_relative_error=0.05)),
    "mttdl-event-auto-stays": (MTTDL, dict(
        model=FAST, max_time=1e5, trials=30, seed=5, backend="event",
        method="auto")),
    "mttdl-event-auto-escalates": (MTTDL, dict(
        model=FAST, max_time=300.0, trials=30, seed=6, backend="event",
        method="auto")),
    # auto on triples (loss threshold 3): the pilot and escalation
    # machinery at the threshold the control variate does not reach.
    # Every escalating loss pilot expects ~8 losses, so the analytic
    # screen never skips it.
    "loss-auto-stays-triple": (LOSS, dict(
        model=FAST, mission_time=2000.0, trials=300, seed=1, replicas=3,
        method="auto")),
    "loss-auto-stays-target-triple": (LOSS, dict(
        model=FAST, mission_time=2000.0, trials=200, seed=2, replicas=3,
        method="auto", target_relative_error=0.08)),
    "loss-auto-escalates-triple": (LOSS, dict(
        model=FAST, mission_time=100.0, trials=500, seed=3, replicas=3,
        method="auto")),
    "loss-auto-escalates-target-triple": (LOSS, dict(
        model=FAST, mission_time=100.0, trials=500, seed=4, replicas=3,
        method="auto", target_relative_error=0.1)),
    "loss-auto-escalates-clamped-triple": (LOSS, dict(
        model=FAST, mission_time=100.0, trials=400, seed=5, replicas=3,
        method="auto", target_relative_error=0.01, max_trials=1000)),
    "loss-auto-escalates-one-chunk-triple": (LOSS, dict(
        model=FAST, mission_time=100.0, trials=500, seed=6, replicas=3,
        method="auto", target_relative_error=0.05, max_trials=500)),
    "mttdl-auto-stays-triple": (MTTDL, dict(
        model=FAST, max_time=1e6, trials=200, seed=1, replicas=3,
        method="auto")),
    "mttdl-auto-escalates-triple": (MTTDL, dict(
        model=FAST, max_time=2000.0, trials=300, seed=2, replicas=3,
        method="auto")),
    "mttdl-auto-escalates-target-triple": (MTTDL, dict(
        model=FAST, max_time=2000.0, trials=300, seed=3, replicas=3,
        method="auto", target_relative_error=0.1)),
    "mttdl-auto-censoring-converged-triple": (MTTDL, dict(
        model=FAST, max_time=7700.0, trials=1000, seed=3, replicas=3,
        method="auto", target_relative_error=0.05)),
    "mttdl-auto-censoring-unconverged-triple": (MTTDL, dict(
        model=FAST, max_time=2000.0, trials=200, seed=4, replicas=3,
        method="auto", target_relative_error=0.05)),
    # Importance sampling: default and explicit bias, mirrored and (3,2).
    "loss-is": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=1000, seed=1,
        method="is")),
    "loss-is-bias": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=1000, seed=2,
        method="is", bias=500.0)),
    "loss-is-target": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=500, seed=3,
        method="is", target_relative_error=0.05)),
    "loss-is-erasure": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=1000, seed=4,
        method="is", scheme=ERASURE)),
    "loss-is-erasure-bias": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=1000, seed=5,
        method="is", scheme=ERASURE, bias=200.0)),
    "mttdl-is": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=1000, seed=1, method="is")),
    "mttdl-is-bias": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=1000, seed=2, method="is",
        bias=500.0)),
    "mttdl-is-erasure-target": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=500, seed=3, method="is",
        scheme=ERASURE, target_relative_error=0.1)),
    # The control variate.
    "loss-cv": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=2000, seed=1,
        variance_reduction="cv")),
    "loss-cv-target": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=500, seed=2,
        variance_reduction="cv", target_relative_error=0.02)),
    "loss-cv-clamped": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=300, seed=3,
        variance_reduction="cv", target_relative_error=0.001,
        max_trials=1000)),
    "loss-cv-erasure": (LOSS, dict(
        model=RARE, mission_time=FIFTY_YEARS, trials=1000, seed=4,
        variance_reduction="cv", scheme=ERASURE)),
    "loss-cv-zero-pilot": (LOSS, dict(
        model=RARE, mission_time=60000.0, trials=3, seed=1,
        variance_reduction="cv")),
    "loss-cv-zero-pilot-target": (LOSS, dict(
        model=RARE, mission_time=60000.0, trials=3, seed=1,
        variance_reduction="cv", target_relative_error=0.5)),
    "mttdl-cv": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=2000, seed=1,
        variance_reduction="cv")),
    "mttdl-cv-target": (MTTDL, dict(
        model=RARE, max_time=FIFTY_YEARS, trials=500, seed=2,
        variance_reduction="cv", target_relative_error=0.02)),
}

#: The trace records the pins cover.
PINNED_EVENTS = ("pilot_round", "escalation", "estimate")


#: Pair cases of ``auto`` on the batch backend whose horizon is within
#: reach of the control variate: it answers them, exactly as an explicit
#: ``variance_reduction="cv"`` run of the same arguments does.
ROUTED = (
    "loss-auto-stays",
    "loss-auto-stays-target",
    "loss-auto-escalates",
    "loss-auto-escalates-target",
    "loss-auto-escalates-clamped",
    "loss-auto-escalates-one-chunk",
    "mttdl-auto-escalates",
    "mttdl-auto-escalates-target",
    "mttdl-auto-censoring-converged",
    "mttdl-auto-censoring-unconverged",
)


def observe(name, **changes):
    """Run one case, with ``changes`` to its arguments (``None`` drops
    one); return its estimate, trace digest, escalations and warnings."""
    estimator, kwargs = CASES[name]
    kwargs = {**kwargs, **changes}
    kwargs = {key: value for key, value in kwargs.items() if value is not None}
    loop = run_mttdl if estimator == MTTDL else run_loss_probability
    sink = io.StringIO()
    telemetry = obs.Telemetry(trace=obs.TraceWriter(sink))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with obs.session(telemetry):
            estimate = loop(**kwargs)
    digest = hashlib.sha256()
    for line in sink.getvalue().splitlines():
        record = json.loads(line)
        data = record["data"]
        if record["event"] not in PINNED_EVENTS:
            continue
        if record["event"] == "pilot_round" and data["method"] == "cv":
            continue
        digest.update(
            json.dumps([record["event"], data], sort_keys=True).encode()
        )
    return (
        (
            estimate.mean,
            estimate.std_error,
            estimate.trials,
            estimate.censored,
            estimate.method,
            estimate.effective_sample_size,
        ),
        digest.hexdigest()[:16],
        telemetry.counters.get("estimator.escalations", 0),
        [entry.category.__name__ for entry in caught],
    )


#: name -> (estimate, trace digest, escalations, warnings).
PINS = {
    "loss-batch": (
        (0.2775, 0.02238826422481207, 400, 289, "standard",
         None),
        "23ca70543db778b0", 0, [],
    ),
    "loss-batch-clamped": (
        (0.205, 0.0127661662216971, 1000, 795, "standard",
         None),
        "a145b2dd76de00da", 0, [],
    ),
    "loss-batch-target": (
        (0.20166666666666666, 0.016380741854498032, 600, 479, "standard",
         None),
        "605794b6665a4fee", 0, [],
    ),
    "loss-cv": (
        (0.00016613168437154598, 2.426333671252755e-06, 2000, 48, "cv",
         None),
        "ab6567b234b0f2ce", 0, [],
    ),
    "loss-cv-clamped": (
        (0.00016886497972995552, 3.4586295921248264e-06, 1000, 30, "cv",
         None),
        "0f3e9141b9d5ea1a", 0, [],
    ),
    "loss-cv-erasure": (
        (0.0004994952663529913, 8.68146178417184e-06, 1000, 1, "cv",
         None),
        "5d597186850c72cd", 0, [],
    ),
    "loss-cv-target": (
        (0.00016710728049671334, 3.3366896196266916e-06, 1000, 29, "cv",
         None),
        "d149d89065576c46", 0, [],
    ),
    "loss-cv-zero-pilot": (
        (0.0, 0.0, 3, 3, "cv",
         None),
        "7af57d1510a68629", 0, [],
    ),
    "loss-cv-zero-pilot-target": (
        (1.4243041698536184e-05, 6.860739039926863e-06, 12, 8, "cv",
         None),
        "37fc2a1f81d9c40f", 0, [],
    ),
    "loss-event": (
        (0.25, 0.05590169943749474, 60, 45, "standard",
         None),
        "9cd4aa5baf768a96", 0, [],
    ),
    "loss-event-auto-escalates": (
        (0.02219613415965731, 0.004061012816676883, 160, 134, "is",
         25.30666636169615),
        "7708072e09b5f17a", 1, [],
    ),
    "loss-event-auto-stays": (
        (0.4, 0.05477225575051661, 80, 48, "standard",
         None),
        "55033dd06d32e676", 0, [],
    ),
    "loss-event-target": (
        (0.325, 0.07405656621799313, 40, 27, "standard",
         None),
        "9e20ce1f5c76cb40", 0, [],
    ),
    "loss-is": (
        (0.00018018269035654507, 9.536246199068719e-06, 1000, 730, "is",
         263.2756799967545),
        "1201e80f37144691", 0, [],
    ),
    "loss-is-bias": (
        (0.00015076779492804565, 1.7273878640246767e-05, 1000, 929, "is",
         70.8527173229639),
        "aa61237616da3928", 0, [],
    ),
    "loss-is-erasure": (
        (0.0004686805930254926, 2.716449849398569e-05, 1000, 766, "is",
         229.57127123938002),
        "5705d9664ea6a0f3", 0, [],
    ),
    "loss-is-erasure-bias": (
        (0.000513513953579381, 4.963834303735873e-05, 1000, 903, "is",
         96.76236666332325),
        "e3057fc6153fa542", 0, [],
    ),
    "loss-is-target": (
        (0.00017367714477703702, 7.725574831478376e-06, 1500, 1112, "is",
         378.210428743868),
        "583825ff66bdfafd", 0, [],
    ),
    "mttdl-auto-stays": (
        (723.3164509256328, 51.14619673933016, 200, 0, "standard",
         None),
        "770099c13705e3f1", 0, [],
    ),
    "mttdl-batch": (
        (753.1603474329128, 43.48373293333442, 300, 0, "standard",
         None),
        "c0d8e35875e43651", 0, [],
    ),
    "mttdl-batch-censored": (
        (664.4110446925683, 77.23621510082525, 200, 126, "standard",
         None),
        "f08c1c10b9b668da", 0, ["HighCensoringWarning"],
    ),
    "mttdl-batch-clamped": (
        (778.9569889248207, 29.441806781582432, 700, 0, "standard",
         None),
        "0a930357b0fbb05d", 0, [],
    ),
    "mttdl-batch-target": (
        (785.6413751047207, 39.28206875523604, 400, 0, "standard",
         None),
        "9459430393ecb1b0", 0, [],
    ),
    "mttdl-cv": (
        (2636243600.594556, 38505247.38846875, 2000, 48, "cv",
         None),
        "be28668ba42c50ef", 0, [],
    ),
    "mttdl-cv-target": (
        (2620851702.4935083, 52335826.4500238, 1000, 29, "cv",
         None),
        "6dfcd5af74106f65", 0, [],
    ),
    "mttdl-event": (
        (1036.3629856818895, 163.86337587236204, 40, 0, "standard",
         None),
        "4ef70bed57cdf8c1", 0, [],
    ),
    "mttdl-event-auto-escalates": (
        (818.4976784834098, 285.6096230527609, 30, 21, "is",
         9.0),
        "65be8c50211e5d4b", 1, [],
    ),
    "mttdl-event-auto-stays": (
        (855.053092557756, 156.11062221947856, 30, 0, "standard",
         None),
        "b2e7888e3e4d6f00", 0, [],
    ),
    "mttdl-event-censored": (
        (799.5628967409642, 230.81392683371632, 40, 28, "standard",
         None),
        "4d70784c7a3432a0", 0, ["HighCensoringWarning"],
    ),
    "mttdl-event-target": (
        (739.8553520934651, 95.51491524201383, 60, 0, "standard",
         None),
        "1026f55f78638ef9", 0, [],
    ),
    "mttdl-is": (
        (2430643368.810763, 128653823.22532079, 1000, 730, "is",
         263.2756799967545),
        "4ea65bd673f114de", 0, [],
    ),
    "mttdl-is-bias": (
        (2904906983.4508586, 332848179.82216305, 1000, 929, "is",
         70.8527173229639),
        "3968a7594c6aee47", 0, [],
    ),
    "mttdl-is-erasure-target": (
        (810239536.3329576, 59820731.059981085, 500, 363, "is",
         134.45864019657753),
        "2c9f5182dd1583dc", 0, [],
    ),
    # Triples.
    "loss-auto-stays-triple": (
        (0.24, 0.024657656011875907, 300, 228, "standard",
         None),
        "fa1ac169f93576e3", 0, [],
    ),
    "loss-auto-stays-target-triple": (
        (0.20833333333333334, 0.016579633869879613, 600, 475, "standard",
         None),
        "f8240b8a3d52f90e", 0, [],
    ),
    "loss-auto-escalates-triple": (
        (0.007971658041199162, 0.0019107322184386565, 500, 478, "is",
         16.85296957578163),
        "b92c777436424553", 1, [],
    ),
    "loss-auto-escalates-target-triple": (
        (0.013227803329165014, 0.001167219580232839, 2000, 1865, "is",
         120.7382325579902),
        "e7773fb41239169d", 1, [],
    ),
    "loss-auto-escalates-clamped-triple": (
        (0.013270531675267936, 0.0016608396865363465, 1000, 930, "is",
         60.06916914001429),
        "23d76a9aeab4b354", 1, [],
    ),
    "loss-auto-escalates-one-chunk-triple": (
        (0.012533855337989666, 0.0022292706626546883, 500, 467, "is",
         29.787714372351235),
        "e0fa2bb8d0861ed3", 1, [],
    ),
    "mttdl-auto-stays-triple": (
        (7300.8437115808365, 516.2476096841972, 200, 0, "standard",
         None),
        "e9956e6fc2854fff", 0, [],
    ),
    "mttdl-auto-escalates-triple": (
        (7988.540271446869, 968.4032501655106, 300, 233, "is",
         67.0),
        "ed25bbc143071c55", 1, [],
    ),
    "mttdl-auto-escalates-target-triple": (
        (6386.1927746165875, 693.2734959253517, 300, 218, "is",
         82.0),
        "8c354123b065ca2b", 1, [],
    ),
    "mttdl-auto-censoring-converged-triple": (
        (7190.720156261141, 280.1106879788239, 1000, 341, "standard",
         None),
        "9e4a0ee10095f555", 0, ["HighCensoringWarning"],
    ),
    "mttdl-auto-censoring-unconverged-triple": (
        (6918.506324223993, 371.7204762546598, 1400, 1050, "is",
         350.0),
        "702e40d62234136b", 1, [],
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_loop_is_pinned(name):
    assert observe(name) == PINS[name]


@pytest.mark.parametrize("name", ROUTED)
def test_routed_auto_is_the_control_variate(name):
    routed = observe(name)
    assert routed == observe(name, method=None, variance_reduction="cv")
    estimate, _, escalations, _ = routed
    assert estimate[4] == "cv" and escalations == 0


def test_censoring_warning_points_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_mttdl(FAST, max_time=300.0, trials=50, seed=1)
    assert [entry.category for entry in caught] == [HighCensoringWarning]
    assert caught[0].filename == __file__


def test_cases_cover_every_path():
    assert sorted([*PINS, *ROUTED]) == sorted(CASES)
    estimates = {name: pin[0] for name, pin in PINS.items()}
    assert {estimate[4] for estimate in estimates.values()} == {
        "standard", "is", "cv"
    }
    escalated = {name for name, pin in PINS.items() if pin[2]}
    assert escalated == {name for name in PINS if "escalates" in name} | {
        "mttdl-auto-censoring-unconverged-triple",
    }
    # A pilot that censors past the threshold but met its target stays.
    _, _, trials, censored, method, _ = estimates[
        "mttdl-auto-censoring-converged-triple"
    ]
    assert method == "standard" and censored / trials > 0.2
