"""Whole event-engine traces, pinned to digests recorded from the engine.

Each configuration runs 40 seeds over 3,000 h with tracing on and
records three values: a digest of every ``(time, event type, replica,
fault type)`` trace record, the sum of ``RunResult.audits`` and the sum
of ``RunResult.end_time``.  The configurations cross

* integer audit intervals (MDL 0.5, 5, 25 and 1,460 h), so that grid
  points are exact sums and products alike;
* an MRL of 1 h, of one interval and of two intervals, so that a latent
  repair completes exactly on a later grid point;
* α 1 and 0.3;
* a mirrored pair, three replicas and a (3,2) scheme.

A change to when audits run, how they are counted or where their
records land in a trace shows up here.  Every value below was recorded
from the engine; none is an expected statistic.
"""

import hashlib

import pytest

from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.simulation.rng import RandomStreams
from repro.simulation.system import system_from_fault_model

SEEDS = range(40)
HORIZON = 3000.0

LAYOUTS = {
    "2-way": dict(replicas=2),
    "3-way": dict(replicas=3),
    "3-2-erasure": dict(scheme=RedundancyScheme(3, 2)),
}

#: (MDL, MRL) pairs: MRL 1 h, I and 2I for each audit interval I = 2 MDL
#: (at MDL 0.5 h, 1 h is I itself).
REPAIRS = [
    (mdl, mrl)
    for mdl in (0.5, 5.0, 25.0, 1460.0)
    for mrl in sorted({1.0, 2.0 * mdl, 4.0 * mdl})
]


def trace_pin(mdl, mrl, alpha, layout):
    """(digest, sum of audits, sum of end times) over :data:`SEEDS`."""
    model = FaultModel(1000.0, 2000.0, 1.0, mrl, mdl, alpha)
    digest = hashlib.sha256()
    audits = 0
    end_time = 0.0
    for seed in SEEDS:
        result = system_from_fault_model(
            model, streams=RandomStreams(seed=seed), trace=True,
            **LAYOUTS[layout],
        ).run(max_time=HORIZON)
        for event in result.trace:
            fault_type = event.fault_type and event.fault_type.value
            record = (event.time, event.event_type.value, event.replica, fault_type)
            digest.update(repr(record).encode())
        audits += result.audits
        end_time += result.end_time
    return digest.hexdigest()[:16], audits, end_time


PINS = {
    (0.5, 1.0, 1.0, '2-way'): (
        'ccf87d8084687156', 120000, 120000.0
    ),
    (0.5, 1.0, 1.0, '3-way'): (
        '910be689a7cc3a19', 120000, 120000.0
    ),
    (0.5, 1.0, 1.0, '3-2-erasure'): (
        '5a9d2332f6df2a25', 115119, 115119.83626596356
    ),
    (0.5, 1.0, 0.3, '2-way'): (
        'fda8efcbd8e9ce7c', 117661, 117661.9749414807
    ),
    (0.5, 1.0, 0.3, '3-way'): (
        '0165e6d8bb40d76c', 120000, 120000.0
    ),
    (0.5, 1.0, 0.3, '3-2-erasure'): (
        '93d2f3faa1ce34b9', 107742, 107745.75113593353
    ),
    (0.5, 2.0, 1.0, '2-way'): (
        '87eaf9fb5ac4400e', 120000, 120000.0
    ),
    (0.5, 2.0, 1.0, '3-way'): (
        '88b3285d4242d44c', 120000, 120000.0
    ),
    (0.5, 2.0, 1.0, '3-2-erasure'): (
        '485186d206f10dc1', 112247, 112248.04798277922
    ),
    (0.5, 2.0, 0.3, '2-way'): (
        '540f93d7560204c4', 117661, 117661.9749414807
    ),
    (0.5, 2.0, 0.3, '3-way'): (
        '33c0120b4259df00', 120000, 120000.0
    ),
    (0.5, 2.0, 0.3, '3-2-erasure'): (
        '898ad889595e7f37', 107750, 107753.75113593353
    ),
    (5.0, 1.0, 1.0, '2-way'): (
        'a1421f095c8de4c0', 12000, 120000.0
    ),
    (5.0, 1.0, 1.0, '3-way'): (
        '053be5ae41592424', 12000, 120000.0
    ),
    (5.0, 1.0, 1.0, '3-2-erasure'): (
        '606dbdcd84ed20bf', 10999, 110022.52310775255
    ),
    (5.0, 1.0, 0.3, '2-way'): (
        'c624c17d60ce9609', 11523, 115236.41462954816
    ),
    (5.0, 1.0, 0.3, '3-way'): (
        '91abd9c478ec5aa2', 12000, 120000.0
    ),
    (5.0, 1.0, 0.3, '3-2-erasure'): (
        '6205775339922b06', 10533, 105364.19082400098
    ),
    (5.0, 10.0, 1.0, '2-way'): (
        '243886aff8b43f7c', 11610, 116106.72055184931
    ),
    (5.0, 10.0, 1.0, '3-way'): (
        '091e9952cf2c02e7', 12000, 120000.0
    ),
    (5.0, 10.0, 1.0, '3-2-erasure'): (
        '50962a2782f788a0', 10765, 107679.28732299767
    ),
    (5.0, 10.0, 0.3, '2-way'): (
        '5626921da7d5e481', 10943, 109455.76633831413
    ),
    (5.0, 10.0, 0.3, '3-way'): (
        '3bf6d96c74ccf3c7', 12000, 120000.0
    ),
    (5.0, 10.0, 0.3, '3-2-erasure'): (
        '0c756097eff76cb5', 9552, 95569.14795162129
    ),
    (5.0, 20.0, 1.0, '2-way'): (
        'ef7aa6370c90b39c', 11611, 116116.72055184931
    ),
    (5.0, 20.0, 1.0, '3-way'): (
        '76f2d6189e924e64', 12000, 120000.0
    ),
    (5.0, 20.0, 1.0, '3-2-erasure'): (
        '28a5ce3e97a33d3c', 10489, 104921.38345040416
    ),
    (5.0, 20.0, 0.3, '2-way'): (
        'ed6814143439ba35', 10738, 107407.30746896898
    ),
    (5.0, 20.0, 0.3, '3-way'): (
        'aa1209489f52db06', 12000, 120000.0
    ),
    (5.0, 20.0, 0.3, '3-2-erasure'): (
        'af9033a596df1ebd', 8069, 80783.54402635818
    ),
    (25.0, 1.0, 1.0, '2-way'): (
        '38fdb90111068de4', 2301, 115153.83537357187
    ),
    (25.0, 1.0, 1.0, '3-way'): (
        '2d443a1cf9cd2b1a', 2400, 120000.0
    ),
    (25.0, 1.0, 1.0, '3-2-erasure'): (
        '6fda8fabde57cc6f', 2077, 104100.92013615905
    ),
    (25.0, 1.0, 0.3, '2-way'): (
        '7cd1e433cbb67656', 2119, 106217.84444479896
    ),
    (25.0, 1.0, 0.3, '3-way'): (
        '64f54bdbc14f3ca0', 2400, 120000.0
    ),
    (25.0, 1.0, 0.3, '3-2-erasure'): (
        '15e94d0af7953320', 1787, 89984.55324879603
    ),
    (25.0, 50.0, 1.0, '2-way'): (
        '6e6ce280059bbfeb', 2177, 109010.63759002983
    ),
    (25.0, 50.0, 1.0, '3-way'): (
        'e89f752a7d43221b', 2400, 120000.0
    ),
    (25.0, 50.0, 1.0, '3-2-erasure'): (
        '86640bc649232d50', 1805, 90790.33855797647
    ),
    (25.0, 50.0, 0.3, '2-way'): (
        'a8c1fd7349f4bea8', 1765, 88680.76435867936
    ),
    (25.0, 50.0, 0.3, '3-way'): (
        '0fa4f88f2ecd6a52', 2245, 112404.58383553388
    ),
    (25.0, 50.0, 0.3, '3-2-erasure'): (
        '618a6624c494540f', 980, 49828.88753180446
    ),
    (25.0, 100.0, 1.0, '2-way'): (
        '5fe467e7fd565038', 2127, 106556.62775975798
    ),
    (25.0, 100.0, 1.0, '3-way'): (
        '1daf6ea961f83f87', 2400, 120000.0
    ),
    (25.0, 100.0, 1.0, '3-2-erasure'): (
        '63e7e726914f13ab', 1433, 72473.18629854394
    ),
    (25.0, 100.0, 0.3, '2-way'): (
        'b95cc4ee4f946041', 1364, 68921.88433440853
    ),
    (25.0, 100.0, 0.3, '3-way'): (
        'd40aea75d6976db9', 1923, 96432.98750838482
    ),
    (25.0, 100.0, 0.3, '3-2-erasure'): (
        '8519740d7a25f68a', 756, 38739.371504433526
    ),
    (1460.0, 1.0, 1.0, '2-way'): (
        'bef1520c92295a56', 9, 63936.13480278737
    ),
    (1460.0, 1.0, 1.0, '3-way'): (
        '4f742af5967e27e4', 16, 80977.27239589674
    ),
    (1460.0, 1.0, 1.0, '3-2-erasure'): (
        'cc0f2552ca460333', 3, 40958.424212401886
    ),
    (1460.0, 1.0, 0.3, '2-way'): (
        '6f8d32a3ed6b90d1', 3, 49122.62350392154
    ),
    (1460.0, 1.0, 0.3, '3-way'): (
        '385dfaea55b4eff2', 3, 49215.762989284456
    ),
    (1460.0, 1.0, 0.3, '3-2-erasure'): (
        'd4c934e813ec40f0', 0, 32350.87871626432
    ),
    (1460.0, 2920.0, 1.0, '2-way'): (
        '82387556be2dca45', 9, 63892.912700413704
    ),
    (1460.0, 2920.0, 1.0, '3-way'): (
        'ebe6abf652f17ca1', 16, 80977.27239589674
    ),
    (1460.0, 2920.0, 1.0, '3-2-erasure'): (
        'e79f7a17c38f4e00', 3, 40958.424212401886
    ),
    (1460.0, 2920.0, 0.3, '2-way'): (
        '6f8d32a3ed6b90d1', 3, 49122.62350392154
    ),
    (1460.0, 2920.0, 0.3, '3-way'): (
        'd9ed91ea06107119', 3, 49113.774269494774
    ),
    (1460.0, 2920.0, 0.3, '3-2-erasure'): (
        'd4c934e813ec40f0', 0, 32350.87871626432
    ),
    (1460.0, 5840.0, 1.0, '2-way'): (
        '82387556be2dca45', 9, 63892.912700413704
    ),
    (1460.0, 5840.0, 1.0, '3-way'): (
        'ebe6abf652f17ca1', 16, 80977.27239589674
    ),
    (1460.0, 5840.0, 1.0, '3-2-erasure'): (
        'e79f7a17c38f4e00', 3, 40958.424212401886
    ),
    (1460.0, 5840.0, 0.3, '2-way'): (
        '6f8d32a3ed6b90d1', 3, 49122.62350392154
    ),
    (1460.0, 5840.0, 0.3, '3-way'): (
        'd9ed91ea06107119', 3, 49113.774269494774
    ),
    (1460.0, 5840.0, 0.3, '3-2-erasure'): (
        'd4c934e813ec40f0', 0, 32350.87871626432
    ),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("alpha", [1.0, 0.3])
@pytest.mark.parametrize(
    "mdl, mrl", REPAIRS, ids=[f"mdl{mdl:g}-mrl{mrl:g}" for mdl, mrl in REPAIRS]
)
def test_trace_is_pinned(mdl, mrl, alpha, layout):
    assert trace_pin(mdl, mrl, alpha, layout) == PINS[mdl, mrl, alpha, layout]
