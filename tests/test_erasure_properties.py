"""Cross-layer properties of the (n, k) redundancy generalisation.

Two pillars:

* **Replication is bit-for-bit preserved.**  A scheme ``(n, 1)`` is
  r-way replication, and every engine — analytic, markov, batch, event,
  importance sampling, fleet — must return *exactly* the
  numbers the pre-scheme code returned for ``replicas=n`` at the same
  seed: the scheme threads through as a loss threshold without touching
  random-stream consumption, and replication scenarios serialise (and
  hash) exactly as before.
* **True erasure codes are exact.**  For a pure-visible-fault model the
  batch Monte-Carlo loss probability must sit inside its own confidence
  interval around the generalised birth-death chain's transient answer
  at multiple (n, k) operating points.
"""

import numpy as np
import pytest

from repro.core.parameters import FaultModel
from repro.core.redundancy import ErasureCode, RedundancyScheme, Replication
from repro.fleet import FleetTimeline, stationary_timeline
from repro.fleet.population import simulate_fleet_chunk
from repro.markov import build_scheme_chain, loss_probability_over_time
from repro.simulation.batch import simulate_batch
from repro.study import EstimatorPolicy, Scenario, SystemSpec, run

# Fast, loss-prone operating point so plain Monte Carlo sees events.
MODEL = FaultModel(
    mean_time_to_visible=5e4,
    mean_time_to_latent=5e4,
    mean_repair_visible=200.0,
    mean_repair_latent=200.0,
    mean_detect_latent=500.0,
    correlation_factor=1.0,
)

POINT_ENGINES = ("analytic", "batch", "event", "is", "auto")


def _loss(system: SystemSpec, engine: str) -> object:
    return run(
        Scenario(
            question="loss_probability",
            system=system,
            mission_years=10.0,
            policy=EstimatorPolicy(engine=engine, trials=300, seed=11),
        )
    )


class TestReplicationBitForBit:
    @pytest.mark.parametrize("engine", POINT_ENGINES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_n1_scheme_reproduces_replication(self, engine, n):
        plain = _loss(SystemSpec(model=MODEL, replicas=n), engine)
        scheme = _loss(SystemSpec(model=MODEL, scheme=Replication(n)), engine)
        assert scheme.value == plain.value
        assert scheme.std_error == plain.std_error
        assert scheme.ci_low == plain.ci_low
        assert scheme.ci_high == plain.ci_high

    def test_markov_engine_bit_for_bit(self):
        def mttdl(system):
            return run(
                Scenario(
                    question="mttdl",
                    system=system,
                    policy=EstimatorPolicy(engine="markov"),
                )
            )

        plain = mttdl(SystemSpec(model=MODEL, replicas=2))
        scheme = mttdl(SystemSpec(model=MODEL, scheme=Replication(2)))
        assert scheme.value == plain.value

    @pytest.mark.parametrize("n", [2, 3])
    def test_fleet_chunk_bit_for_bit(self, n):
        plain = simulate_fleet_chunk(
            stationary_timeline(MODEL, years=5.0, replicas=n),
            members=200,
            seed=5,
        )
        scheme = simulate_fleet_chunk(
            stationary_timeline(MODEL, years=5.0, scheme=Replication(n)),
            members=200,
            seed=5,
        )
        assert np.array_equal(plain.lost, scheme.lost)
        assert np.array_equal(plain.loss_time, scheme.loss_time)
        assert plain.repairs == scheme.repairs

    def test_batch_kernel_bit_for_bit(self):
        horizon = 5.0 * 8760.0
        plain = simulate_batch(
            MODEL, trials=500, horizon=horizon, seed=9, replicas=3
        )
        scheme = simulate_batch(
            MODEL,
            trials=500,
            horizon=horizon,
            seed=9,
            replicas=3,
            scheme=Replication(3),
        )
        assert np.array_equal(plain.lost, scheme.lost)
        assert np.array_equal(plain.end_time, scheme.end_time)


class TestSerializationStability:
    """Replication payloads (and hence hashes/seeds) are unchanged."""

    def test_system_spec_dict_has_no_scheme_key_by_default(self):
        payload = SystemSpec(model=MODEL, replicas=3).as_dict()
        assert "scheme" not in payload

    def test_scenario_hash_unchanged_without_scheme(self):
        base = Scenario(
            question="loss_probability",
            system=SystemSpec(model=MODEL, replicas=3),
        )
        # (n, 1) carries the scheme explicitly, so it hashes differently
        # — but the plain-replication hash has no scheme key at all.
        assert "scheme" not in base.as_dict()["system"]
        withscheme = Scenario(
            question="loss_probability",
            system=SystemSpec(model=MODEL, scheme=Replication(3)),
        )
        assert withscheme.content_hash() != base.content_hash()

    def test_timeline_dict_roundtrip_with_scheme(self):
        timeline = stationary_timeline(
            MODEL, years=5.0, scheme=ErasureCode(6, 4)
        )
        assert timeline.replicas == 6
        rebuilt = FleetTimeline.from_dict(timeline.as_dict())
        assert rebuilt.scheme == ErasureCode(6, 4)
        assert rebuilt.content_hash() == timeline.content_hash()

    def test_timeline_dict_has_no_scheme_key_by_default(self):
        timeline = stationary_timeline(MODEL, years=5.0, replicas=2)
        assert "scheme" not in timeline.as_dict()

    def test_system_spec_roundtrip_with_scheme(self):
        spec = SystemSpec(model=MODEL, scheme=ErasureCode(6, 4))
        assert spec.replicas == 6
        rebuilt = SystemSpec.from_dict(spec.as_dict())
        assert rebuilt.scheme == ErasureCode(6, 4)
        assert rebuilt.replicas == 6


class TestErasureAgainstMarkov:
    """Batch MC must cover the exact chain at true-erasure points."""

    # Pure-visible model: latent faults pushed beyond the horizon so the
    # birth-death chain describes the simulated physics exactly.
    MV = 4e4
    MR = 500.0
    PURE = FaultModel(
        mean_time_to_visible=MV,
        mean_time_to_latent=1e12,
        mean_repair_visible=MR,
        mean_repair_latent=MR,
        mean_detect_latent=1.0,
        correlation_factor=1.0,
    )
    MISSION = 20.0 * 8760.0

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 4)])
    def test_mc_ci_covers_markov_exact(self, n, k):
        scheme = ErasureCode(n, k)
        # The batch kernel repairs faulty fragments independently, so
        # the matching chain uses parallel repair.
        chain = build_scheme_chain(
            self.MV, self.MR, scheme, parallel_repair=True
        )
        exact = loss_probability_over_time(chain, self.MISSION)
        result = simulate_batch(
            self.PURE,
            trials=20000,
            horizon=self.MISSION,
            seed=3,
            replicas=n,
            scheme=scheme,
        )
        mean = float(result.lost.mean())
        half = 3.0 * np.sqrt(mean * (1.0 - mean) / result.lost.size)
        assert mean - half <= exact <= mean + half

    def test_erasure_strictly_less_reliable_than_same_n_replication(self):
        scheme = ErasureCode(4, 2)
        loss_ec = simulate_batch(
            self.PURE,
            trials=5000,
            horizon=self.MISSION,
            seed=3,
            replicas=4,
            scheme=scheme,
        ).lost.mean()
        loss_rep = simulate_batch(
            self.PURE, trials=5000, horizon=self.MISSION, seed=3, replicas=4
        ).lost.mean()
        assert loss_ec > loss_rep

    def test_study_analytic_engine_answers_erasure(self):
        result = run(
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL, scheme=ErasureCode(6, 4)),
                policy=EstimatorPolicy(engine="analytic"),
            )
        )
        assert result.value > 0
        assert result.details["convention"] == "simulator"

    def test_markov_engine_rejects_erasure(self):
        with pytest.raises(ValueError, match="mirrored pairs"):
            Scenario(
                question="mttdl",
                system=SystemSpec(model=MODEL, scheme=ErasureCode(2, 2)),
                policy=EstimatorPolicy(engine="markov"),
            )
