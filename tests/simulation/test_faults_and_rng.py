"""Tests for the random-stream manager."""

import numpy as np
import pytest

from repro.simulation.rng import BATCH_SPAWN_TAG, RandomStreams, batch_generator


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(seed=7)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=7).exponential("faults", 100.0)
        b = RandomStreams(seed=7).exponential("faults", 100.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).exponential("faults", 100.0)
        b = RandomStreams(seed=2).exponential("faults", 100.0)
        assert a != b

    def test_spawn_is_deterministic(self):
        a = RandomStreams(seed=3).spawn(5).exponential("x", 10.0)
        b = RandomStreams(seed=3).spawn(5).exponential("x", 10.0)
        assert a == b

    def test_spawn_offsets_differ(self):
        root = RandomStreams(seed=3)
        assert root.spawn(0).exponential("x", 10.0) != root.spawn(1).exponential(
            "x", 10.0
        )

    def test_spawn_families_of_different_roots_never_collide(self):
        # Regression: the old arithmetic child-seed scheme
        # (seed * 1_000_003 + offset + 1) aliased trial streams across
        # root seeds — seed 0 / offset 1_000_003 collided with seed 1 /
        # offset 0.  The SeedSequence spawn-key scheme keeps the root
        # seed as entropy, so those families must now be independent.
        a = RandomStreams(seed=0).spawn(1_000_003)
        b = RandomStreams(seed=1).spawn(0)
        draws_a = [a.exponential("x", 10.0) for _ in range(4)]
        draws_b = [b.exponential("x", 10.0) for _ in range(4)]
        assert draws_a != draws_b

    def test_spawn_key_records_the_trial_path(self):
        root = RandomStreams(seed=3)
        assert root.spawn_key == ()
        child = root.spawn(5)
        assert child.spawn_key == (5,)
        assert child.seed == 3
        assert child.spawn(2).spawn_key == (5, 2)

    def test_nested_spawn_differs_from_flat(self):
        root = RandomStreams(seed=3)
        nested = root.spawn(1).spawn(2)
        flat = root.spawn(2)
        assert nested.exponential("x", 10.0) != flat.exponential("x", 10.0)

    def test_child_streams_differ_from_root_streams(self):
        root = RandomStreams(seed=3)
        assert root.exponential("x", 10.0) != root.spawn(0).exponential(
            "x", 10.0
        )

    def test_batch_generator_reproducible_and_chunked(self):
        a = batch_generator(seed=3, chunk=0).random(4)
        b = batch_generator(seed=3, chunk=0).random(4)
        c = batch_generator(seed=3, chunk=1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_tag_exceeds_crc32_range(self):
        # The reserved tag must be outside what any stream-name digest
        # can produce, so batch draws never overlap event-trial streams.
        assert BATCH_SPAWN_TAG >= 2**32

    def test_batch_generator_validation(self):
        with pytest.raises(ValueError):
            batch_generator(seed=-1)
        with pytest.raises(ValueError):
            batch_generator(seed=0, chunk=-1)

    def test_validation(self):
        streams = RandomStreams(seed=0)
        with pytest.raises(ValueError):
            streams.exponential("x", 0.0)
        with pytest.raises(ValueError):
            RandomStreams(seed=-1)
        with pytest.raises(ValueError):
            streams.spawn(-1)



class TestExponentialDraws:
    def test_sample_mean_converges(self):
        streams = RandomStreams(seed=0)
        samples = [streams.exponential("faults", 100.0) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)

    def test_named_streams_do_not_advance_each_other(self):
        # A replica's fault draws never depend on how often another
        # stream was drawn from, so adding a replica leaves the others'
        # draws unchanged.
        busy = RandomStreams(seed=7)
        for _ in range(10):
            busy.exponential("visible-1", 500.0)
        idle = RandomStreams(seed=7)
        assert busy.exponential("visible-0", 500.0) == idle.exponential(
            "visible-0", 500.0
        )
