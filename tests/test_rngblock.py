"""Batched RNG draws must consume the seed stream bit-for-bit like the
per-call loop — seeds are part of the findings contract."""

from __future__ import annotations

import random

import pytest

from repro.common.rngblock import randrange_block
from repro.core.runner import _TrackedRandom

BOUNDS = (1, 2, 3, 30, 40, 100, 120, 128, 256, 1000, 7919)


class TestStreamEquality:
    def test_matches_plain_randrange_loop(self):
        for bound in BOUNDS:
            for seed in range(12):
                rng = random.Random(seed)
                expected = [rng.randrange(bound) for _ in range(257)]
                assert randrange_block(random.Random(seed), bound,
                                       257) == expected, (bound, seed)

    @pytest.mark.parametrize("bound", (256, 1000))
    def test_generator_position_identical_after_block(self, bound):
        """Draws *after* a block must match too: the block consumed
        exactly the same amount of the underlying stream."""
        rng = random.Random(42)
        for _ in range(100):
            rng.randrange(bound)
        loop_tail = [rng.randrange(bound) for _ in range(20)]
        rng = random.Random(42)
        randrange_block(rng, bound, 100)
        assert [rng.randrange(bound) for _ in range(20)] == loop_tail

    def test_tracked_random_marks_used(self):
        rng = _TrackedRandom(3)
        assert not rng.used
        randrange_block(rng, 256, 16)
        assert rng.used

    def test_tracked_random_stream_identical(self):
        rng = random.Random(9)
        expected = [rng.randrange(256) for _ in range(200)]
        assert randrange_block(_TrackedRandom(9), 256, 200) == expected

    def test_empty_and_invalid(self):
        assert randrange_block(random.Random(1), 10, 0) == []
        with pytest.raises(ValueError):
            randrange_block(random.Random(1), 0, 4)
