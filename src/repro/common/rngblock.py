"""Batched RNG draws for the hot app-simulation loops.

App suites draw hundreds of small random values per execution
(``bytes(ctx.rng.randrange(256) for _ in range(2048))`` and friends);
each ``randrange`` call costs two Python frames (``randrange`` →
``_randbelow``) before reaching the C ``getrandbits``.
:func:`randrange_block` pre-draws a whole block through the C method
directly.

Seeds are part of the findings contract — the execution cache keys
seed-sensitive outcomes by the exact draw sequence — so the block must
consume the underlying Mersenne stream *bit-for-bit* like the per-call
loop.  It replicates CPython's ``Random._randbelow_with_getrandbits``
exactly: ``k = bound.bit_length()`` bits per attempt, rejecting draws
``>= bound``.  tests/test_rngblock.py asserts per-seed stream equality
against the plain ``randrange`` loop.
"""

from __future__ import annotations

import random
from typing import List


def randrange_block(rng: random.Random, bound: int, count: int) -> List[int]:
    """``[rng.randrange(bound) for _ in range(count)]``, batched.

    Byte-identical to the comprehension for any ``random.Random`` (or
    subclass) whose ``_randbelow`` is the stock getrandbits-based
    rejection sampler — i.e. every seeded generator in this codebase.
    """
    if count <= 0:
        return []
    if bound <= 0:
        raise ValueError("empty range for randrange_block(%d)" % bound)
    k = bound.bit_length()
    out: List[int] = []
    append = out.append
    # The first draw goes through the (possibly tracking) bound method so
    # wrappers like the runner's _TrackedRandom still see usage; it may
    # rebind the attribute to the raw C method, so re-fetch afterwards.
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= bound:
        r = getrandbits(k)
    append(r)
    getrandbits = rng.getrandbits
    for _ in range(count - 1):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        append(r)
    return out
