"""Deterministic randomness for simulations.

All randomness in the package flows through Philox, a counter-based 64-bit
generator, keyed by ``(seed, stream)``.  Streams keep the protocol's arrival
sequence independent of anything a policy draws: a policy that consumes more
or fewer random numbers can never perturb who logs in at each round.

Stream ids:

* ``STREAM_ARRIVALS`` -- who logs in at steps (1_B)/(1_G) of each round
* ``STREAM_POLICY``   -- private stream handed to the matchmaking policy
* ``STREAM_DATAGEN``  -- instance generators
* ``STREAM_ANALYSIS`` -- column shuffles in covering comparisons
"""

from __future__ import annotations

from array import array

import numpy as np

MASK64 = (1 << 64) - 1

STREAM_ARRIVALS = 0
STREAM_POLICY = 1
STREAM_DATAGEN = 2
STREAM_ANALYSIS = 3

RNG_BLOCK = 8192  # 64-bit words a SubstreamRng draws at a time


def philox(seed: int, stream: int) -> np.random.Generator:
    """A numpy Generator on the (seed, stream) Philox substream."""
    return np.random.Generator(np.random.Philox(key=[seed & MASK64, stream & MASK64]))


class SubstreamRng:
    """Buffered uniform-integer sampler over one Philox substream.

    Draws raw 64-bit words in blocks and converts them with rejection
    sampling, so ``randint(k)`` is exactly uniform and costs ~200ns.
    """

    __slots__ = ("_gen", "_buf")

    def __init__(self, seed: int, stream: int):
        self._gen = philox(seed, stream)
        self._buf: list[int] = []

    def randint(self, k: int) -> int:
        """Uniform integer in [0, k)."""
        if k <= 0:
            raise ValueError(f"randint needs k >= 1, got {k}")
        buf = self._buf
        # A word is kept iff it is below the largest multiple of k that is at
        # most 2^64.  That multiple exceeds 2^64 - k, so a word below
        # 2^64 - k is kept without computing it.
        accept_below = (1 << 64) - k
        while True:
            if not buf:
                self._buf = buf = self._gen.integers(
                    0, 1 << 64, size=RNG_BLOCK, dtype=np.uint64
                ).tolist()
            v = buf.pop()
            if v < accept_below or v < (1 << 64) // k * k:
                return v % k

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


def draw_arrivals(n: int, T: int, seed: int) -> tuple[array, array]:
    """The full arrival schedule for a T-round run: uniform boys and girls.

    Drawn from the arrivals substream only, before the run starts.  Each
    side is an ``array('i')`` of T int32 values, 4 bytes a round; indexing
    or iterating it yields Python ints.
    """
    gen = philox(seed, STREAM_ARRIVALS)
    boys, girls = array("i"), array("i")
    for side in (boys, girls):
        side.frombytes(gen.integers(0, n, size=T).astype(np.int32).view(np.uint8))
    return boys, girls
