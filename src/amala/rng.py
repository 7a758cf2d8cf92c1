"""Deterministic, splittable random number streams.

Every chain draws from its own counter-based stream: the k-th output is a
pure function of (seed, stream_id, k), so streams never need coordination,
can be handed between workers before use, and replay bit-identically.

Construction: a 64-bit stream key is derived by avalanche-mixing the seed
and stream id, and the raw draw at counter k is ``mix64(key + k * GAMMA)``
with the SplitMix64 finalizer and golden-ratio increment. Uniform doubles
take the top 53 bits. Normal variates use the trigonometric Box-Muller
transform and consume exactly two uniforms each; this choice is fixed
because output files are hashed for reproducibility checks.

The key and the uniforms are computed in numpy uint64 arithmetic, which
wraps mod 2**64 as the formula does; uniforms a block of consecutive
counters at a time, so a block holds the formula's bits and is only a cache.
"""

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
_BLOCK = 512  # uniforms computed per refill


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array: a bijective avalanche
    mix of each 64-bit word. Array operations only, as numpy scalar-with-scalar
    ones warn on overflow."""
    x ^= x >> 30
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> 27
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> 31
    return x


def uint64(value, what: str) -> None:
    """Raise ValueError naming what unless value is an int (not a bool) in [0, 2**64)."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 1 << 64:
        raise ValueError(f"{what} must be an integer in [0, 2**64), got {value!r}")


def _stream_key(seed: int, stream_id: int) -> int:
    """mix64(mix64(seed ^ GAMMA) ^ mix64(stream_id)) for 64-bit seed and stream_id."""
    words = _mix64(np.array([seed ^ _GAMMA, stream_id], dtype=np.uint64))
    words[:1] ^= words[1:]
    return int(_mix64(words[:1])[0])


def _uniforms(key: int, start: int, size: int) -> list[float]:
    """The uniforms at counters start, ..., start + size - 1 (mod 2**64)."""
    x = np.arange(size, dtype=np.uint64) * np.uint64(_GAMMA)
    x += np.uint64((key + start * _GAMMA) & _MASK64)
    return ((_mix64(x) >> 11) * _INV_2_53).tolist()


@dataclass
class RngStream:
    """One single-owner random stream identified by (seed, stream_id), each in [0, 2**64).

    The counter is the only mutable state; a stream rebuilt from the same
    seed, stream id and counter reproduces the exact same sequence. Draws
    come from a cached block that is refilled whenever the counter lies
    outside it, so an assigned or wrapped counter gives the same draws.
    """

    seed: int
    stream_id: int
    counter: int = 0

    def __post_init__(self):
        uint64(self.seed, "seed")
        uint64(self.stream_id, "stream_id")
        self._key = _stream_key(self.seed, self.stream_id)
        self._start = 0  # _block[j] is the uniform at counter _start + j
        self._block = []

    def _refill(self, size: int):
        self._start = self.counter
        self._block = _uniforms(self._key, self.counter, size)

    def next_uniform(self) -> float:
        """Return one double in [0, 1); advances the counter by 1.

        The top 53 bits of mix64(key + counter * GAMMA), read from the block.
        """
        i = self.counter - self._start
        if not 0 <= i < len(self._block):
            self._refill(_BLOCK)
            i = 0
        self.counter = (self.counter + 1) & _MASK64
        return self._block[i]

    def normals(self, n: int) -> list[float]:
        """Return n standard normal variates; advances the counter by 2n.

        Box-Muller: z = sqrt(-2 ln(1 - u1)) * cos(2 pi u2) for consecutive
        uniforms u1, u2. The 1 - u1 shift keeps the log argument in (0, 1].
        """
        m = 2 * n
        i = self.counter - self._start
        if i < 0 or i + m > len(self._block):
            self._refill(max(m, _BLOCK))
            i = 0
        self.counter = (self.counter + m) & _MASK64
        u = self._block
        return [
            math.sqrt(-2.0 * math.log(1.0 - u[j])) * math.cos(_TWO_PI * u[j + 1]) for j in range(i, i + m, 2)
        ]


def split(seed: int, chain_id: int) -> RngStream:
    """Create the stream for one chain; chain_id maps 1:1 to stream_id."""
    return RngStream(seed=seed, stream_id=chain_id)
