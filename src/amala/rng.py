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
"""

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of a 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stream_key(seed: int, stream_id: int) -> int:
    return _mix64(_mix64(seed ^ _GAMMA) ^ _mix64(stream_id))


@dataclass
class RngStream:
    """One single-owner random stream identified by (seed, stream_id).

    The counter is the only mutable state; cloning a stream (same seed,
    stream id and counter) reproduces the exact same sequence.
    """

    seed: int
    stream_id: int
    counter: int = 0

    def __post_init__(self):
        self.seed &= _MASK64
        self.stream_id &= _MASK64
        self._key = _stream_key(self.seed, self.stream_id)

    def clone(self) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.counter)

    def _raw(self) -> int:
        value = _mix64((self._key + self.counter * _GAMMA) & _MASK64)
        self.counter = (self.counter + 1) & _MASK64
        return value

    def next_uniform(self) -> float:
        """Return one double in [0, 1); advances the counter by 1."""
        return (self._raw() >> 11) * _INV_2_53

    def next_normal(self) -> float:
        """Return one standard normal variate; advances the counter by 2.

        Box-Muller: z = sqrt(-2 ln(1 - u1)) * cos(2 pi u2). The 1 - u1
        shift keeps the log argument in (0, 1].
        """
        u1 = self.next_uniform()
        u2 = self.next_uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(_TWO_PI * u2)

    def uniforms(self, n: int) -> list[float]:
        return [self.next_uniform() for _ in range(n)]

    def normals(self, n: int) -> list[float]:
        return [self.next_normal() for _ in range(n)]


def split(seed: int, chain_id: int) -> RngStream:
    """Create the stream for one chain; chain_id maps 1:1 to stream_id."""
    return RngStream(seed=seed, stream_id=chain_id)
