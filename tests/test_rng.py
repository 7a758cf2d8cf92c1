import math
import re

import numpy as np
import pytest
from scipy import stats

from amala.rng import RngStream, split


def test_clone_replays_identical_sequence():
    a = RngStream(seed=123, stream_id=7)
    b = RngStream(a.seed, a.stream_id, a.counter)
    assert [a.next_uniform() for _ in range(50)] == [b.next_uniform() for _ in range(50)]


def test_same_state_same_value():
    a = RngStream(seed=9, stream_id=3, counter=41)
    b = RngStream(seed=9, stream_id=3, counter=41)
    assert a.next_uniform() == b.next_uniform()
    assert a.normals(1) == b.normals(1)


def test_uniform_range():
    s = split(2024, 0)
    draws = [s.next_uniform() for _ in range(100_000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_uniform_mean_and_chi_square():
    s = split(11, 0)
    draws = np.array([s.next_uniform() for _ in range(100_000)])
    assert 0.49 <= draws.mean() <= 0.51
    counts, _ = np.histogram(draws, bins=64, range=(0.0, 1.0))
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.001


def test_normal_moments():
    s = split(5, 0)
    draws = np.array(s.normals(100_000))
    assert -0.02 <= draws.mean() <= 0.02
    assert 0.97 <= draws.var() <= 1.03


def test_normal_consumes_two_uniforms():
    a = RngStream(seed=1, stream_id=0)
    a.normals(1)
    assert a.counter == 2
    b = RngStream(seed=1, stream_id=0)
    b.next_uniform()
    assert b.counter == 1


def test_advanced_clone_diverges():
    a = RngStream(seed=77, stream_id=0)
    b = RngStream(a.seed, a.stream_id, a.counter)
    b.normals(1)
    assert a.normals(1) != b.normals(1)


def test_split_deterministic_and_distinct():
    assert split(42, 3) == split(42, 3)
    assert split(42, 0).next_uniform() != split(42, 1).next_uniform()


def test_split_first_draws_pairwise_distinct():
    firsts = [split(42, k).next_uniform() for k in range(101)]
    assert len(set(firsts)) == len(firsts)


def test_streams_share_no_prefix_of_length_two():
    # same seed, different ids: never two consecutive equal draws in the
    # first 1e4, and the length-2 prefixes of 100 streams are all distinct
    sa, sb = split(3, 0), split(3, 1)
    a = [sa.next_uniform() for _ in range(10_000)]
    b = [sb.next_uniform() for _ in range(10_000)]
    matches = [i for i in range(9_999) if a[i] == b[i] and a[i + 1] == b[i + 1]]
    assert matches == []
    streams = [split(3, k) for k in range(100)]
    prefixes = {(s.next_uniform(), s.next_uniform()) for s in streams}
    assert len(prefixes) == 100


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_extreme_seeds_accepted(seed):
    s = split(seed, 0)
    u = s.next_uniform()
    assert 0.0 <= u < 1.0


@pytest.mark.parametrize("value", [2**64, -1, True, 1.5])
@pytest.mark.parametrize("field", ["seed", "stream_id"])
def test_out_of_range_seed_or_stream_id_rejected(field, value):
    # neither is wrapped: seed 2**64 is not seed 0's stream, nor True seed 1's
    ids = {"seed": 1, "stream_id": 0, field: value}
    message = re.escape(f"{field} must be an integer in [0, 2**64), got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        RngStream(**ids)
    with pytest.raises(ValueError, match=f"^{message}$"):
        split(ids["seed"], ids["stream_id"])


# -- block generation against the scalar formula ------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def uniform_oracle(stream):
    """The scalar SplitMix64 uniform: the reference for the block-generated draws."""
    x = (stream._key + stream.counter * _GAMMA) & _MASK64
    stream.counter = (stream.counter + 1) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((x ^ (x >> 31)) >> 11) * 2.0**-53


def normal_oracle(stream):
    """The scalar Box-Muller normal built on uniform_oracle."""
    u1 = uniform_oracle(stream)
    u2 = uniform_oracle(stream)
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


# (method, argument) calls: 28 uniforms, 483 more so that the next normal
# reads the last uniform of the block filled at the first call and the first
# of the next, then two normals(300) around a uniform and a normal; 1716
# uniforms in all
MIXED_CALLS = (
    [
        ("normals", 1),
        ("next_uniform", None),
        ("normals", 1),
        ("normals", 0),
        ("normals", 1),
        ("normals", 3),
        ("next_uniform", None),
        ("normals", 7),
    ]
    + [("next_uniform", None)] * 483
    + [("normals", 1), ("normals", 300), ("next_uniform", None)]
    + [("normals", 1), ("normals", 300)]
)


def replay(stream, calls):
    out = []
    for method, arg in calls:
        value = getattr(stream, method)() if arg is None else getattr(stream, method)(arg)
        out.extend(value if isinstance(value, list) else [value])
    return out


def replay_oracle(stream, calls):
    out = []
    for method, arg in calls:
        if method == "next_uniform":
            out.append(uniform_oracle(stream))
        else:
            out.extend(normal_oracle(stream) for _ in range(arg))
    return out


@pytest.mark.parametrize("start", [0, 511, 2**64 - 3])
def test_block_draws_equal_scalar_oracle(start, monkeypatch):
    refills = []
    refill = RngStream._refill

    def counting_refill(self, size):
        refills.append(self.counter)
        refill(self, size)

    monkeypatch.setattr(RngStream, "_refill", counting_refill)
    stream = RngStream(seed=2024, stream_id=5, counter=start)
    oracle = RngStream(seed=2024, stream_id=5, counter=start)
    assert replay(stream, MIXED_CALLS) == replay_oracle(oracle, MIXED_CALLS)
    assert stream.counter == oracle.counter == (start + 1716) & _MASK64
    # the first block, each normals(300), and either the normal that
    # straddles the first block's edge or the wrap to counter 0
    assert len(refills) >= 4
    assert (0 if start > 2**64 - 512 else start + 511) in refills
    # a counter assigned outside the block, then backwards and forwards
    # inside it, serves the draws of that counter, not the next cached ones
    for jump, refilled in ((-700, True), (-3, False), (5, False), (1000, True)):
        before = len(refills)
        stream.counter = oracle.counter = (oracle.counter + jump) & _MASK64
        assert replay(stream, MIXED_CALLS[:9]) == replay_oracle(oracle, MIXED_CALLS[:9])
        assert stream.counter == oracle.counter
        assert (len(refills) > before) == refilled


def test_counter_wraps_past_2_64():
    stream = RngStream(seed=9, stream_id=1, counter=2**64 - 1)
    oracle = RngStream(seed=9, stream_id=1, counter=2**64 - 1)
    assert stream.normals(2) == [normal_oracle(oracle) for _ in range(2)]
    assert stream.counter == oracle.counter == 3
    assert stream.next_uniform() == RngStream(seed=9, stream_id=1, counter=3).next_uniform()
