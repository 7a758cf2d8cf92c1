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
    assert a.next_normal() == b.next_normal()


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
    a.next_normal()
    assert a.counter == 2
    b = RngStream(seed=1, stream_id=0)
    b.next_uniform()
    assert b.counter == 1


def test_advanced_clone_diverges():
    a = RngStream(seed=77, stream_id=0)
    b = RngStream(a.seed, a.stream_id, a.counter)
    b.next_normal()
    assert a.next_normal() != b.next_normal()


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
