import numpy as np

from matchlab.rng import STREAM_ARRIVALS, STREAM_POLICY, SubstreamRng, draw_arrivals, philox
from oracles import randint_by_division


def test_substream_determinism():
    a = SubstreamRng(123, STREAM_POLICY)
    b = SubstreamRng(123, STREAM_POLICY)
    assert [a.randint(10) for _ in range(100)] == [b.randint(10) for _ in range(100)]


def test_streams_are_independent():
    arr1 = draw_arrivals(20, 50, seed=7)
    rng = SubstreamRng(7, STREAM_POLICY)
    for _ in range(1000):  # drain the policy stream heavily
        rng.randint(20)
    arr2 = draw_arrivals(20, 50, seed=7)
    assert arr1 == arr2


def test_draw_arrivals_are_int32_arrays_of_the_arrivals_substream():
    n, T, seed = 37, 1000, 11
    boys, girls = draw_arrivals(n, T, seed)
    assert boys.typecode == girls.typecode == "i"
    gen = philox(seed, STREAM_ARRIVALS)
    assert boys.tolist() == gen.integers(0, n, size=T).tolist()
    assert girls.tolist() == gen.integers(0, n, size=T).tolist()


def test_randint_range_and_uniformity():
    rng = SubstreamRng(0, STREAM_POLICY)
    draws = [rng.randint(7) for _ in range(20000)]
    assert min(draws) == 0 and max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    # 5 sigma around 20000/7
    exp = 20000 / 7
    sd = (20000 * (1 / 7) * (6 / 7)) ** 0.5
    assert all(abs(c - exp) < 5 * sd for c in counts)


def test_randint_matches_the_division_oracle():
    # Same values and same words consumed, for k of every bit length and at
    # the edges; 2^64 - 1 and 2^63 + 1 take the exact-limit branch on almost
    # every draw, and 2^63 + 1 rejects about half of the words.
    edges = [1, 2, 3, 2**63, 2**63 + 1, 2**64 - 1, 2**64]
    gen = philox(4, 9)
    bits = gen.integers(1, 65, size=20000).tolist()
    words = gen.integers(0, 1 << 64, size=20000, dtype=np.uint64).tolist()
    ks = [max(1, w >> (64 - b)) for b, w in zip(bits, words)] + edges * 300
    fast = SubstreamRng(8, STREAM_POLICY, block=64)
    slow = SubstreamRng(8, STREAM_POLICY, block=64)
    assert [fast.randint(k) for k in ks] == [randint_by_division(slow, k) for k in ks]
    assert fast._buf == slow._buf


def test_shuffle_is_permutation():
    rng = SubstreamRng(5, STREAM_POLICY)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


def test_arrival_uniformity_binomial():
    # pooled arrival counts across seeds stay within 5 sigma of T R / n
    n, T, R = 10, 40, 600
    counts = np.zeros(n, dtype=np.int64)
    for s in range(R):
        boys, _ = draw_arrivals(n, T, s)
        counts += np.bincount(boys, minlength=n)
    exp = T * R / n
    sd = (T * R * (1 / n) * (1 - 1 / n)) ** 0.5
    assert np.all(np.abs(counts - exp) < 5 * sd)


def test_philox_keyed_streams_differ():
    x = philox(1, 0).integers(0, 1 << 30, size=8).tolist()
    y = philox(1, 1).integers(0, 1 << 30, size=8).tolist()
    z = philox(2, 0).integers(0, 1 << 30, size=8).tolist()
    assert x != y and x != z
