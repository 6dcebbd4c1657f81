import math

import pytest

from matchlab import (
    ClusteredSpec,
    InputError,
    build_matching_graph,
    gen_adversarial_random,
    gen_block_lowerbound,
    gen_clustered,
    gen_random_bipartite,
    greedy_covering,
)


def test_clustered_all_like_when_p1_flip0():
    spec = ClusteredSpec(n=20, c_b=3, c_g=4, p_like=1.0, flip=0.0, seed=0)
    prefs = gen_clustered(spec)
    full = (1 << 20) - 1
    assert all(r == full for r in prefs.boys_like)
    assert all(r == full for r in prefs.girls_like)


def test_clustered_single_girl_cluster_constant_rows():
    spec = ClusteredSpec(n=30, c_b=5, c_g=1, flip=0.0, seed=1)
    prefs = gen_clustered(spec)
    full = (1 << 30) - 1
    assert all(r in (0, full) for r in prefs.boys_like)  # one coin per boy


def test_clustered_distinct_columns_bounded_by_cluster_count():
    spec = ClusteredSpec(n=60, c_b=4, c_g=7, flip=0.0, seed=2)
    prefs = gen_clustered(spec)
    boys, girls = prefs.to_bool_arrays()
    assert len({tuple(c) for c in boys.T}) <= 7
    assert len({tuple(c) for c in girls.T}) <= 4


def test_clustered_like_count_within_3_sigma():
    n, c_b, c_g = 400, 20, 22
    spec = ClusteredSpec(n=n, c_b=c_b, c_g=c_g, seed=5)
    prefs = gen_clustered(spec)
    f = spec.resolved_flip
    p = spec.p_like
    q = p * (1 - f) + (1 - p) * f
    mean = n * n * q
    # cluster coins are shared across n/c_g entries, which dominates the variance
    w = n / c_g
    var = n * n * f * (1 - f) + p * (1 - p) * n * n * w * (1 - 2 * f) ** 2
    likes = sum(r.bit_count() for r in prefs.boys_like)
    assert abs(likes - mean) < 3 * math.sqrt(var)


def test_clustered_balanced_partition_sizes():
    # balanced partitions show up as nearly equal distinct-column multiplicities
    spec = ClusteredSpec(n=60, c_b=6, c_g=6, flip=0.0, seed=3)
    prefs = gen_clustered(spec)
    boys, _ = prefs.to_bool_arrays()
    from collections import Counter

    sizes = Counter(tuple(c) for c in boys.T).values()
    assert max(sizes) - min(sizes) <= 1 or len(sizes) < 6  # collisions can merge columns


def test_clustered_pair_level_coins_flag():
    spec = ClusteredSpec(n=40, c_b=4, c_g=4, flip=0.0, seed=9, pair_level_coins=True)
    prefs = gen_clustered(spec)
    boys, _ = prefs.to_bool_arrays()
    # per-pair coins: boys of one cluster have identical rows
    assert len({tuple(r) for r in boys}) <= 4


def test_clustered_seed_determinism():
    spec = ClusteredSpec(n=50, c_b=5, c_g=5, seed=12)
    assert gen_clustered(spec) == gen_clustered(spec)
    other = ClusteredSpec(n=50, c_b=5, c_g=5, seed=13)
    assert gen_clustered(other) != gen_clustered(spec)


# ---------------------------------------------------------------- adversarial


def test_adversarial_m0_all_dislike():
    prefs = gen_adversarial_random(10, 0, 0)
    assert build_matching_graph(prefs).match_count == 0
    assert all(r == 0 for r in prefs.boys_like)


def test_adversarial_exact_match_count():
    for n, m, seed in ((10, 50, 0), (100, 500, 1), (20, 200, 2)):
        prefs = gen_adversarial_random(n, m, seed)
        mg = build_matching_graph(prefs)
        assert mg.match_count == m
        # every positive edge is reciprocated and vice versa
        for b in range(n):
            for g in range(n):
                assert prefs.sign_bg(b, g) == prefs.sign_gb(g, b)


def test_adversarial_max_m():
    n = 8
    prefs = gen_adversarial_random(n, n * n // 2, 3)
    assert build_matching_graph(prefs).match_count == n * n // 2


def test_adversarial_rejects_large_m():
    with pytest.raises(InputError):
        gen_adversarial_random(8, 33, 0)


# ---------------------------------------------------------------- block construction


def test_block_d_equals_n_exact():
    n, m = 64, 300  # n ln n = 266 < 300 < n^2 - n ln n
    prefs = gen_block_lowerbound(n, n, m, 0)
    assert build_matching_graph(prefs).match_count == m


def test_block_d1_whole_rows():
    n, m = 64, 300
    prefs = gen_block_lowerbound(n, 1, m, 0)
    assert build_matching_graph(prefs).match_count == (m // n) * n


def test_block_counts_and_covering():
    n, d, m = 120, 12, 2000
    prefs = gen_block_lowerbound(n, d, m, 1)
    mg = build_matching_graph(prefs)
    assert mg.match_count == (m * d // n) * (n // d)
    assert mg.match_count == 2000  # 2000 * 12 / 120 = 200 blocks of width 10
    boys, girls = prefs.to_bool_arrays()
    assert girls.all()  # one boy-side cluster
    assert greedy_covering(boys, 0).size <= d


def test_block_match_band_property():
    for seed in range(5):
        n, d, m = 60, 6, 700
        prefs = gen_block_lowerbound(n, d, m, seed)
        M = build_matching_graph(prefs).match_count
        assert m - n / d < M <= m


def test_block_validation():
    with pytest.raises(InputError):
        gen_block_lowerbound(10, 3, 50, 0)  # d does not divide n
    with pytest.raises(InputError):
        gen_block_lowerbound(64, 8, 10, 0)  # m below n ln n


# ---------------------------------------------------------------- random bipartite


def test_bipartite_extremes():
    mg, prefs = gen_random_bipartite(6, 0.0, 0)
    assert mg.match_count == 0
    mg, prefs = gen_random_bipartite(6, 1.0, 0)
    assert mg.match_count == 36
    assert build_matching_graph(prefs).match_count == 36


def test_bipartite_edge_count_within_4_sigma():
    n, p = 200, 0.05
    mg, prefs = gen_random_bipartite(n, p, 7)
    mean = p * n * n
    sd = math.sqrt(n * n * p * (1 - p))
    assert abs(mg.match_count - mean) < 4 * sd
    assert build_matching_graph(prefs).match_count == mg.match_count


def test_bipartite_prefs_consistent():
    mg, prefs = gen_random_bipartite(15, 0.3, 2)
    assert build_matching_graph(prefs).boy_rows == mg.boy_rows
