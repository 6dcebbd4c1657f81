import math

import numpy as np

from matchlab import (
    ClusteredSpec,
    FeedbackLedger,
    PreferenceMatrices,
    build_matching_graph,
    gen_clustered,
    make_policy,
    run_protocol,
)

from oracles import matched_pairs, reveal


def test_single_mutual_cluster_all_estimates_true():
    # one cluster, everyone likes everyone: every uncovered pair is a match
    n = 60
    full = (1 << n) - 1
    prefs = PreferenceMatrices(n, (full,) * n, (full,) * n)
    r = run_protocol(prefs, make_policy("ismile"), 2 * n * n, seed=1)
    mg = build_matching_graph(prefs)
    assert r.ledger.matches > 0.8 * mg.match_count
    assert all((mg.boy_rows[b] >> g) & 1 for b, g in matched_pairs(r.ledger))
    assert r.ledger.matches == len(matched_pairs(r.ledger))


def test_all_dislike_no_crash_no_verified():
    n = 40
    prefs = PreferenceMatrices(n, (0,) * n, (0,) * n)
    policy = make_policy("ismile")
    r = run_protocol(prefs, policy, n * n, seed=0)
    assert r.ledger.matches == 0
    assert all(not lst for lst in policy.boys.exploit)
    assert all(not lst for lst in policy.girls.exploit)


def test_defaults_and_overrides():
    n = 400
    policy = make_policy("ismile")
    policy.start(n, 10, _rng(), FeedbackLedger(n))
    assert policy.S == math.floor(n / math.log(n))
    assert policy.s_prime == policy.S + math.ceil(math.sqrt(policy.S * math.log(n)))
    assert abs(policy.tol - 1 / math.log(n)) < 1e-12

    forced = make_policy("ismile", S=10, tolerance=0.0)
    forced.start(n, 10, _rng(), FeedbackLedger(n))
    assert forced.S == 10 and forced.tol == 0.0


def _rng():
    from matchlab.rng import SubstreamRng

    return SubstreamRng(0, 1)


def test_reciprocal_prioritization():
    n = 8
    # girl 3 likes boy 2; nobody else likes anyone
    girls = [0] * n
    girls[3] = 1 << 2
    prefs = PreferenceMatrices(n, ((1 << n) - 1,) * n, tuple(girls))
    policy = make_policy("ismile")
    ledger = FeedbackLedger(n)
    policy.start(n, 100, _rng(), ledger)
    # boy 2 hears that girl 3 likes him
    reveal(policy, ledger, False, 3, 2, 1, 1)
    assert policy.select_for_boy(2, 2) == 3  # answers the like before anything else


def test_cluster_preference_single_probe():
    n = 30
    policy = make_policy("ismile")
    ledger = FeedbackLedger(n)
    policy.start(n, 100, _rng(), ledger)
    # fabricate a discovered girl cluster with members 4 and 7
    girls = policy.girls.clusters
    girls.members.append([4, 7])
    girls.reps.append(4)
    girls.cid_of[4] = 0
    girls.cid_of[7] = 0
    policy.boys.toask[5][0] = None
    g = policy.select_for_boy(5, 1)
    assert g == 4  # probes the unknown cluster first
    reveal(policy, ledger, True, 5, 4, 1, 1)
    assert policy.boys.cpref[5][0] == 1
    assert policy.boys.exploit[5] == [0]
    # next arrival exploits the verified cluster: remaining member 7
    assert policy.select_for_boy(5, 2) == 7


def test_ismile_matches_smile_clustering_when_noiseless():
    # strongly separated clusters: any common rater distinguishes them,
    # so both variants must settle on the same representatives and partition
    n = 80
    mask_even = sum(1 << g for g in range(0, n, 2))
    prefs = PreferenceMatrices(n, (mask_even,) * n, (0,) * n)
    T = 16000
    S = 5

    smile = make_policy("smile", S=S, tolerance=0.0)
    run_protocol(prefs, smile, T, seed=21)
    ismile = make_policy("ismile", S=S, tolerance=0.0)
    run_protocol(prefs, ismile, T, seed=21)

    s_girls, i_girls = smile.girls.clusters, ismile.girls.clusters
    smile_reps = set(s_girls.reps)
    ismile_reps = set(i_girls.reps)
    assert smile_reps == ismile_reps
    # identical partitions of the girls
    for g in range(n):
        s_rep = s_girls.reps[s_girls.cid_of[g]]
        i_cid = i_girls.cid_of[g]
        assert i_girls.reps[i_cid] == s_rep


def test_auc_beats_oomm_on_clustered_instance():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.01, seed=5)
    prefs = gen_clustered(spec)
    T = 2 * 100 * 100
    auc_i, auc_o = 0.0, 0.0
    for seed in range(3):
        auc_i += run_protocol(prefs, make_policy("ismile"), T, seed).ledger.auc_sum / T
        auc_o += run_protocol(prefs, make_policy("oomm"), T, seed).ledger.auc_sum / T
    assert auc_i > auc_o


def test_curve_sanity_on_clustered_instance():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=8)
    prefs = gen_clustered(spec)
    mg = build_matching_graph(prefs)
    r = run_protocol(prefs, make_policy("ismile"), 15000, seed=2)
    curve = r.ledger.curve
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] <= mg.match_count
    assert curve[-1] >= 0.5 * mg.match_count  # interleaving finds most matches here
