import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchlab import (
    ClusteredSpec,
    InputError,
    gen_clustered,
    greedy_covering,
    hamming_distance,
    sampled_agreement_trial,
    make_policy,
    run_protocol,
)
import matchlab.analysis as analysis
from matchlab.analysis import (
    boy_side_covering,
    cluster_bound,
    girl_side_covering,
    table_radii,
    aggregate_runs,
)
from matchlab.core import rows_to_masks
from matchlab.rng import philox

from oracles import (
    cluster_bound_loop,
    exact_column_cover,
    greedy_covering_loop,
    hamming_bitloop,
    packing_lower_bound,
    sampled_agreement_trial_loop,
    two_pass_stats,
)


# ---------------------------------------------------------------- hamming


def test_hamming_examples():
    assert hamming_distance([0, 1, 1, 0], [0, 1, 1, 0]) == 0
    assert hamming_distance([0] * 8, [1] * 8) == 8
    with pytest.raises(InputError):
        hamming_distance([0, 1], [0, 1, 1])


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=64))
def test_hamming_matches_bitloop(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    assert hamming_distance(a, b) == hamming_bitloop(a, b)


# ---------------------------------------------------------------- covering


def test_identical_columns_radius_zero():
    m = np.ones((6, 9), dtype=bool)
    res = greedy_covering(m, 0)
    assert res.size == 1
    assert res.assignment == [0] * 9


def test_noiseless_clusters_radius_zero_exact():
    spec = ClusteredSpec(n=100, c_b=10, c_g=20, flip=0.0, seed=4)
    prefs = gen_clustered(spec)
    boys, _ = prefs.to_bool_arrays()
    distinct = len({tuple(col) for col in boys.T})
    res = greedy_covering(boys, 0)
    assert res.size == distinct
    assert distinct <= 20


def test_covering_assignment_is_valid():
    gen = philox(7, 11)
    m = gen.random((40, 30)) < 0.5
    for radius in (0, 3, 10, 40):
        res = greedy_covering(m, radius)
        cols = rows_to_masks(m.T)
        assert res.validate(cols)
        assert 1 <= res.size <= 30


def test_covering_monotone_over_table_radii():
    spec = ClusteredSpec(n=200, c_b=10, c_g=11, seed=1)
    prefs = gen_clustered(spec)
    for cover in (boy_side_covering, girl_side_covering):
        sizes = [cover(prefs, r, shuffle_seed=0).size for r in table_radii(200)]
        assert sizes[0] <= sizes[1] <= sizes[2]


def test_covering_recovers_planted_pattern_desk_scale():
    # planted 10/11 clusters with flip noise 1/(2 ln n): the mid radius
    # n/ln n recovers the planted counts within 20%
    spec = ClusteredSpec(n=200, c_b=10, c_g=11, seed=3)
    prefs = gen_clustered(spec)
    rho = table_radii(200)[1]
    cb = boy_side_covering(prefs, rho, shuffle_seed=3).size
    cg = girl_side_covering(prefs, rho, shuffle_seed=3).size
    assert 8 <= cb <= 12
    assert 9 <= cg <= 14


def test_refined_no_worse_than_first_fit():
    gen = philox(3, 13)
    m = gen.random((60, 40)) < 0.3
    for radius in (2, 6, 12):
        refined = greedy_covering(m, radius).size
        plain = greedy_covering(m, radius, refine=False).size
        assert refined <= plain


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("radius", [6, 10])
def test_first_fit_with_shuffle_is_valid(seed, radius):
    # each first-fit center is its group's seed column, not the group's
    # lowest column index, which may lie farther than the radius from it
    boys, _ = gen_clustered(ClusteredSpec(n=60, c_b=5, c_g=5, seed=seed)).to_bool_arrays()
    cols = rows_to_masks(boys.T)
    assert greedy_covering(boys, radius, refine=False, shuffle_seed=1).validate(cols)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 6), st.integers(1, 10), st.integers(0, 10_000))
def test_covering_sandwich_small(radius, ncols, seed):
    gen = philox(seed, 17)
    m = gen.random((12, ncols)) < 0.5
    cols = rows_to_masks(m.T)
    res = greedy_covering(m, radius)
    assert res.validate(cols)
    lower = packing_lower_bound(cols, radius)
    exact = exact_column_cover(cols, radius)
    assert lower <= res.size <= 2 * exact


def _same_covering(a, b):
    return (a.centers, a.assignment, a.size) == (b.centers, b.assignment, b.size)


@st.composite
def small_matrices(draw):
    # noisy copies of a few column patterns: duplicate columns and tied
    # distances are common
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    n_patterns = draw(st.integers(1, 12))
    flip = draw(st.sampled_from([0.0, 0.1, 0.5]))
    gen = philox(draw(st.integers(0, 2**32)), 23)
    patterns = gen.random((n_rows, n_patterns)) < 0.5
    m = patterns[:, gen.integers(0, n_patterns, size=n_cols)]
    return m ^ (gen.random((n_rows, n_cols)) < flip)


@settings(max_examples=300, deadline=None)
@given(
    small_matrices(),
    st.integers(0, 14),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 2**32)),
    st.sampled_from([1, 2, 5, analysis.TILE]),
)
@example(  # two columns outside every refined ball: stragglers, in column order
    np.array(
        [[1, 0, 1, 1, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 0, 1, 0, 0]],
        dtype=bool,
    ),
    1, True, None, 128,
)
def test_covering_matches_loop_oracle(m, radius, refine, shuffle_seed, tile):
    # small tiles make tiny matrices span several tiles
    with mock.patch.object(analysis, "TILE", tile):
        got = greedy_covering(m, radius, refine=refine, shuffle_seed=shuffle_seed)
    want = greedy_covering_loop(m, radius, refine=refine, shuffle_seed=shuffle_seed)
    assert _same_covering(got, want)
    assert got.validate(rows_to_masks(m.T))


def test_covering_matches_loop_oracle_paper_instance():
    prefs = gen_clustered(ClusteredSpec(n=400, c_b=20, c_g=22, seed=0))
    for m in prefs.to_bool_arrays():
        for radius in table_radii(400):
            got = greedy_covering(m, radius, shuffle_seed=0)
            assert _same_covering(got, greedy_covering_loop(m, radius, shuffle_seed=0))


def test_cluster_bound_flags_reasonably():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=7)
    prefs = gen_clustered(spec)
    policy = make_policy("smile", S=5)
    run_protocol(prefs, policy, 15000, seed=0)
    s_prime = policy.S_prime
    bound_g = cluster_bound(prefs, "girl", s_prime)
    assert len(policy.girls.clusters.reps) <= bound_g
    assert bound_g <= 100


@pytest.mark.parametrize("n", [60, 100])
@pytest.mark.parametrize("flip", [0.0, 0.01, 0.03, None])
def test_cluster_bound_matches_loop_oracle(n, flip):
    prefs = gen_clustered(ClusteredSpec(n=n, c_b=5, c_g=6, flip=flip, seed=n))
    for s_prime in (1, 2, 3, 86, 284):
        for side in ("girl", "boy"):
            assert cluster_bound(prefs, side, s_prime) == cluster_bound_loop(prefs, side, s_prime)


def test_cluster_bound_one_covering_per_side(monkeypatch):
    # the paper-scale instance at ismile's S' = 86: rho = 0 and 1 share the
    # half-radius-0 covering and rho = 2 already has 3 rho S' > n
    import matchlab.analysis as analysis

    prefs = gen_clustered(ClusteredSpec(n=400, c_b=20, c_g=22, seed=0))
    calls = []
    real = analysis.greedy_covering

    def counted(matrix, radius, **kw):
        calls.append(radius)
        return real(matrix, radius, **kw)

    monkeypatch.setattr(analysis, "greedy_covering", counted)
    for side in ("girl", "boy"):
        calls.clear()
        assert cluster_bound(prefs, side, 86) == 400
        assert calls == [0]
        calls.clear()
        assert cluster_bound_loop(prefs, side, 86) == 400
        assert calls == [0, 0, 1]


# ---------------------------------------------------------------- agreement trials


def test_trial_self_agreement():
    gen = philox(0, 19)
    m = gen.random((64, 16)) < 0.5
    trial = sampled_agreement_trial(m, target=5, beta=3, k=math.ceil(3 * math.log(64)), rng=gen)
    assert 5 in trial.agreeing
    assert trial.distances[trial.agreeing.index(5)] == 0


def test_trial_complement_never_agrees():
    col = (philox(1, 19).random(64) < 0.5).astype(bool)
    m = np.stack([col, ~col], axis=1)
    m = np.hstack([m] * 8)[:, :16]  # keep r >= c
    gen = philox(2, 19)
    trial = sampled_agreement_trial(m, target=0, beta=3, k=math.ceil(3 * math.log(64)), rng=gen)
    assert 1 not in trial.agreeing


def test_trial_input_validation():
    gen = philox(0, 19)
    m = gen.random((32, 8)) < 0.5
    with pytest.raises(InputError):
        sampled_agreement_trial(m, target=0, beta=3, k=64, rng=gen)  # k > r
    with pytest.raises(InputError):
        sampled_agreement_trial(m, target=0, beta=3, k=3, rng=gen)  # k below ceil(beta ln r)


@pytest.mark.parametrize("rng_kind", ["generator", "substream"])
def test_trial_matches_loop_oracle(rng_kind):
    from matchlab.rng import SubstreamRng

    def make_rng():
        return philox(6, 19) if rng_kind == "generator" else SubstreamRng(6, 19)

    gen = philox(5, 19)
    r, k = 96, math.ceil(3 * math.log(96))
    got_rng, want_rng = make_rng(), make_rng()
    several = inexact = 0
    for trial in range(40):
        # noisy copies of four patterns: agreeing sets with several columns
        bases = gen.random((r, 4)) < 0.5
        m = bases[:, gen.integers(0, 4, size=48)] ^ (gen.random((r, 48)) < 0.01 * (trial % 8))
        target = int(gen.integers(0, 48))
        got = sampled_agreement_trial(m, target=target, beta=3, k=k, rng=got_rng)
        want = sampled_agreement_trial_loop(m, target=target, beta=3, k=k, rng=want_rng)
        assert got == want
        several += len(got.agreeing) > 1
        inexact += any(got.distances)
    assert several >= 20 and inexact >= 5  # the cases are exercised


def test_trial_violation_frequency_bound_small():
    # light version of the Monte-Carlo check: random 128x128 matrices
    r = 128
    beta = 3.0
    k = math.ceil(beta * math.log(r))
    trials = 2000
    gen = philox(4, 19)
    violations = 0
    for _ in range(trials):
        m = gen.random((r, r)) < 0.5
        t = sampled_agreement_trial(m, target=int(gen.integers(0, r)), beta=beta, k=k, rng=gen)
        if t.violations():
            violations += 1
    bound = r ** (1 - beta) + 3 * math.sqrt(r ** (1 - beta) / trials)
    assert violations / trials <= bound


# ---------------------------------------------------------------- aggregation


def test_aggregate_single_run(demo_prefs):
    r = run_protocol(demo_prefs, make_policy("uromm"), 25, seed=0)
    s = aggregate_runs([r])
    ps = s.policies["uromm"]
    assert np.array_equal(ps.mean_curve, r.ledger.curve)
    assert np.all(ps.std_curve == 0)
    assert ps.finals == [r.ledger.matches]


def test_aggregate_zero_curves():
    from matchlab import PreferenceMatrices

    prefs = PreferenceMatrices(3, (0,) * 3, (0,) * 3)
    runs = [run_protocol(prefs, make_policy("uromm"), 10, seed=s) for s in range(2)]
    s = aggregate_runs(runs)
    ps = s.policies["uromm"]
    assert np.all(ps.mean_curve == 0) and np.all(ps.std_curve == 0)
    assert ps.mean_auc == 0.0


def test_aggregate_against_two_pass_oracle(demo_prefs):
    runs = [run_protocol(demo_prefs, make_policy("uromm"), 40, seed=s) for s in range(10)]
    s = aggregate_runs(runs)
    ps = s.policies["uromm"]
    means, stds = two_pass_stats([r.ledger.curve.tolist() for r in runs])
    assert np.allclose(ps.mean_curve, means)
    assert np.allclose(ps.std_curve, stds)
    assert ps.mean_auc == pytest.approx(sum(r.ledger.auc_sum / 40 for r in runs) / 10)


def test_aggregate_rejects_mixed_T(demo_prefs):
    a = run_protocol(demo_prefs, make_policy("uromm"), 10, seed=0)
    b = run_protocol(demo_prefs, make_policy("uromm"), 12, seed=0)
    with pytest.raises(InputError):
        aggregate_runs([a, b])
