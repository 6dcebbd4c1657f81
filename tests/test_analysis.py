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
    PreferenceMatrices,
    greedy_covering,
    sampled_agreement_trial,
    make_policy,
    run_protocol,
    write_instance,
)
import matchlab.analysis as analysis
from matchlab.analysis import (
    boy_side_covering,
    cluster_bound,
    girl_side_covering,
    table_radii,
)
from matchlab.cli import main as cli_main
from matchlab.core import rows_to_masks
from matchlab.rng import philox

from oracles import (
    cluster_bound_loop,
    exact_column_cover,
    greedy_covering_loop,
    packing_lower_bound,
    sampled_agreement_trial_loop,
    two_pass_stats,
)


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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("radius", [6, 10])
def test_first_fit_with_shuffle_is_valid(seed, radius):
    # a shuffled first-fit order groups columns around seeds that are not
    # their group's lowest column index; the covering stays valid
    boys, _ = gen_clustered(ClusteredSpec(n=60, c_b=5, c_g=5, seed=seed)).to_bool_arrays()
    cols = rows_to_masks(boys.T)
    assert greedy_covering(boys, radius, shuffle_seed=1).validate(cols)


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
    st.one_of(st.none(), st.integers(0, 2**32)),
    st.sampled_from([1, 2, 5, analysis.TILE]),
)
@example(  # two columns outside every refined ball: stragglers, in column order
    np.array(
        [[1, 0, 1, 1, 1, 1, 0, 0, 0], [1, 0, 1, 1, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 0, 1, 0, 0]],
        dtype=bool,
    ),
    1, None, 128,
)
def test_covering_matches_loop_oracle(m, radius, shuffle_seed, tile):
    # small tiles make tiny matrices span several tiles
    with mock.patch.object(analysis, "TILE", tile):
        got = greedy_covering(m, radius, shuffle_seed=shuffle_seed)
    want = greedy_covering_loop(m, radius, shuffle_seed=shuffle_seed)
    assert _same_covering(got, want)
    assert got.validate(rows_to_masks(m.T))


def test_covering_matches_loop_oracle_paper_instance():
    prefs = gen_clustered(ClusteredSpec(n=400, c_b=20, c_g=22, seed=0))
    for m in prefs.to_bool_arrays():
        for radius in table_radii(400):
            got = greedy_covering(m, radius, shuffle_seed=0)
            assert _same_covering(got, greedy_covering_loop(m, radius, shuffle_seed=0))


@pytest.mark.parametrize("shuffle_seed", [None, 0, 7])
@pytest.mark.parametrize("radius", [0, 3])
def test_all_singleton_covering_matches_loop_oracle(radius, shuffle_seed, monkeypatch):
    # first fit leaves every column alone, so the refinement is skipped: the
    # covering must still be the loop's, centers in first-fit order included
    m = philox(5, 17).random((30, 16)) < 0.5
    cols = rows_to_masks(m.T)
    assert min((a ^ b).bit_count() for i, a in enumerate(cols) for b in cols[:i]) > radius

    def refined(*args):
        raise AssertionError("the refinement ran on an all-singleton first fit")

    monkeypatch.setattr(analysis, "_majority", refined)
    monkeypatch.setattr(analysis, "_set_cover", refined)
    got = greedy_covering(m, radius, shuffle_seed=shuffle_seed)
    assert got.size == 16
    assert _same_covering(got, greedy_covering_loop(m, radius, shuffle_seed=shuffle_seed))


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


def _duplicated_columns(n, distinct, seed):
    """Instance whose two matrices repeat ``distinct`` random columns."""
    g = philox(seed, 23)
    sides = [(g.random((n, distinct)) < 0.5)[:, g.integers(0, distinct, n)] for _ in range(2)]
    return PreferenceMatrices.from_bool_arrays(*sides)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(0, 10_000))
def test_c0_is_the_distinct_column_count(shape, seed):
    # S' = n stops the scan after half-radius 0, so the bound is C_0 itself:
    # the radius-0 covering's size and the count of distinct columns
    n, distinct = shape
    prefs = _duplicated_columns(n, distinct, seed)
    for side, cover, matrix in (("girl", girl_side_covering, prefs.boys_like),
                                ("boy", boy_side_covering, prefs.girls_like)):
        columns = {tuple((row >> j) & 1 for row in matrix) for j in range(n)}
        assert cluster_bound(prefs, side, n) == cover(prefs, 0).size == len(columns)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.integers(1, 3), st.integers(0, 10_000))
def test_cluster_bound_matches_loop_oracle_on_duplicated_columns(shape, s_prime, seed):
    # a small S' scans half-radii above 0 as well
    n, distinct = shape
    prefs = _duplicated_columns(n, distinct, seed)
    for side in ("girl", "boy"):
        assert cluster_bound(prefs, side, s_prime) == cluster_bound_loop(prefs, side, s_prime)


def test_cluster_bound_needs_no_covering_at_half_radius_0(monkeypatch):
    # the paper-scale instance at ismile's S' = 86: rho = 0 and 1 share
    # half-radius 0, whose C_0 is the distinct-column count, and rho = 2
    # already has 3 rho S' > n; the loop oracle still covers at 0, 0 and 1
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
        assert calls == []
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


def test_trial_matches_loop_oracle():
    gen = philox(5, 19)
    r, k = 96, math.ceil(3 * math.log(96))
    got_rng, want_rng = philox(6, 19), philox(6, 19)
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


# ---------------------------------------------------------------- run tables


def run_tables(tmp_path, prefs, T, seeds):
    """``matchlab run`` of uromm over the seeds: the curves.csv rows after
    the header, the auc.csv rows by metric, and each run's curve, AUC and
    final match count."""
    write_instance(prefs, tmp_path / "inst.txt")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"instance={tmp_path / 'inst.txt'}\npolicies=uromm\nT={T}\n"
                   f"seeds={seeds}\nout={tmp_path / 'out'}\n")
    assert cli_main(["run", str(cfg)]) == 0
    curves = (tmp_path / "out" / "curves.csv").read_text().splitlines()
    assert curves[0] == "t,uromm"
    auc = dict(l.split(",") for l in (tmp_path / "out" / "auc.csv").read_text().splitlines())
    assert auc.pop("metric") == "uromm"
    led = [run_protocol(prefs, make_policy("uromm"), T, seed=s).ledger for s in range(seeds)]
    return curves[1:], auc, [(l.curve.tolist(), l.auc_sum / T, l.matches) for l in led]


def assert_tables_are_two_pass_stats(curve_rows, auc, runs):
    means, _ = two_pass_stats([curve for curve, _, _ in runs])
    assert curve_rows == [f"{t},{m:.6f}" for t, m in enumerate(means, start=1)]
    (auc_mean, final_mean), (auc_std, final_std) = two_pass_stats([[a, f] for _, a, f in runs])
    assert auc == {"auc_mean": f"{auc_mean:.6f}", "auc_std": f"{auc_std:.6f}",
                   "final_mean": f"{final_mean:.6f}", "final_std": f"{final_std:.6f}"}


def test_aggregate_single_run(tmp_path, demo_prefs):
    curve_rows, auc, runs = run_tables(tmp_path, demo_prefs, 25, 1)
    assert_tables_are_two_pass_stats(curve_rows, auc, runs)
    [(curve, _, final)] = runs
    assert curve_rows == [f"{t},{m}.000000" for t, m in enumerate(curve, start=1)]
    assert auc["auc_std"] == auc["final_std"] == "0.000000"
    assert auc["final_mean"] == f"{final}.000000"


def test_aggregate_zero_curves(tmp_path):
    prefs = PreferenceMatrices(3, (0,) * 3, (0,) * 3)
    curve_rows, auc, runs = run_tables(tmp_path, prefs, 10, 10)
    assert_tables_are_two_pass_stats(curve_rows, auc, runs)
    assert curve_rows == [f"{t},0.000000" for t in range(1, 11)]
    assert set(auc.values()) == {"0.000000"}


def test_aggregate_against_two_pass_oracle(tmp_path, demo_prefs):
    curve_rows, auc, runs = run_tables(tmp_path, demo_prefs, 40, 10)
    assert_tables_are_two_pass_stats(curve_rows, auc, runs)
    assert len({tuple(curve) for curve, _, _ in runs}) > 1  # the seeds differ
