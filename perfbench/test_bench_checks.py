"""Tests of the benchmark's reference checks (``checks.py``).

Each check must pass on a correct output and fail on a deliberately
corrupted one, and the max-flow reference must agree with brute force.
Run with ``python3 -m pytest perfbench``.
"""

import itertools

import numpy as np
import pytest

import checks


def brute_force_optimum(mut, boy_counts, girl_counts) -> int:
    """Largest set of mutual pairs using each user at most their arrival count."""
    edges = list(zip(*np.nonzero(mut)))
    for k in range(len(edges), 0, -1):
        for subset in itertools.combinations(edges, k):
            used_b = np.bincount([b for b, _ in subset], minlength=len(boy_counts))
            used_g = np.bincount([g for _, g in subset], minlength=len(girl_counts))
            if (used_b <= boy_counts).all() and (used_g <= girl_counts).all():
                return k
    return 0


def test_max_flow_agrees_with_brute_force():
    gen = np.random.default_rng(7)
    for _ in range(60):
        n = int(gen.integers(2, 5))
        boys = gen.random((n, n)) < 0.6
        girls = gen.random((n, n)) < 0.6
        mut = checks.mutual(boys, girls)
        if mut.sum() > 10:
            continue
        b_counts = gen.integers(0, 3, size=n)
        g_counts = gen.integers(0, 3, size=n)
        assert checks.max_flow_optimum(mut, b_counts, g_counts) == brute_force_optimum(mut, b_counts, g_counts)


def write_instance(path, boys, girls):
    rows = lambda m: ["".join("1" if x else "0" for x in r) for r in m]
    path.write_text("\n".join([str(len(boys)), *rows(boys), "", *rows(girls)]) + "\n")


def simulate(boys, girls, T, seed):
    """A trace as `matchlab run` saves it: uniform arrivals, random picks, true signs."""
    n = len(boys)
    gen = np.random.default_rng(seed)
    b_arr, g_sel, g_arr, b_sel = (gen.integers(0, n, size=T) for _ in range(4))
    s_bg = np.where(boys[b_arr, g_sel], 1, -1)
    s_gb = np.where(girls[g_arr, b_sel], 1, -1)
    return np.column_stack([np.arange(1, T + 1), b_arr, g_sel, s_bg, g_arr, b_sel, s_gb])


@pytest.fixture
def instance(tmp_path):
    gen = np.random.default_rng(3)
    boys = gen.random((6, 6)) < 0.5
    girls = gen.random((6, 6)) < 0.5
    path = tmp_path / "inst.txt"
    write_instance(path, boys, girls)
    return path, boys, girls


def test_read_instance_round_trip(instance):
    path, boys, girls = instance
    got_b, got_g = checks.read_instance(path)
    assert np.array_equal(got_b, boys) and np.array_equal(got_g, girls)


def honest_outputs(boys, girls, trace):
    b_arr, g_sel, _, g_arr, b_sel, _ = checks.trace_columns(trace)
    mut = checks.mutual(boys, girls)
    final = checks.replay_matches(boys, girls, b_arr, g_sel, g_arr, b_sel)
    mstar = checks.max_flow_optimum(mut, *checks.arrival_counts(len(boys), b_arr, g_arr))
    out = f"M*_T={mstar}\ndelta={checks.delta_overload(mut, len(trace))}\n"
    return final, mstar, out


def test_trace_checks_pass_on_honest_outputs(instance, tmp_path):
    _, boys, girls = instance
    trace = simulate(boys, girls, 40, seed=1)
    path = tmp_path / "t.trace.csv"
    np.savetxt(path, trace, fmt="%d", delimiter=",", header=checks.TRACE_HEADER, comments="")
    trace = checks.read_trace(path)
    final, mstar, out = honest_outputs(boys, girls, trace)
    assert final > 0
    assert all(not p for p in checks.trace_checks(boys, girls, trace, final, mstar, out).values())


def test_flipped_sign_fails(instance):
    _, boys, girls = instance
    trace = simulate(boys, girls, 40, seed=1)
    final, mstar, out = honest_outputs(boys, girls, trace)
    trace[5, 3] = -trace[5, 3]
    found = checks.trace_checks(boys, girls, trace, final, mstar, out)
    assert found["trace signs = instance signs"]


def test_wrong_final_fails(instance):
    _, boys, girls = instance
    trace = simulate(boys, girls, 40, seed=2)
    final, mstar, out = honest_outputs(boys, girls, trace)
    found = checks.trace_checks(boys, girls, trace, final + 1, mstar, out)
    assert found["numpy replay = final matches"]


def test_mstar_raised_by_one_fails(instance):
    _, boys, girls = instance
    trace = simulate(boys, girls, 40, seed=3)
    final, mstar, out = honest_outputs(boys, girls, trace)
    key = "scipy max flow = M*_T in yardstick.csv and `yardstick`"
    assert checks.trace_checks(boys, girls, trace, final, mstar + 1, out)[key]
    raised = out.replace(f"M*_T={mstar}", f"M*_T={mstar + 1}")
    assert checks.trace_checks(boys, girls, trace, final, mstar, raised)[key]


def test_wrong_delta_fails(instance):
    _, boys, girls = instance
    trace = simulate(boys, girls, 4, seed=4)
    final, mstar, out = honest_outputs(boys, girls, trace)
    bad = out.replace("delta=", "delta=1")
    assert checks.trace_checks(boys, girls, trace, final, mstar, bad)["delta = numpy overload"]


def test_yardstick_csv_bounds(tmp_path):
    path = tmp_path / "yardstick.csv"
    path.write_text("seed,m_star,a_final,b_final\n0,10,9,10\n")
    assert checks.yardstick_problems(path, 10) == []
    assert checks.yardstick_problems(path, 9)  # M*_T above M
    path.write_text("seed,m_star,a_final,b_final\n0,10,11,10\n")
    assert checks.yardstick_problems(path, 12)  # a final above M*_T


def test_packing_bound_on_identity():
    eye = np.eye(5, dtype=bool)  # columns pairwise at distance 2
    assert checks.packing_lower_bounds(eye, [0, 1]) == [5, 1]


def test_cover_below_packing_bound_fails():
    n = 400
    radii = checks.table_radii(n)
    bounds = {"boys": [1, 2, 5], "girls": [1, 1, 1]}
    good = [[str(r), str(b), "3"] for r, b in zip(radii, [1, 2, 5])]
    assert checks.cover_problems(good, n, bounds) == []
    low = [row[:] for row in good]
    low[2][1] = "4"
    assert checks.cover_problems(low, n, bounds)
    growing = [row[:] for row in good]
    growing[0][2] = "9"
    assert checks.cover_problems(growing, n, bounds)


def test_curve_checks(tmp_path):
    curves, auc = tmp_path / "curves.csv", tmp_path / "auc.csv"
    curves.write_text("t,a\n1,0.000000\n2,1.000000\n3,2.000000\n")
    auc.write_text("metric,a\nauc_mean,1.000000\nauc_std,0.000000\nfinal_mean,2.000000\nfinal_std,0.000000\n")
    assert checks.curve_problems(curves, auc) == []
    curves.write_text("t,a\n1,0.000000\n2,3.000000\n3,2.000000\n")
    assert checks.curve_problems(curves, auc)
