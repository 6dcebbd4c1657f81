"""Acceptance suite: one test per release criterion, run in order.

Each criterion prints a single PASS/FAIL line.  Every simulated run feeds the
trace-optimal dominance check (criterion 10), which is a hard zero-tolerance
assertion.  Expect a few minutes of wall time for the full file; the large
Monte-Carlo criteria dominate.
"""

import math

import numpy as np
from scipy.stats import chisquare

from matchlab import (
    ClusteredSpec,
    build_matching_graph,
    gen_adversarial_random,
    gen_clustered,
    sampled_agreement_trial,
    make_policy,
    run_protocol,
    tiny_demo_instance,
)
from matchlab.analysis import boy_side_covering, cluster_bound, girl_side_covering
from matchlab.cli import main as cli_main
from matchlab.omniscient import ArrivalCounts, arrival_counts, optimal_matches
from matchlab.rng import philox

from oracles import brute_force_bmatching, replay_ledger

DOMINANCE_LOG = []


def dominated(mg, run):
    """Hard yardstick check; logs the comparison for criterion 10."""
    mstar = optimal_matches(mg, arrival_counts(run.trace))
    DOMINANCE_LOG.append((run.policy_name, run.seed, run.ledger.matches, mstar))
    assert run.ledger.matches <= mstar, (
        f"{run.policy_name} seed {run.seed}: {run.ledger.matches} > M*_T={mstar}"
    )
    return mstar


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -------------------------------------------------------------- criterion 1


def test_criterion_01_flow_yardstick_exactness():
    mg = build_matching_graph(tiny_demo_instance())
    fig = optimal_matches(mg, ArrivalCounts((4,) * 4, (4,) * 4))
    ok = fig == 4

    gen = philox(2024, 66)
    checked = 0
    for _ in range(1000):
        n = int(gen.integers(2, 6))
        adj = gen.random((n, n)) < 0.4
        rows = tuple(int(sum(1 << j for j in range(n) if adj[i, j])) for i in range(n))
        from matchlab.core import MatchingGraph

        g = MatchingGraph(n, rows, sum(r.bit_count() for r in rows))
        tb = gen.integers(0, n + 2, size=n).tolist()
        tg = gen.integers(0, n + 2, size=n).tolist()
        while sum(tg) != sum(tb):
            i = int(gen.integers(0, n))
            if sum(tg) < sum(tb):
                tg[i] += 1
            elif tg[i] > 0:
                tg[i] -= 1
        flow = optimal_matches(g, ArrivalCounts(tuple(tb), tuple(tg)))
        brute = brute_force_bmatching([tuple(e) for e in np.argwhere(adj).tolist()], tb, tg)
        if flow != brute:
            report(1, "flow yardstick exactness", False, f"flow {flow} != brute {brute}")
        checked += 1
    report(1, "flow yardstick exactness", ok and checked == 1000,
           f"demo instance -> {fig}; {checked} brute-force comparisons equal")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_oomm_band():
    n, m, T, seeds = 200, 2000, 2000, 200
    prefs = gen_adversarial_random(n, m, seed=2)
    mg = build_matching_graph(prefs)
    finals = []
    for s in range(seeds):
        r = run_protocol(prefs, make_policy("oomm"), T, seed=s, curve_stride=T)
        dominated(mg, r)
        finals.append(r.ledger.matches)
    mean = sum(finals) / seeds
    lo = 0.016 * (T - n) * m / n**2
    hi = 2 * T * m / n**2
    report(2, "oomm match band", lo <= mean <= hi,
           f"mean M_T = {mean:.2f} in [{lo:.2f}, {hi:.2f}]")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_oomm_uniform_reciprocal_sampling():
    n, T, seeds = 30, 300, 2000
    prefs = gen_adversarial_random(n, 200, seed=5)
    mg = build_matching_graph(prefs)
    counts = np.zeros(n * n, dtype=np.int64)
    for s in range(seeds):
        r = run_protocol(prefs, make_policy("oomm"), T, seed=s, curve_stride=T)
        dominated(mg, r)
        obs_bg, obs_gb, *_ = replay_ledger(r.trace)
        for b, g in obs_bg:
            if (g, b) in obs_gb:
                counts[b * n + g] += 1
    res = chisquare(counts)
    report(3, "oomm uniform reciprocal sampling", res.pvalue >= 0.01,
           f"chi2 = {res.statistic:.1f} on {n * n - 1} dof, p = {res.pvalue:.4f}")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_uromm_vs_oomm_ratio():
    n, T, seeds = 100, 1000, 500
    prefs = gen_adversarial_random(n, 1000, seed=4)
    mg = build_matching_graph(prefs)
    tot_u = tot_o = 0
    for s in range(seeds):
        ru = run_protocol(prefs, make_policy("uromm"), T, seed=s, curve_stride=T)
        ro = run_protocol(prefs, make_policy("oomm"), T, seed=s, curve_stride=T)
        dominated(mg, ru)
        dominated(mg, ro)
        tot_u += ru.ledger.matches
        tot_o += ro.ledger.matches
    ratio = (tot_u / seeds) / (tot_o / seeds)
    lo = 0.05 * T / n**2
    hi = 5 * T / n**2
    report(4, "uromm/oomm ratio", lo <= ratio <= hi,
           f"ratio = {ratio:.4f} in [{lo:.4f}, {hi:.4f}] "
           f"(means {tot_u / seeds:.1f} / {tot_o / seeds:.1f})")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_covering_recovery():
    n = 400
    ln = math.log(n)
    radii = [int(2 * n / ln), int(n / ln), int(n / (2 * ln))]
    ok = True
    detail = []
    for seed in range(20):
        spec = ClusteredSpec(n=n, c_b=20, c_g=22, seed=seed)
        prefs = gen_clustered(spec)
        sizes_b = [boy_side_covering(prefs, r, shuffle_seed=seed).size for r in radii]
        sizes_g = [girl_side_covering(prefs, r, shuffle_seed=seed).size for r in radii]
        mono = sizes_b[0] <= sizes_b[1] <= sizes_b[2] and sizes_g[0] <= sizes_g[1] <= sizes_g[2]
        mid_ok = sizes_b[1] == 20 and 20 <= sizes_g[1] <= 27
        if not (mono and mid_ok):
            ok = False
            detail.append(f"seed {seed}: boys {sizes_b} girls {sizes_g}")
    report(5, "covering recovery", ok,
           detail[0] if detail else f"radius {radii[1]}: boy side 20, girl side in [20,27], monotone over {radii}")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_smile_cluster_soundness():
    n, C, T, seeds = 400, 10, 30000, 50
    S = math.ceil(math.log(n))
    exact = 0
    bound_ok = True
    s_prime = None
    for seed in range(seeds):
        spec = ClusteredSpec(n=n, c_b=C, c_g=C, flip=0.0, seed=1000 + seed)
        prefs = gen_clustered(spec)
        mg = build_matching_graph(prefs)
        policy = make_policy("smile", S=S)
        r = run_protocol(prefs, policy, T, seed=seed, curve_stride=T)
        dominated(mg, r)
        s_prime = policy.S_prime
        reps_g, reps_b = policy.girls.clusters.reps, policy.boys.clusters.reps
        if len(reps_g) == C and len(reps_b) == C:
            exact += 1
        if len(reps_g) > cluster_bound(prefs, "girl", s_prime) or len(
            reps_b
        ) > cluster_bound(prefs, "boy", s_prime):
            bound_ok = False
    ok = exact >= 0.95 * seeds and bound_ok
    report(6, "smile cluster soundness", ok,
           f"exactly {C} reps per side in {exact}/{seeds} seeds; bound check {'ok' if bound_ok else 'violated'}")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_smile_match_yield():
    n, C = 400, 10
    S = math.ceil(math.log(n))
    from matchlab.policies.smile import s_prime_for

    s_prime = s_prime_for(S, n)
    T = 20 * n * (C + C + s_prime)
    seeds = 30
    hits = 0
    fractions = []
    for seed in range(seeds):
        spec = ClusteredSpec(n=n, c_b=C, c_g=C, flip=0.01, seed=2000 + seed)
        prefs = gen_clustered(spec)
        mg = build_matching_graph(prefs)
        policy = make_policy("smile", S=S)
        r = run_protocol(prefs, policy, T, seed=seed, curve_stride=T)
        dominated(mg, r)
        frac = r.ledger.matches / mg.match_count
        fractions.append(frac)
        if frac >= 0.20:
            hits += 1
    report(7, "smile match yield", hits >= 0.9 * seeds,
           f"T={T}; >=20% of M in {hits}/{seeds} seeds "
           f"(min {min(fractions):.2f}, median {sorted(fractions)[seeds // 2]:.2f})")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_auc_ordering():
    n = 400
    T = 2 * n * n
    seeds = 20
    spec_fields = dict(n=n, c_b=20, c_g=22)
    aucs = {"ismile": [], "oomm": [], "uromm": []}
    for seed in range(seeds):
        spec = ClusteredSpec(seed=3000 + seed, **spec_fields)
        prefs = gen_clustered(spec)
        mg = build_matching_graph(prefs)
        for name in aucs:
            r = run_protocol(prefs, make_policy(name), T, seed=seed, curve_stride=T)
            dominated(mg, r)
            aucs[name].append(r.ledger.auc_sum / T)
    mean = {k: sum(v) / len(v) for k, v in aucs.items()}
    gap1 = mean["ismile"] / mean["oomm"] - 1
    gap2 = mean["oomm"] / mean["uromm"] - 1
    ok = gap1 >= 0.05 and gap2 >= 0.05
    report(8, "auc ordering", ok,
           f"ismile {mean['ismile']:.0f} > oomm {mean['oomm']:.0f} > uromm {mean['uromm']:.0f} "
           f"(gaps {gap1:.1%}, {gap2:.1%})")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_sampled_agreement_monte_carlo():
    r = 512
    beta = 3.0
    k = math.ceil(beta * math.log(r))
    trials = 10_000
    gen = philox(9, 19)
    violations = 0
    for _ in range(trials):
        m = gen.integers(0, 2, size=(r, r), dtype=np.uint8).astype(bool)
        t = sampled_agreement_trial(m, target=int(gen.integers(0, r)), beta=beta, k=k, rng=gen)
        if t.violations():
            violations += 1
    freq = violations / trials
    bound = r ** (1 - beta) + 3 * math.sqrt(r ** (1 - beta) / trials)
    report(9, "sampled-agreement bound monte carlo", freq <= bound,
           f"violation frequency {freq:.2e} <= {bound:.2e} (k={k})")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_yardstick_dominance():
    # the hard per-run assertions already fired inside dominated(); add a
    # fresh batch over all four policies so the check also stands alone
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, seed=4000)
    prefs = gen_clustered(spec)
    mg = build_matching_graph(prefs)
    adv = gen_adversarial_random(100, 800, seed=4001)
    adv_mg = build_matching_graph(adv)
    for name in ("uromm", "oomm", "smile", "ismile"):
        for seed in range(3):
            dominated(mg, run_protocol(prefs, make_policy(name), 5000, seed, curve_stride=5000))
            dominated(adv_mg, run_protocol(adv, make_policy(name), 5000, seed, curve_stride=5000))
    ok = all(m <= ms for _, _, m, ms in DOMINANCE_LOG)
    policies = {p for p, *_ in DOMINANCE_LOG}
    ok = ok and policies >= {"uromm", "oomm", "smile", "ismile"}
    report(10, "yardstick dominance", ok,
           f"{len(DOMINANCE_LOG)} runs checked across {sorted(policies)}, zero violations")


# -------------------------------------------------------------- criterion 11


def test_criterion_11_run_determinism(tmp_path):
    inst = tmp_path / "i.txt"
    assert cli_main(["gen", "clustered", "--n", "50", "--c-b", "5", "--c-g", "5",
                     "--seed", "7", "--out", str(inst)]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text(
        f"instance={inst}\npolicies=uromm,oomm,ismile\nT=600\nseeds=3\n"
        f"out={tmp_path / 'out1'}\nismile.S=10\n"
    )
    assert cli_main(["run", str(cfg)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out2")]) == 0
    names = ["curves.csv", "auc.csv", "yardstick.csv", "stats.csv"]
    same = all(
        (tmp_path / "out1" / f).read_bytes() == (tmp_path / "out2" / f).read_bytes()
        for f in names
    )
    report(11, "run determinism", same, f"byte-identical outputs for {names}")
