import math
import tracemalloc

import pytest

from matchlab import (
    ClusteredSpec,
    FeedbackLedger,
    PreferenceMatrices,
    build_matching_graph,
    choose_S,
    gen_adversarial_random,
    gen_clustered,
    make_policy,
    run_protocol,
)
from matchlab.errors import InputError
from matchlab.policies.smile import (
    PHASE_CLUSTER,
    PHASE_MATCH,
    build_matching_index,
    s_prime_for,
)

from oracles import reveal


def run_smile(prefs, T, seed, **params):
    policy = make_policy("smile", **params)
    result = run_protocol(prefs, policy, T, seed)
    return policy, result


# ---------------------------------------------------------------- choose_S


def test_choose_s_arithmetic():
    # n=400, M_hat=40000: raw = ceil(400^2 ln 400 / 40000) = ceil(4 ln 400) = 24
    S, S_prime = choose_S(40000, 400)
    assert S == 24
    assert S_prime == 2 * 24 + 4 * math.ceil(math.sqrt(24 * math.log(400)))


def test_choose_s_clamps():
    n = 400
    lo = math.ceil(math.log(n))
    hi = math.floor(n / math.log(n))
    S, _ = choose_S(n * n * n, n)  # enormous M_hat -> lower clamp
    assert S == lo
    S, _ = choose_S(1, n)  # degenerate floor -> upper clamp
    assert S == hi


def test_choose_s_gamma_scaling():
    S1, _ = choose_S(10_000, 400, gamma=1.0)
    S2, _ = choose_S(10_000, 400, gamma=2.0)
    assert S2 >= S1


# ---------------------------------------------------------------- phase 0


def test_phase0_all_match_instance():
    n = 30
    full = (1 << n) - 1
    prefs = PreferenceMatrices(n, (full,) * n, (full,) * n)
    for seed in (0, 1, 2):
        policy, _ = run_smile(prefs, 2 * n * n, seed)
        m_hat = policy.m_hat
        assert m_hat is not None
        assert n * n / 4 <= m_hat <= 4 * n * n


def test_phase0_all_dislike_degenerate_floor():
    n = 12
    prefs = PreferenceMatrices(n, (0,) * n, (0,) * n)
    policy, _ = run_smile(prefs, 2 * n * n, 0)
    assert policy.m_hat == 1
    assert policy.m_hat_degenerate
    assert policy.phase0_rounds <= n * n


def test_phase0_constant_factor_monte_carlo():
    n, m = 200, 4000
    prefs = gen_adversarial_random(n, m, seed=1)
    hats = []
    for seed in range(100):
        policy = make_policy("smile")
        run_protocol(prefs, policy, 4000, seed)
        if policy.m_hat is not None:
            hats.append(policy.m_hat)
    assert len(hats) >= 95  # phase 0 finishes well before T on this instance
    med = sorted(hats)[len(hats) // 2]
    assert m / 4 <= med <= 4 * m


@pytest.mark.parametrize(
    "name, params",
    [("smile", {"S": 0}), ("smile", {"gamma": -1.0}), ("smile", {"gamma": float("nan")}),
     ("smile", {"tolerance": 1.0}), ("ismile", {"S": -1}), ("ismile", {"tolerance": -0.5})],
)
def test_out_of_range_parameters_rejected(name, params):
    with pytest.raises(InputError, match=f"{name}: {next(iter(params))} must be"):
        make_policy(name, **params)


@pytest.mark.parametrize("name", ["smile", "ismile"])
def test_clamped_forced_s_reported_next_to_used_s(name):
    prefs = gen_adversarial_random(50, 100, 0)  # s_bounds(50) = (4, 12)
    clamped = make_policy(name, S=100)
    run_protocol(prefs, clamped, 10, seed=0)
    d = clamped.diagnostics()
    assert (d["S"], d["S_requested"]) == (12, 100)
    assert list(d).index("S_requested") == list(d).index("S") + 1
    inside = make_policy(name, S=5)
    run_protocol(prefs, inside, 10, seed=0)
    assert inside.diagnostics()["S"] == 5 and "S_requested" not in inside.diagnostics()


def test_forced_s_skips_phase0():
    prefs = gen_adversarial_random(50, 100, 0)
    policy = make_policy("smile", S=5)
    run_protocol(prefs, policy, 10, seed=0)
    assert policy.phase0_rounds == 0
    assert policy.S == 5
    assert policy.phase in (PHASE_CLUSTER, PHASE_MATCH)


# ---------------------------------------------------------------- phase I


def identical_columns_instance(n, seed=0):
    # every girl receives the same feedback column; boy rows all-ones or all-zero
    full = (1 << n) - 1
    rows = tuple(full if b % 2 == 0 else 0 for b in range(n))
    girls = tuple(full if g % 3 == 0 else 0 for g in range(n))
    return PreferenceMatrices(n, rows, girls)


def test_identical_feedback_single_representative():
    n = 100
    prefs = identical_columns_instance(n)
    policy, _ = run_smile(prefs, 9000, seed=3, S=5)
    girls = policy.girls.clusters
    assert len(girls.reps) == 1
    s_prime = policy.S_prime
    rep = girls.reps[0]
    for g in range(n):
        assert g in girls.cid_of
        if g != rep:
            assert girls.f[g].bit_count() == s_prime  # assigned right at the checkpoint
    assert girls.f[rep].bit_count() == (n + 1) // 2


def two_column_instance(n):
    # boys all share one row: like even girls only -> two distinct girl columns
    mask_even = sum(1 << g for g in range(0, n, 2))
    return PreferenceMatrices(n, (mask_even,) * n, (0,) * n)


def test_two_distinct_columns_two_representatives():
    n = 100
    prefs = two_column_instance(n)
    policy, _ = run_smile(prefs, 12000, seed=1, S=5)
    girls = policy.girls.clusters
    assert len(girls.reps) == 2
    # the two representatives disagree on every common rater
    a, b = girls.reps
    assert (a % 2) != (b % 2)
    for g in range(n):
        assert girls.reps[girls.cid_of[g]] % 2 == g % 2  # assigned to the matching parity


def test_clustered_representative_recovery():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=7)
    prefs = gen_clustered(spec)
    hits = 0
    for seed in range(10):
        policy, _ = run_smile(prefs, 12000, seed=seed, S=math.ceil(math.log(100)))
        if len(policy.girls.clusters.reps) == 5 and len(policy.boys.clusters.reps) == 5:
            hits += 1
    assert hits >= 9


def test_cursor_accounting_after_phase1():
    spec = ClusteredSpec(n=100, c_b=4, c_g=4, flip=0.0, seed=2)
    prefs = gen_clustered(spec)
    policy, _ = run_smile(prefs, 15000, seed=4, S=5)
    girls, boys = policy.girls.clusters, policy.boys.clusters
    assert girls.cursor >= 100 and boys.cursor >= 100
    half = 50
    for rep in girls.reps:
        assert girls.f[rep].bit_count() == half
    for g in range(100):
        if g not in girls.reps:
            assert girls.f[g].bit_count() in (policy.S_prime,)
    # every user ends phase I as a representative or assigned
    assert set(girls.cid_of) == set(range(100))
    assert set(boys.cid_of) == set(range(100))


# ---------------------------------------------------------------- matching index


def quadratic_estimated_matches(policy, n):
    girls, boys = policy.girls.clusters, policy.boys.clusters
    out = set()
    for b in range(n):
        rb = boys.reps[boys.cid_of[b]]
        for g in range(n):
            rg = girls.reps[girls.cid_of[g]]
            if (
                (girls.f[rg] >> b) & 1
                and (girls.pos[rg] >> b) & 1
                and (boys.f[rb] >> g) & 1
                and (boys.pos[rb] >> g) & 1
            ):
                out.add((b, g))
    return out


def cell(side, i, j):
    """Cell (i, j) of a side's half of the grid, ascending: its cluster-i
    users who liked the other side's representative j."""
    m = side.members[i] & side.fans[j]
    return [x for x in range(m.bit_length()) if (m >> x) & 1]


def estimated_partners(side, other, x):
    """All counterparts the cluster grid would ever serve to x (ignores pointers)."""
    i = side.a[x]
    out = []
    for j in range(len(side.fans)):
        if x in cell(side, i, j):
            out.extend(cell(other, j, i))
    return out


def test_index_against_quadratic_oracle():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=11)
    prefs = gen_clustered(spec)
    policy, _ = run_smile(prefs, 40000, seed=5, S=5)
    assert policy.phase == PHASE_MATCH
    oracle = quadratic_estimated_matches(policy, 100)
    mine = set()
    for b in range(100):
        for g in estimated_partners(policy.boys, policy.girls, b):
            mine.add((b, g))
    assert mine == oracle
    # symmetric view agrees
    sym = set()
    for g in range(100):
        for b in estimated_partners(policy.girls, policy.boys, g):
            sym.add((b, g))
    assert sym == oracle
    # generous T: every estimated pair ends up queried in the boy direction
    for b, g in oracle:
        assert (policy.boys.obs[b] >> g) & 1


def test_index_single_mutual_cluster():
    n = 100
    full = (1 << n) - 1
    prefs = PreferenceMatrices(n, (full,) * n, (full,) * n)
    policy, _ = run_smile(prefs, 12000, seed=0, S=5)
    assert policy.phase == PHASE_MATCH
    boys, girls = policy.boys, policy.girls
    assert len(boys.members) == len(girls.members) == 1
    assert sorted(b for b in range(n) if boys.a[b] == 0) == list(range(n))
    # the single cell holds everyone who rated the opposite representative positively
    assert set(cell(boys, 0, 0)) == {
        b for b in range(n) if (girls.clusters.f[girls.rep_order[0]] >> b) & 1
    }


def test_index_no_mutual_likes():
    n = 100
    prefs = PreferenceMatrices(n, (0,) * n, (0,) * n)
    policy, _ = run_smile(prefs, 12000, seed=0, S=5)
    assert policy.phase == PHASE_MATCH
    for side in (policy.boys, policy.girls):
        assert all(not cell(side, i, j) for i in range(len(side.members))
                   for j in range(len(side.fans)))


def test_index_requires_finished_phase1():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=0)
    prefs = gen_clustered(spec)
    policy = make_policy("smile", S=5)
    run_protocol(prefs, policy, 50, seed=0)  # nowhere near finishing
    with pytest.raises(RuntimeError):
        build_matching_index(policy.boys, policy.girls, 100)


def test_build_ops_linear_in_population_and_clusters():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=3)
    prefs = gen_clustered(spec)
    policy, _ = run_smile(prefs, 40000, seed=1, S=5)
    boys, girls = policy.boys, policy.girls
    c_b, c_g = len(boys.members), len(girls.members)
    bound = 6 * 100 * (c_g + c_b)
    assert policy.build_ops <= bound
    stored = sum(len(cell(boys, i, j)) for i in range(c_b) for j in range(c_g))
    stored += sum(len(cell(girls, j, i)) for i in range(c_b) for j in range(c_g))
    assert stored <= 100 * c_g + 100 * c_b
    # cells ascending and consistent with the cluster assignment
    for i in range(c_b):
        for j in range(c_g):
            lb = cell(boys, i, j)
            assert list(lb) == sorted(lb)
            assert all(boys.a[b] == i for b in lb)


def test_index_memory_is_linear_in_users_and_clusters():
    # S = 20 gives S' = 80 > ceil(100/2) = 50, so phase I promotes every user
    # and the grid has C^B x C^G = 100 x 100 cells per side, almost all empty
    n = 100
    prefs = gen_clustered(ClusteredSpec(n=n, c_b=5, c_g=5, seed=3))
    policy, _ = run_smile(prefs, 20000, seed=1, S=20)
    assert policy.phase == PHASE_MATCH and policy.S_prime == 80
    boys, girls = policy.boys, policy.girls
    c = len(boys.clusters.reps)
    assert c == len(girls.clusters.reps) == n

    tracemalloc.start()
    build_matching_index(boys, girls, n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # 256 bytes per user and per cluster on each side cover ``a``,
    # ``rep_order``, ``members``, ``fans``, the rank maps and the sort keys:
    # about 102 KB here.  Any storage per cell fails it: 2 x 10,000 cells
    # at one 8-byte pointer each are 160 KB alone.
    assert peak < 2 * 256 * (n + c)


def test_phase2_work_bound():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=3)
    prefs = gen_clustered(spec)
    T = 40000
    policy, _ = run_smile(prefs, T, seed=1, S=5)
    c_b, c_g = len(policy.boys.members), len(policy.girls.members)
    bound = 4 * (T + 100 * (c_g + c_b) * math.log2(100))
    assert policy.phase2_ops <= bound


def test_pointer_exhaustion_single_partner():
    # one estimated partner: first arrival serves her, later arrivals fall back
    from matchlab.policies.smile import SmilePolicy

    n = 6
    policy = SmilePolicy(S=2)
    ledger = FeedbackLedger(n)
    policy.start(n, 10, _rng(), ledger)
    boys, girls = policy.boys, policy.girls
    for side in (boys, girls):
        side.a = [0] * n
        side.rep_order = [0]
        side.members = [(1 << n) - 1]
    boys.fans = [1 << 2]    # only boy 2 estimated to like the girl cluster
    girls.fans = [1 << 5]   # only girl 5 estimated reciprocal
    assert policy._walk(boys, girls, 2) == 5
    reveal(policy, ledger, True, 2, 5, 1)  # the reveal happens, pointer must not revisit
    assert policy._walk(boys, girls, 2) is None
    # a boy in no list falls through immediately
    assert policy._walk(boys, girls, 1) is None


def _rng():
    from matchlab.rng import SubstreamRng

    return SubstreamRng(0, 1)


# ---------------------------------------------------------------- match yield


def test_smile_uncovers_matches_on_clustered_instance():
    spec = ClusteredSpec(n=100, c_b=5, c_g=5, flip=0.0, seed=13)
    prefs = gen_clustered(spec)
    mg = build_matching_graph(prefs)
    policy, result = run_smile(prefs, 20000, seed=3, S=5)
    assert result.ledger.matches >= 0.2 * mg.match_count


def test_s_prime_formula():
    assert s_prime_for(6, 400) == 2 * 6 + 4 * math.ceil(math.sqrt(6 * math.log(400)))
