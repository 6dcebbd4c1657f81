import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import (
    POLICIES,
    ClusteredSpec,
    InputError,
    PreferenceMatrices,
    ProtocolError,
    arrival_counts,
    build_matching_graph,
    gen_clustered,
    make_policy,
    optimal_matches,
    run_protocol,
)
from matchlab.policies.base import MatchmakerPolicy

from oracles import SignCountingPrefs, matched_pairs, per_round_accounting, replay_ledger


def all_like(n):
    full = (1 << n) - 1
    return PreferenceMatrices(n, (full,) * n, (full,) * n)


def all_dislike(n):
    return PreferenceMatrices(n, (0,) * n, (0,) * n)


def test_all_like_tiny_run():
    prefs = all_like(2)
    r = run_protocol(prefs, make_policy("uromm"), 4, seed=1)
    assert r.ledger.matches <= 4
    # a match can only appear once some pair has both directions observed
    _, _, pairs, uncovered, _ = replay_ledger(r.trace)
    assert len(uncovered) == r.ledger.matches
    assert pairs >= r.ledger.matches


def test_all_dislike_curve_is_zero():
    prefs = all_dislike(3)
    for policy in ("uromm", "oomm"):
        r = run_protocol(prefs, make_policy(policy), 20, seed=3)
        assert np.all(r.ledger.curve == 0)
        assert r.ledger.matches == 0


def assert_ledger_is_replay(r, prefs):
    """The ledger holds exactly what the trace revealed: a policy that wrote
    to it would add bits or counts the replay does not have."""
    obs_bg, obs_gb, pairs, uncovered, curve = replay_ledger(r.trace)
    assert set(uncovered) == matched_pairs(r.ledger)
    assert sorted(uncovered.values()) == r.ledger.events.tolist()
    assert pairs == r.ledger.reciprocal_pairs
    assert curve == r.ledger.curve.tolist()
    n = prefs.n
    for b in range(n):
        for g in range(n):
            assert ((r.ledger.obs_bg[b] >> g) & 1) == ((b, g) in obs_bg)
            assert ((r.ledger.obs_gb[g] >> b) & 1) == ((g, b) in obs_gb)
            assert ((r.ledger.pos_bg[b] >> g) & 1) == ((b, g) in obs_bg and prefs.sign_bg(b, g) > 0)
            assert ((r.ledger.pos_gb[g] >> b) & 1) == ((g, b) in obs_gb and prefs.sign_gb(g, b) > 0)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_replay_oracle(name):
    prefs = PreferenceMatrices(3, (0b011, 0b101, 0b110), (0b110, 0b011, 0b101))
    r = run_protocol(prefs, make_policy(name), 9, seed=5)
    assert_ledger_is_replay(r, prefs)


@pytest.mark.parametrize("name", ["smile", "ismile"])
def test_policies_read_the_engine_ledger(demo_prefs, name):
    policy = make_policy(name)
    r = run_protocol(demo_prefs, policy, 30, seed=2)
    assert policy.boys.obs is r.ledger.obs_bg and policy.boys.pos is r.ledger.pos_bg
    assert policy.girls.obs is r.ledger.obs_gb and policy.girls.pos is r.ledger.pos_gb


@st.composite
def tiny_instances(draw):
    n = draw(st.integers(1, 6))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return PreferenceMatrices(n, tuple(draw(rows)), tuple(draw(rows)))


@settings(deadline=None)
@given(prefs=tiny_instances(), T=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_engine_invariants_on_tiny_instances(prefs, T, seed):
    mg = build_matching_graph(prefs)
    for name in sorted(POLICIES):
        r = run_protocol(prefs, make_policy(name), T, seed)
        assert_ledger_is_replay(r, prefs)
        assert r.ledger.matches <= optimal_matches(mg, arrival_counts(r.trace))
        assert np.all(np.diff(r.ledger.curve) >= 0)


def test_curve_monotone_and_final(demo_prefs):
    r = run_protocol(demo_prefs, make_policy("uromm"), 60, seed=11)
    curve = r.ledger.curve
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == len(matched_pairs(r.ledger))
    mg = build_matching_graph(demo_prefs)
    assert curve[-1] <= mg.match_count


def test_match_credited_when_second_direction_observed(demo_prefs):
    r = run_protocol(demo_prefs, make_policy("oomm"), 40, seed=2)
    *_, uncovered, _ = replay_ledger(r.trace)
    curve = r.ledger.curve
    for (b, g), t in uncovered.items():
        assert curve[t - 1] > (curve[t - 2] if t > 1 else 0) - 1  # appears by round t
        assert ((r.ledger.pos_bg[b] >> g) & 1) and ((r.ledger.pos_gb[g] >> b) & 1)


def test_auc_matches_curve_sum(demo_prefs):
    r = run_protocol(demo_prefs, make_policy("uromm"), 30, seed=4)
    assert r.ledger.auc_sum / r.T == r.ledger.curve.sum() / 30


@pytest.mark.parametrize("stride", [1, 7, "T"])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_events_give_the_per_round_accounting(name, stride):
    # the curve and AUC sum derived from the events equal a per-round count;
    # T = 2 n^2 takes smile into its matching phase
    n = 20
    prefs = gen_clustered(ClusteredSpec(n=n, c_b=3, c_g=3, seed=4))
    T = 2 * n * n
    stride = T if stride == "T" else stride
    r = run_protocol(prefs, make_policy(name), T, seed=2, curve_stride=stride)
    events, curve, auc_sum = per_round_accounting(r.trace, stride)
    assert r.ledger.events.tolist() == events
    assert r.ledger.curve.tolist() == curve
    assert r.ledger.auc_sum == auc_sum
    assert len(events) > 10


def test_determinism_bit_identical(demo_prefs):
    a = run_protocol(demo_prefs, make_policy("oomm"), 50, seed=9)
    b = run_protocol(demo_prefs, make_policy("oomm"), 50, seed=9)
    for field in ("boy_arrivals", "girls_selected", "signs_bg", "girl_arrivals", "boys_selected", "signs_gb"):
        assert np.array_equal(getattr(a.trace, field), getattr(b.trace, field))
    assert np.array_equal(a.ledger.curve, b.ledger.curve)
    assert a.ledger.events == b.ledger.events
    c = run_protocol(demo_prefs, make_policy("oomm"), 50, seed=10)
    assert not np.array_equal(a.trace.girls_selected, c.trace.girls_selected)


def test_trace_columns_keep_their_dtypes_and_length(demo_prefs):
    T = 57
    r = run_protocol(demo_prefs, make_policy("oomm"), T, seed=3)
    for field in ("boy_arrivals", "girls_selected", "girl_arrivals", "boys_selected"):
        assert getattr(r.trace, field).dtype == np.int32 and getattr(r.trace, field).shape == (T,)
    for field in ("signs_bg", "signs_gb"):
        assert getattr(r.trace, field).dtype == np.int8 and getattr(r.trace, field).shape == (T,)
    assert r.ledger.curve.dtype == np.int64 and r.ledger.curve.shape == (T,)


def test_arrivals_shared_across_policies(demo_prefs):
    a = run_protocol(demo_prefs, make_policy("uromm"), 40, seed=6)
    b = run_protocol(demo_prefs, make_policy("smile", S=2), 40, seed=6)
    assert np.array_equal(a.trace.boy_arrivals, b.trace.boy_arrivals)
    assert np.array_equal(a.trace.girl_arrivals, b.trace.girl_arrivals)


def test_sign_hygiene_exactly_two_lookups_per_round(demo_prefs):
    spy = SignCountingPrefs(demo_prefs)
    T = 25
    run_protocol(spy, make_policy("oomm"), T, seed=1)
    assert spy.sign_calls == 2 * T


class _OutOfRange(MatchmakerPolicy):
    name = "bad"

    def select_for_boy(self, b, t):
        return self.n  # off by one

    def select_for_girl(self, g, t):
        return 0


def test_out_of_range_selection_aborts(demo_prefs):
    with pytest.raises(ProtocolError):
        run_protocol(demo_prefs, _OutOfRange(), 5, seed=0)


class _AlwaysZero(MatchmakerPolicy):
    name = "const"

    def select_for_boy(self, b, t):
        return 0

    def select_for_girl(self, g, t):
        return 0


def test_repeat_selections_are_noops():
    prefs = all_like(3)
    r = run_protocol(prefs, _AlwaysZero(), 30, seed=0)
    # only edges toward index 0 exist, each observed once
    assert all(row in (0, 1) for row in r.ledger.obs_bg + r.ledger.obs_gb)
    assert r.ledger.matches <= 2  # (0,0) and the (b=0,g=0) pair counts once
    curve = r.ledger.curve
    assert np.all(np.diff(curve) >= 0)


def test_curve_stride_keeps_auc_exact(demo_prefs):
    full = run_protocol(demo_prefs, make_policy("uromm"), 50, seed=8)
    dec = run_protocol(demo_prefs, make_policy("uromm"), 50, seed=8, curve_stride=7)
    assert full.ledger.auc_sum / full.T == dec.ledger.auc_sum / dec.T
    assert dec.ledger.curve[-1] == full.ledger.curve[-1]
    assert len(dec.ledger.curve) < len(full.ledger.curve)


def test_T_validation(demo_prefs):
    with pytest.raises(InputError):
        run_protocol(demo_prefs, make_policy("uromm"), 0, seed=1)
    with pytest.raises(InputError):
        run_protocol(demo_prefs, make_policy("uromm"), 5, seed=1, curve_stride=0)
