"""smile and ismile against their selects before the fast paths.

``oracles.IsmileScanAll`` rescans every liked cluster and walks the whole
priority chain on every arrival; ``oracles.SmileAlwaysWalk`` runs the phase
II walk and ``_observe`` on every half-round; ``oracles.SmileStoredGrid``
walks a stored grid of cell lists instead of ANDing two bitsets per cell.
The production policies must make the same selections and report the same
diagnostics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import ClusteredSpec, FeedbackLedger, PreferenceMatrices, gen_clustered, run_protocol
from matchlab.policies.ismile import IsmilePolicy
from matchlab.policies.smile import SmilePolicy
from matchlab.rng import SubstreamRng

from oracles import IsmileScanAll, SmileAlwaysWalk, SmileStoredGrid, replay_ledger

PAIRS = {"smile": (SmilePolicy, SmileAlwaysWalk), "ismile": (IsmilePolicy, IsmileScanAll)}
COLUMNS = ("boy_arrivals", "girls_selected", "signs_bg", "girl_arrivals", "boys_selected", "signs_gb")


def assert_same_run(prefs, fast, slow, T, seed):
    a = run_protocol(prefs, fast, T, seed)
    b = run_protocol(prefs, slow, T, seed)
    for col in COLUMNS:
        assert np.array_equal(getattr(a.trace, col), getattr(b.trace, col)), col
    assert replay_ledger(a.trace) == replay_ledger(b.trace)
    assert a.ledger.events == b.ledger.events
    assert a.ledger.auc_sum == b.ledger.auc_sum
    assert fast.diagnostics() == slow.diagnostics()


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        c = draw(st.integers(1, n))
        spec = ClusteredSpec(n=n, c_b=c, c_g=draw(st.integers(1, n)),
                             p_like=draw(st.sampled_from([0.2, 0.5, 0.9])), seed=seed)
        return gen_clustered(spec)
    rng = np.random.default_rng(seed)
    p = draw(st.sampled_from([0.3, 0.7, 1.0]))
    return PreferenceMatrices.from_bool_arrays(rng.random((n, n)) < p, rng.random((n, n)) < p)


@st.composite
def smile_cases(draw):
    """An instance and smile's forced S (None runs phase 0).

    At n <= 12 every S' exceeds ceil(n/2), so phase I promotes every user
    and C = n: a cell holds at most one user.  At 47 <= n <= 54 the least
    S, ceil(ln n), gives S' <= ceil(n/2), so phase I finds noiseless
    clusters and a cell can hold several users.
    """
    if draw(st.booleans()):
        return draw(small_instances()), draw(st.none() | st.integers(1, 16))
    n = draw(st.integers(47, 54))
    spec = ClusteredSpec(n=n, c_b=draw(st.integers(1, 6)), c_g=draw(st.integers(1, 6)),
                         p_like=draw(st.sampled_from([0.2, 0.5, 0.9])), flip=0.0,
                         seed=draw(st.integers(0, 2**16)))
    return gen_clustered(spec), draw(st.just(1) | st.none())  # S = 1 clamps to ceil(ln n)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(PAIRS)),
    data=st.data(),
    tolerance=st.none() | st.sampled_from([0.0, 0.25]),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_paths_match_full_scans(name, data, tolerance, frac, seed):
    # smile draws ``smile_cases``, so its cells can hold several users
    if name == "smile":
        prefs, S = data.draw(smile_cases())
    else:
        prefs, S = data.draw(small_instances()), data.draw(st.none() | st.integers(1, 12))
    n = prefs.n
    T = max(1, round(frac * 3 * n * n))
    kwargs = {"S": S}
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    fast_cls, slow_cls = PAIRS[name]
    assert_same_run(prefs, fast_cls(**kwargs), slow_cls(**kwargs), T, seed)


@settings(max_examples=100, deadline=None)
@given(
    case=smile_cases(),
    tolerance=st.none() | st.sampled_from([0.0, 0.25]),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_smile_cells_from_bitsets_match_stored_grid(case, tolerance, frac, seed):
    prefs, S = case
    n = prefs.n
    T = max(1, round(frac * 3 * n * n))
    kwargs = {"S": S}
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    assert_same_run(prefs, SmilePolicy(**kwargs), SmileStoredGrid(**kwargs), T, seed)


class RevivalCountingIsmile(IsmilePolicy):
    """Counts exhausted clusters put back into ``live`` by a new member."""

    revived = 0

    def _on_cluster_event(self, me, target, event):
        kind, _, cid = event
        if kind == "classified":
            self.revived += len(me.waiting.get(cid, ()))
        super()._on_cluster_event(me, target, event)


def test_ismile_revives_exhausted_clusters_like_a_full_rescan():
    n = 60
    prefs = gen_clustered(ClusteredSpec(n=n, c_b=6, c_g=6, flip=0.05, seed=1))
    fast = RevivalCountingIsmile()
    assert_same_run(prefs, fast, IsmileScanAll(), 2 * n * n, seed=0)
    assert fast.revived > 0


def counting_walks(cls):
    class Counting(cls):
        walks = 0

        def _walk(self, me, other, x):
            self.walks += 1
            return super()._walk(me, other, x)

    return Counting


@pytest.mark.parametrize("S", [None, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smile_skips_only_exhausted_walks(S, seed):
    n = 60
    prefs = gen_clustered(ClusteredSpec(n=n, c_b=4, c_g=4, flip=0.01, seed=seed))
    fast, slow = counting_walks(SmilePolicy)(S=S), counting_walks(SmileAlwaysWalk)(S=S)
    assert_same_run(prefs, fast, slow, 2 * n * n, seed)
    assert fast.diagnostics()["phase"] == "user_matching"
    assert 0 < fast.walks < slow.walks


def _fabricated(policy_cls, n, cursor_done):
    """Boy 5 has queried every girl and still has girl cluster 0 = [4, 7]
    queued as unknown; he liked girl 4 only."""
    ledger = FeedbackLedger(n)
    policy = policy_cls()
    policy.start(n, 100, SubstreamRng(0, 1), ledger)
    girls = policy.girls.clusters
    girls.members.append([4, 7])
    girls.reps.append(4)
    girls.cid_of[4] = girls.cid_of[7] = 0
    if cursor_done:
        girls.cursor = n
    policy.boys.toask[5][0] = None
    ledger.obs_bg[5] = (1 << n) - 1
    ledger.pos_bg[5] = 1 << 4
    return policy


def test_ismile_full_row_with_unknown_cluster_queued():
    n = 30
    for cursor_done in (False, True):
        fast = _fabricated(IsmilePolicy, n, cursor_done)
        slow = _fabricated(IsmileScanAll, n, cursor_done)
        want = 0 if cursor_done else fast.girls.clusters.order[0]
        assert fast.select_for_boy(5, 1) == slow.select_for_boy(5, 1) == want
        # the full scan drains the queue into a liked cluster; the fast path
        # leaves boy 5's state alone, which no later selection of his reads
        assert slow.boys.toask[5] == {} and slow.boys.exploit[5] == [0]
        assert fast.boys.toask[5] == {0: None} and fast.boys.exploit[5] == []
        assert fast.select_for_boy(5, 2) == slow.select_for_boy(5, 2) == want
