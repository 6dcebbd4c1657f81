import numpy as np

from matchlab import FeedbackLedger, gen_adversarial_random, make_policy, run_protocol
from matchlab.policies.random_baselines import IndexedSet, OommPolicy, UrommPolicy
from matchlab.rng import SubstreamRng

from oracles import ScriptedRng, reveal


def test_indexed_set_basics():
    s = IndexedSet()
    for x in (4, 7, 4, 9):
        s.add(x)
    assert len(s) == 3 and 7 in s
    s.discard(7)
    s.discard(123)  # absent: no-op
    assert len(s) == 2 and 7 not in s
    assert sorted(s.items) == [4, 9]


def test_uromm_n1_always_zero():
    p = UrommPolicy()
    p.start(1, 10, SubstreamRng(0, 1), FeedbackLedger(1))
    assert all(p.select_for_boy(0, t) == 0 for t in range(5))


def test_uromm_frequencies_within_5_sigma():
    p = UrommPolicy()
    p.start(100, 10, SubstreamRng(42, 1), FeedbackLedger(100))
    draws = np.array([p.select_for_boy(0, 1) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=100)
    exp = 1000.0
    sd = (100_000 * 0.01 * 0.99) ** 0.5
    assert np.all(np.abs(counts - exp) < 5 * sd)


def test_uromm_ignores_feedback():
    # identical selection sequences on two instances sharing n and seed
    a = run_protocol(gen_adversarial_random(20, 50, 0), make_policy("uromm"), 100, seed=5)
    b = run_protocol(gen_adversarial_random(20, 150, 1), make_policy("uromm"), 100, seed=5)
    assert np.array_equal(a.trace.girls_selected, b.trace.girls_selected)
    assert np.array_equal(a.trace.boys_selected, b.trace.boys_selected)


def test_oomm_sign_oblivious():
    a = run_protocol(gen_adversarial_random(20, 50, 0), make_policy("oomm"), 200, seed=7)
    b = run_protocol(gen_adversarial_random(20, 150, 1), make_policy("oomm"), 200, seed=7)
    assert np.array_equal(a.trace.girls_selected, b.trace.girls_selected)
    assert np.array_equal(a.trace.boys_selected, b.trace.boys_selected)


def test_oomm_first_round_uniform():
    p = OommPolicy()
    p.start(10, 5, ScriptedRng([3, 6]), FeedbackLedger(10))
    assert p.select_for_boy(2, 1) == 3     # uniform over girls
    assert p.select_for_girl(4, 1) == 6    # pending empty -> uniform over boys
    assert p.rng.calls == [10, 10]


def test_oomm_serves_pending_singleton():
    p = OommPolicy()
    ledger = FeedbackLedger(4)
    p.start(4, 10, ScriptedRng([]), ledger)
    reveal(p, ledger, True, 2, 3, -1, 1)    # boy 2 rated girl 3 (sign irrelevant)
    assert p.select_for_girl(3, 2) == 2     # pending(3) = {2}
    reveal(p, ledger, False, 3, 2, 1, 2)    # reciprocated: pending empties
    assert len(p.pending[3]) == 0


def test_oomm_pending_not_refilled_after_reciprocation():
    p = OommPolicy()
    ledger = FeedbackLedger(4)
    p.start(4, 10, ScriptedRng([1, 1, 1, 1]), ledger)
    reveal(p, ledger, True, 0, 1, 1, 1)
    reveal(p, ledger, False, 1, 0, -1, 1)
    # (1, 0) now observed; boy 0 rating girl 1 again must not re-enter pending
    reveal(p, ledger, True, 0, 1, 1, 2)
    assert len(p.pending[1]) == 0


def test_oomm_reciprocal_rate():
    # E|E^r_T| = Theta(T): measured mean >= 0.01 (T - n) over seeds
    n, T = 50, 500
    prefs = gen_adversarial_random(n, 200, 3)
    total = 0
    seeds = range(200)
    for s in seeds:
        r = run_protocol(prefs, make_policy("oomm"), T, seed=s)
        total += r.ledger.reciprocal_pairs
    mean_pairs = total / len(list(seeds))
    assert mean_pairs >= 0.01 * (T - n)


def test_oomm_invariant_pending_matches_ledger():
    prefs = gen_adversarial_random(12, 30, 2)
    policy = make_policy("oomm")
    r = run_protocol(prefs, policy, 120, seed=9)
    for g in range(12):
        for b in range(12):
            expected = bool((r.ledger.obs_bg[b] >> g) & 1) and not bool(
                (r.ledger.obs_gb[g] >> b) & 1
            )
            assert (b in policy.pending[g]) == expected
