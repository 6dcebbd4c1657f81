import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import (
    ArrivalCounts,
    InputError,
    build_matching_graph,
    delta_overload,
    gen_random_bipartite,
    make_policy,
    optimal_matches,
    run_protocol,
    tiny_demo_instance,
)
from matchlab import omniscient
from matchlab.core import MatchingGraph
from matchlab.omniscient import _greedy_flow, arrival_counts, build_flow_network, max_flow
from matchlab.rng import philox

from oracles import brute_force_bmatching


def counts_all(n, k):
    return ArrivalCounts((k,) * n, (k,) * n)


def random_graph(n, p, seed):
    """A random matching graph and its edge list."""
    g = philox(seed, 55)
    adj = g.random((n, n)) < p
    rows = tuple(sum(1 << j for j in range(n) if adj[i, j]) for i in range(n))
    edges = [tuple(e) for e in np.argwhere(adj).tolist()]
    return MatchingGraph(n, rows, sum(r.bit_count() for r in rows)), edges


def test_demo_instance_full_capacity():
    mg = build_matching_graph(tiny_demo_instance())
    assert optimal_matches(mg, counts_all(4, 4)) == 4


def test_zero_counts_zero_flow():
    mg = build_matching_graph(tiny_demo_instance())
    assert optimal_matches(mg, counts_all(4, 0)) == 0


def test_arrival_counts_recount(monkeypatch):
    prefs = tiny_demo_instance()
    r = run_protocol(prefs, make_policy("uromm"), 100, seed=3)
    boys = [0, 0, 0, 0]
    girls = [0, 0, 0, 0]
    for b, g in zip(r.trace.boy_arrivals.tolist(), r.trace.girl_arrivals.tolist()):
        boys[b] += 1
        girls[g] += 1
    # one count block, and blocks that split the trace unevenly
    for block in (omniscient.COUNT_BLOCK, 7, 1):
        monkeypatch.setattr(omniscient, "COUNT_BLOCK", block)
        counts = arrival_counts(r.trace)
        assert list(counts.boy_counts) == boys
        assert list(counts.girl_counts) == girls
        assert counts.T == 100


def test_counts_validation():
    with pytest.raises(InputError):
        ArrivalCounts((1, 2), (3, 1))  # totals differ
    with pytest.raises(InputError):
        ArrivalCounts((-1, 4), (2, 1))


def test_flow_equals_brute_force_small():
    gen = philox(123, 77)
    for _ in range(300):
        n = int(gen.integers(2, 6))
        mg, edges = random_graph(n, 0.4, int(gen.integers(0, 1 << 30)))
        tb = gen.integers(0, n + 2, size=n).tolist()
        tg = gen.integers(0, n + 2, size=n).tolist()
        total = sum(tb)
        # rebalance girl counts so both sides sum to T (ArrivalCounts invariant)
        while sum(tg) != total:
            i = int(gen.integers(0, n))
            if sum(tg) < total:
                tg[i] += 1
            elif tg[i] > 0:
                tg[i] -= 1
        counts = ArrivalCounts(tuple(tb), tuple(tg))
        flow = optimal_matches(mg, counts)
        assert flow == brute_force_bmatching(edges, tb, tg)


def _tally(users):
    """Arrival counts up to the largest user who arrived, as ``arrival_counts`` gives them."""
    return tuple(users.count(u) for u in range(max(users, default=-1) + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n),
)))
def test_warm_started_flow_equals_brute_force(case):
    # the greedy start and Dinic together give the maximum; zero counts,
    # users who never arrive and an empty trace all occur
    n, adj, rounds = case
    tb, tg = _tally([b for b, _ in rounds]), _tally([g for _, g in rounds])
    rows = tuple(sum(1 << j for j in range(n) if adj[i][j]) for i in range(n))
    mg = MatchingGraph(n, rows, sum(r.bit_count() for r in rows))
    edges = [(i, j) for i in range(n) for j in range(n) if adj[i][j]]
    best = brute_force_bmatching(edges, tb + (0,) * (n - len(tb)), tg + (0,) * (n - len(tg)))
    net = build_flow_network(mg, ArrivalCounts(tb, tg))
    assert _greedy_flow(build_flow_network(mg, ArrivalCounts(tb, tg))) <= best
    assert max_flow(net) == best
    assert sum(net.arc_flow(e) for e in net.unit_arcs) == best


def test_monotone_in_capacity():
    mg = build_matching_graph(tiny_demo_instance())
    base = optimal_matches(mg, ArrivalCounts((1, 1, 0, 0), (1, 1, 0, 0)))
    more = optimal_matches(mg, ArrivalCounts((2, 1, 0, 1), (2, 1, 0, 1)))
    assert more >= base


def test_counts_sized_by_the_graph():
    # users who never arrived past the largest arriving index count zero;
    # a count for an index outside the graph is refused
    mg = build_matching_graph(tiny_demo_instance())
    short = ArrivalCounts((2, 1), (1, 2))
    assert optimal_matches(mg, short) == optimal_matches(mg, ArrivalCounts((2, 1, 0, 0), (1, 2, 0, 0)))
    with pytest.raises(InputError):
        build_flow_network(mg, ArrivalCounts((0, 0, 0, 0, 1), (1, 0, 0, 0, 0)))


def test_saturation_at_degree_capacity():
    for seed in (0, 1, 2):
        mg, _ = gen_random_bipartite(12, 0.3, seed)
        assert optimal_matches(mg, counts_all(12, 12)) == mg.match_count


def test_integrality_of_unit_arcs():
    mg, _ = gen_random_bipartite(10, 0.3, 5)
    counts = counts_all(10, 3)
    net = build_flow_network(mg, counts)
    value = max_flow(net)
    unit_flows = [net.arc_flow(e) for e in net.unit_arcs]
    assert all(f in (0, 1) for f in unit_flows)
    assert sum(unit_flows) == value


def test_dominance_over_policies():
    prefs = tiny_demo_instance()
    mg = build_matching_graph(prefs)
    for policy in ("uromm", "oomm", "smile", "ismile"):
        for seed in (0, 1):
            r = run_protocol(prefs, make_policy(policy), 30, seed)
            assert r.ledger.matches <= optimal_matches(mg, arrival_counts(r.trace))


def test_estimate_trivial_regimes():
    # T/n at the max degree: no overload, so the scale M / (1 + Delta) is M,
    # which the flow reaches when every user arrives T/n times
    mg = build_matching_graph(tiny_demo_instance())
    assert delta_overload(mg, 12) == 0
    assert optimal_matches(mg, counts_all(4, 3)) == mg.match_count == 4
    empty, _ = gen_random_bipartite(5, 0.0, 0)
    assert optimal_matches(empty, counts_all(5, 3)) == 0


def test_estimate_order_of_magnitude_monte_carlo():
    # the asymptotic form is only a scale indicator; in a mildly overloaded
    # regime the Monte-Carlo mean of the true optimum stays within 8x of it
    n, p, T = 50, 0.1, 500
    mg, _ = gen_random_bipartite(n, p, seed=42)
    est = mg.match_count / (1 + delta_overload(mg, T))
    vals = []
    for s in range(200):
        gen = philox(s, 91)
        tb = np.bincount(gen.integers(0, n, T), minlength=n).tolist()
        tg = np.bincount(gen.integers(0, n, T), minlength=n).tolist()
        vals.append(optimal_matches(mg, ArrivalCounts(tuple(tb), tuple(tg))))
    mc = sum(vals) / len(vals)
    assert est / 8 <= mc <= est * 8
