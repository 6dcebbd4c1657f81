"""The yardstick: trace-optimal match count via max flow.

Given full knowledge of the signs and of who logged in when, the best any
selection strategy can do over a T-round trace is a max flow: source ->
each boy with capacity t(b) (his arrival count), unit arcs along matching
edges, each girl -> sink with capacity t(g).  The flow value is M*_T, the
hard upper bound every policy run is checked against.

The solver is a shortest-augmenting-path max flow (BFS level graph with
blocking flows); integral capacities keep every unit arc at flow 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MatchingGraph
from .errors import InputError
from .protocol import RoundTrace


COUNT_BLOCK = 1 << 20


@dataclass(frozen=True)
class ArrivalCounts:
    boy_counts: tuple[int, ...]
    girl_counts: tuple[int, ...]

    def __post_init__(self):
        if sum(self.boy_counts) != sum(self.girl_counts):
            raise InputError("boy and girl arrival totals must both equal T")
        if min(self.boy_counts, default=0) < 0 or min(self.girl_counts, default=0) < 0:
            raise InputError("arrival counts must be nonnegative")

    @property
    def T(self) -> int:
        return sum(self.boy_counts)


def arrival_counts(trace: RoundTrace) -> ArrivalCounts:
    """Per-user arrival tallies from steps (1_B)/(1_G) of a trace.

    The tallies run up to the largest index that arrived; the flow network
    pads them to the instance's n.  ``np.bincount`` widens its input to
    int64, so it counts ``COUNT_BLOCK`` rounds at a time: a whole int32
    column would take a transient copy of 8 bytes a round.
    """
    n = int(max(trace.boy_arrivals.max(), trace.girl_arrivals.max())) + 1 if len(trace) else 0

    def tally(col):
        out = np.zeros(n, dtype=np.int64)
        for s in range(0, len(col), COUNT_BLOCK):
            out += np.bincount(col[s : s + COUNT_BLOCK], minlength=n)
        return tuple(out.tolist())

    return ArrivalCounts(tally(trace.boy_arrivals), tally(trace.girl_arrivals))


@dataclass
class FlowNetwork:
    """Residual network: source 2n, sink 2n+1, boys 0..n-1, girls n..2n-1."""

    n: int
    to: list[int] = field(default_factory=list)
    cap: list[int] = field(default_factory=list)
    head: list[list[int]] = field(default_factory=list)
    unit_arcs: list[int] = field(default_factory=list)  # arc ids of matching edges

    @property
    def source(self) -> int:
        return 2 * self.n

    @property
    def sink(self) -> int:
        return 2 * self.n + 1

    def add_arc(self, u: int, v: int, c: int) -> int:
        e = len(self.to)
        self.head[u].append(e)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(e + 1)
        self.to.append(u)
        self.cap.append(0)
        return e

    def arc_flow(self, e: int) -> int:
        # pushed flow accumulates on the reverse arc
        return self.cap[e ^ 1]


def build_flow_network(mg: MatchingGraph, counts: ArrivalCounts) -> FlowNetwork:
    n = mg.n
    boy_counts = _sized(counts.boy_counts, n, "boy")
    girl_counts = _sized(counts.girl_counts, n, "girl")
    net = FlowNetwork(n)
    net.head = [[] for _ in range(2 * n + 2)]
    s, t = net.source, net.sink
    for b in range(n):
        if boy_counts[b] > 0:
            net.add_arc(s, b, boy_counts[b])
    for b, g in mg.edges():
        net.unit_arcs.append(net.add_arc(b, n + g, 1))
    for g in range(n):
        if girl_counts[g] > 0:
            net.add_arc(n + g, t, girl_counts[g])
    return net


def _sized(counts: tuple[int, ...], n: int, side: str) -> tuple[int, ...]:
    """Counts for users 0..n-1: zero for those who never arrived."""
    if any(counts[n:]):
        raise InputError(f"arrival counts name a {side} index >= n = {n}")
    return counts[:n] + (0,) * (n - len(counts))


def max_flow(net: FlowNetwork) -> int:
    """Dinic: BFS level phases, DFS blocking flow.  Mutates the network."""
    to, cap, head = net.to, net.cap, net.head
    s, t = net.source, net.sink
    nn = len(head)
    total = 0
    while True:
        level = [-1] * nn
        level[s] = 0
        q = [s]
        for u in q:
            lu = level[u] + 1
            for e in head[u]:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = lu
                    q.append(v)
        if level[t] < 0:
            return total
        it = [0] * nn
        stack = [s]
        arcs: list[int] = []
        while stack:
            u = stack[-1]
            if u == t:
                aug = min(cap[e] for e in arcs)
                total += aug
                cut = 0
                for i, e in enumerate(arcs):
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                    if cap[e] == 0 and cut == 0:
                        cut = i + 1  # retreat to the tail of the first saturated arc
                del stack[cut:]
                del arcs[cut - 1 :]
                continue
            hl = head[u]
            iu = it[u]
            advanced = False
            while iu < len(hl):
                e = hl[iu]
                v = to[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    stack.append(v)
                    arcs.append(e)
                    advanced = True
                    break
                iu += 1
            it[u] = iu
            if not advanced:
                level[u] = -1
                stack.pop()
                if arcs:
                    arcs.pop()
                    it[stack[-1]] += 1
    return total


def optimal_matches(mg: MatchingGraph, counts: ArrivalCounts) -> int:
    """M*_T: the most matches any strategy could realize on this trace."""
    net = build_flow_network(mg, counts)
    return max_flow(net)
