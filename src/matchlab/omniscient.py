"""The yardstick: trace-optimal match count via max flow.

Given full knowledge of the signs and of who logged in when, the best any
selection strategy can do over a T-round trace is a max flow: source ->
each boy with capacity t(b) (his arrival count), unit arcs along matching
edges, each girl -> sink with capacity t(g).  The flow value is M*_T, the
hard upper bound every policy run is checked against.

The network is held in CSR form, in ``array`` buffers that numpy views
without a copy (``np.frombuffer``):

- ``to[e]`` is the head of arc e and ``cap[e]`` its residual capacity.
  Arcs come in pairs: e ^ 1 is the reverse of e, so the tail of e is
  ``to[e ^ 1]`` and the flow pushed along e sits on ``cap[e ^ 1]``.
- The forward arcs are numbered source arcs first (boys who arrived, by
  boy), then the unit arcs (the matches, by boy and then by girl), then the
  sink arcs (girls who arrived, by girl); so the unit arcs are one stride-2
  ``range`` of arc ids.
- The arcs leaving node u are ``adj[start[u]:start[u + 1]]``, in arc order.

The solver is Dinic's max flow started from a greedy flow.  The greedy pass
takes the unit arcs in ascending order of their endpoints' excess degree
over capacity (degree minus arrival count, summed over the boy and the
girl), ties in arc order, so the matches least contested go first; it
leaves Dinic a few hundred units of the tens of thousands at n = 1000.
Each level graph comes from a breadth-first search over whole frontiers in
numpy; the blocking flow is a depth-first search in Python over the same
arrays.  Integral capacities keep every unit arc at flow 0 or 1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import MatchingGraph, masks_to_rows
from .errors import InputError

if TYPE_CHECKING:
    from .rundir import RoundTrace


COUNT_BLOCK = 1 << 20
GREEDY_BLOCK = 4096


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
    to: array  # 'i': head node of each arc
    cap: array  # 'q': residual capacity of each arc
    start: array  # 'i': node u's arcs are adj[start[u]:start[u + 1]]
    adj: array  # 'i': arc ids grouped by tail, in arc order
    unit_arcs: range  # arc ids of matching edges

    @property
    def source(self) -> int:
        return 2 * self.n

    @property
    def sink(self) -> int:
        return 2 * self.n + 1


def _typed(code: str, values) -> array:
    """An ``array`` of the typecode holding the values, filled through a
    numpy view (no list or bytes copy on the way)."""
    out = array(code, [0]) * len(values)
    np.frombuffer(out, dtype=code)[:] = values
    return out


def build_flow_network(mg: MatchingGraph, counts: ArrivalCounts) -> FlowNetwork:
    n = mg.n
    boy_counts = np.array(_sized(counts.boy_counts, n, "boy"), dtype=np.int64)
    girl_counts = np.array(_sized(counts.girl_counts, n, "girl"), dtype=np.int64)
    boys = np.flatnonzero(boy_counts)
    girls = np.flatnonzero(girl_counts)
    eb, eg = np.nonzero(masks_to_rows(mg.boy_rows, n))
    s, t = 2 * n, 2 * n + 1
    m = len(boys) + len(eb) + len(girls)  # forward arcs
    ends = np.empty((m, 2), dtype=np.int32)  # row k: (head, tail) of forward arc k
    ends[:, 0] = np.concatenate([boys, n + eg, np.full(len(girls), t)])
    ends[:, 1] = np.concatenate([np.full(len(boys), s), eb, n + girls])
    del eb, eg
    to = _typed("i", ends.ravel())
    tails = ends[:, ::-1].ravel()  # the tail of arc e is the head of e ^ 1
    cap = array("q", [0]) * (2 * m)
    np.frombuffer(cap, dtype=np.int64)[0::2] = np.concatenate(
        [boy_counts[boys], np.ones(m - len(boys) - len(girls), dtype=np.int64), girl_counts[girls]])
    start = _typed("i", np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=2 * n + 2))]))
    adj = _typed("i", np.argsort(tails, kind="stable"))
    first = 2 * len(boys)
    return FlowNetwork(n, to, cap, start, adj, range(first, 2 * (m - len(girls)), 2))


def _sized(counts: tuple[int, ...], n: int, side: str) -> tuple[int, ...]:
    """Counts for users 0..n-1: zero for those who never arrived."""
    if any(counts[n:]):
        raise InputError(f"arrival counts name a {side} index >= n = {n}")
    return counts[:n] + (0,) * (n - len(counts))


def _greedy_flow(net: FlowNetwork) -> int:
    """Push one unit along each unit arc whose boy's source arc and girl's
    sink arc both still have capacity, taking the arcs in ascending order of
    their endpoints' summed excess degree over capacity, ties in arc order;
    return the units.  Valid only on a network that carries no flow yet."""
    to = np.frombuffer(net.to, dtype=np.int32)
    cap = np.frombuffer(net.cap, dtype=np.int64)
    units = net.unit_arcs
    src, sink = slice(0, units.start, 2), slice(units.stop, len(cap), 2)
    ends = ((src, to[src]), (sink, to[1:][sink]))  # (arcs, their users): a sink arc's tail is its girl
    room = np.zeros(2 * net.n + 2, dtype=np.int64)  # capacity left to each user
    for arcs, users in ends:
        room[users] = cap[arcs]
    heads = to[units.start : units.stop : 2]
    tails = to[units.start + 1 : units.stop : 2]
    excess = np.bincount(heads, minlength=len(room)) + np.bincount(tails, minlength=len(room)) - room
    order = np.argsort(excess[heads] + excess[tails], kind="stable")
    left = room.tolist()
    taken = bytearray(len(order))  # taken[i]: the i-th arc in that order carries a unit
    for i in range(0, len(order), GREEDY_BLOCK):  # Python ints for a block of arcs at a time
        block = order[i : i + GREEDY_BLOCK]
        for k, b, g in zip(range(i, i + GREEDY_BLOCK), tails[block].tolist(), heads[block].tolist()):
            if left[b] and left[g]:
                left[b] -= 1
                left[g] -= 1
                taken[k] = 1
    pushed = units.start + 2 * order[np.frombuffer(taken, dtype=bool)]
    cap[pushed] = 0
    cap[pushed + 1] = 1
    left = np.array(left, dtype=np.int64)
    for arcs, users in ends:
        cap[1:][arcs] = cap[arcs] - left[users]
        cap[arcs] = left[users]
    return len(pushed)


def _levels(net: FlowNetwork) -> np.ndarray:
    """BFS distances from the source over arcs with residual capacity, a
    whole frontier per numpy step, until the sink is reached; -1 where
    unreached."""
    to = np.frombuffer(net.to, dtype=np.int32)
    cap = np.frombuffer(net.cap, dtype=np.int64)
    adj = np.frombuffer(net.adj, dtype=np.int32)
    start = np.frombuffer(net.start, dtype=np.int32)
    level = np.full(len(start) - 1, -1, dtype=np.int32)
    level[net.source] = 0
    front = np.array([net.source])
    d = 0
    while len(front) and level[net.sink] < 0:
        lo = start[front]
        cnt = start[front + 1] - lo
        # the positions lo[i] .. lo[i] + cnt[i] - 1 of every frontier node
        pos = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        e = adj[pos]
        v = to[e[cap[e] > 0]]
        d += 1
        level[v[level[v] < 0]] = d
        front = np.flatnonzero(level == d)  # no np.unique: it imports numpy.ma
    return level


def max_flow(net: FlowNetwork) -> int:
    """Dinic: BFS level phases, DFS blocking flow.  Mutates the network.

    A greedy pass (``_greedy_flow``) starts the flow, so Dinic augments
    only what the greedy pass left over; the value returned is the whole
    flow.
    """
    to, cap, adj = net.to, net.cap, net.adj
    start = net.start.tolist()
    s, t = net.source, net.sink
    total = _greedy_flow(net)
    while True:
        level = _levels(net)
        if level[t] < 0:
            return total
        level = level.tolist()
        it = start[:-1]
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
            iu, end = it[u], start[u + 1]
            lv = level[u] + 1
            while iu < end:
                e = adj[iu]
                if cap[e] > 0 and level[to[e]] == lv:
                    break
                iu += 1
            it[u] = iu
            if iu < end:
                stack.append(to[e])
                arcs.append(e)
            else:
                level[u] = -1
                stack.pop()
                if arcs:
                    arcs.pop()
                    it[stack[-1]] += 1


def optimal_matches(mg: MatchingGraph, counts: ArrivalCounts) -> int:
    """M*_T: the most matches any strategy could realize on this trace."""
    net = build_flow_network(mg, counts)
    return max_flow(net)
