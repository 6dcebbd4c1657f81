"""Cluster-sampling matchmaker with three phases.

Phase 0 runs the reciprocating baseline for a while to estimate the hidden
match count from the ledger's match and reciprocal-pair counts, which fixes
the per-user feedback budget S.  Phase I clusters each side by the feedback
its members receive: a cursor walks the shuffled user list, collects S'
distinct signs for the current user, and either assigns them to the first
representative whose observed feedback agrees on all common raters or,
failing that, keeps collecting until ceil(n/2) distinct signs and promotes
them to representative.  When S' > ceil(n/2) no user reaches S' signs before
ceil(n/2), so phase I promotes every user and C = n: at n = 400 this is the
case whenever S clamps to floor(n / ln n) = 66 (S' = 212 > 200).  Phase II
serves each arrival the next counterpart estimated mutual from
representative feedback, through forward-only pointers over a C^B x C^G
cluster grid.  No cell is stored: cell (i, j) of a side is one AND of two
bitsets, its cluster-i users and its users who liked the other side's
representative j, so a cell costs nothing until a walk reads it.

The algorithm is written once for both sides.  Each side is a ``SmileSide``:
its users' revealed rows (the engine ledger's), their ``SideClusters`` (fed
only at the cursor user, which keeps phase I in strict cursor order), and
the two bitset lists behind its half of the cluster grid, with its walk
pointers.  The engine's four entry points pass the arriving user's side and
the other side to ``_select`` and ``_observe``.

All logarithms are natural; S' = 2S + 4*ceil(sqrt(S ln n)).
"""

from __future__ import annotations

import math

from ..errors import InputError
from .base import MatchmakerPolicy, lowest_unqueried
from .clusters import PolicySide, make_sides
from .random_baselines import OommPolicy

PHASE_ESTIMATE = "estimate_m"
PHASE_CLUSTER = "cluster_estimation"
PHASE_MATCH = "user_matching"


def s_bounds(n: int) -> tuple[int, int]:
    ln = math.log(n) if n > 1 else 1.0
    lo = max(1, math.ceil(ln))
    hi = max(lo, math.floor(n / ln))
    return lo, hi


def check_params(name: str, S: int | None, tolerance: float | None) -> None:
    """Reject a forced feedback budget below 1 or a tolerance outside [0, 1).

    A forced S >= 1 is still clamped into ``s_bounds(n)`` once n is known;
    ``diagnostics()`` then reports the requested value as ``S_requested``.
    """
    if S is not None and S < 1:
        raise InputError(f"{name}: S must be >= 1, got {S}")
    if tolerance is not None and not 0 <= tolerance < 1:
        raise InputError(f"{name}: tolerance must be in [0, 1), got {tolerance}")


def s_prime_for(S: int, n: int) -> int:
    ln = math.log(n) if n > 1 else 1.0
    return 2 * S + 4 * math.ceil(math.sqrt(S * ln))


def choose_S(m_hat: int, n: int, gamma: float = 1.0) -> tuple[int, int]:
    """Feedback budget from the match-count estimate: S ~ gamma n^2 ln n / M.

    Clamped into [ceil(ln n), floor(n / ln n)].  Returns (S, S').
    """
    if m_hat < 1:
        raise ValueError("m_hat must be >= 1")
    ln = math.log(n) if n > 1 else 1.0
    lo, hi = s_bounds(n)
    raw = math.ceil(gamma * n * n * ln / m_hat)
    S = max(lo, min(hi, raw))
    return S, s_prime_for(S, n)


class SmileSide(PolicySide):
    """One side of smile.

    Phase 0 delegates to the baseline's methods for this side.  In phase
    II, ``rep_order[i]`` represents this side's cluster i, ``members[i]`` is
    the bitset of its users and ``fans[j]`` the bitset of this side's users
    who liked the representative of the other side's cluster j.  Cell
    (i, j) of the grid is ``members[i] & fans[j]``; a pair is an estimated
    match iff each user is in the other's cell: x in cell (i, j) and y in
    the other side's cell (j, i).  ``ptr_cell``/``ptr_off`` only move
    forward, ``ptr_off`` being the next bit to visit in the other side's
    cell, so each cell entry is visited at most once per user.
    """

    __slots__ = ("p0_select", "p0_observe", "a", "rep_order", "members", "fans",
                 "ptr_cell", "ptr_off")

    def __init__(self, n, obs, pos, clusters):
        super().__init__(n, obs, pos, clusters)
        self.p0_select = self.p0_observe = None
        self.a: list[int] = []  # user -> cluster id (rank of its representative)
        self.rep_order: list[int] = []
        self.members: list[int] = []
        self.fans: list[int] = []
        self.ptr_cell = [-1] * n
        self.ptr_off = [0] * n


def build_matching_index(boys: SmileSide, girls: SmileSide, n: int) -> int:
    """One-pass construction of both sides' phase II bitsets.

    Representatives are ordered by their observed feedback column
    (bitset value: a fixed lexicographic order), cluster ids are ranks in
    that order.  Fills both sides' ``a``, ``rep_order``, ``members`` and
    ``fans`` (the other side's representatives' ``pos`` bitsets, shared,
    not copied).  Returns the work of filling a stored grid, n per side
    plus n per opposite representative, O(n (C^G + C^B)).
    """
    if boys.clusters.cursor < n or girls.clusters.cursor < n:
        raise RuntimeError("cluster estimation is not finished")
    for side in (boys, girls):
        cl = side.clusters
        side.rep_order = sorted(cl.reps, key=lambda u: (cl.pos[u], u))
        rank = {r: i for i, r in enumerate(side.rep_order)}
        rank_of_cid = [rank[r] for r in cl.reps]
        side.a = [rank_of_cid[cl.cid_of[u]] for u in range(n)]
        side.members = [sum(1 << u for u in cl.members[cl.cid_of[r]]) for r in side.rep_order]
    for side, other in ((boys, girls), (girls, boys)):
        side.fans = [other.clusters.pos[r] for r in other.rep_order]
    return n * (2 + len(boys.fans) + len(girls.fans))


class SmilePolicy(MatchmakerPolicy):
    """Phase 0 -> cluster estimation -> user matching.

    Passing ``S`` skips phase 0.  ``tolerance`` relaxes the agreement test
    (0 = exact, the default).  'Arbitrary' selections resolve to the lowest
    unqueried index, then 0.
    """

    name = "smile"
    param_types = {"S": int, "gamma": float, "tolerance": float}

    def __init__(self, S: int | None = None, gamma: float = 1.0, tolerance: float = 0.0):
        check_params(self.name, S, tolerance)
        if not 0 < gamma < math.inf:
            raise InputError(f"{self.name}: gamma must be a finite number > 0, got {gamma}")
        self.forced_S = S
        self.gamma = gamma
        self.tolerance = tolerance

    def start(self, n, T, rng, ledger):
        super().start(n, T, rng, ledger)
        self.full = (1 << n) - 1
        # S' is set once phase 0 has fixed S; nothing is clustered before
        self.boys, self.girls = make_sides(SmileSide, ledger, rng, None, self.tolerance)
        self.phase = PHASE_ESTIMATE
        self.S = self.S_prime = self.m_hat = None
        self.m_hat_degenerate = False
        self.phase0_rounds = 0
        self.build_ops: int | None = None
        self.phase2_ops = 0

        if self.forced_S is not None:
            lo, hi = s_bounds(n)
            S = max(lo, min(hi, int(self.forced_S)))
            self._enter_clustering(S, s_prime_for(S, n))
        else:
            oomm = OommPolicy()
            oomm.start(n, T, rng, ledger)
            self.boys.p0_select = oomm.select_for_boy
            self.boys.p0_observe = oomm.observe_boy_feedback
            self.girls.p0_select = oomm.select_for_girl
            self.girls.p0_observe = oomm.observe_girl_feedback
            self._p0_k0 = math.ceil(8 * math.log(n)) if n > 1 else 1
            self._p0_halfrounds = 0

    def select_for_boy(self, b, t):
        return self._select(self.boys, self.girls, b, t)

    def select_for_girl(self, g, t):
        return self._select(self.girls, self.boys, g, t)

    # phase II learns nothing from a sign, so its half-rounds skip _observe
    def observe_boy_feedback(self, b, g, sign, t):
        if self.phase != PHASE_MATCH:
            self._observe(self.boys, self.girls, b, g, sign, t)

    def observe_girl_feedback(self, g, b, sign, t):
        if self.phase != PHASE_MATCH:
            self._observe(self.girls, self.boys, g, b, sign, t)

    # ---------------------------------------------------------- one half-round
    def _select(self, me, other, x, t):
        phase = self.phase
        if phase == PHASE_ESTIMATE:
            return me.p0_select(x, t)
        if phase == PHASE_CLUSTER:
            target = other.clusters
            if target.cursor < self.n:
                return target.order[target.cursor]
            if me.clusters.cursor < self.n:
                return lowest_unqueried(me.obs[x], self.full)
            self._enter_matching()
        # A walk past its last cell finds nothing and moves no pointer, so an
        # exhausted user (most phase II arrivals at T = 2n^2) skips it.  A walk
        # not yet exhausted must run: it advances phase2_ops.
        if me.ptr_cell[x] < len(me.fans):
            y = self._walk(me, other, x)
            if y is not None:
                return y
        return lowest_unqueried(me.obs[x], self.full)

    def _observe(self, me, other, x, y, sign, t):
        phase = self.phase
        if phase == PHASE_ESTIMATE:
            me.p0_observe(x, y, sign, t)
            self._phase0_tick()
        elif phase == PHASE_CLUSTER:
            target = other.clusters
            if target.cursor < self.n and y == target.order[target.cursor]:
                target.add_feedback(y, x, sign)

    # ---------------------------------------------------------- phase transitions
    def _phase0_tick(self):
        self._p0_halfrounds += 1
        n = self.n
        # phase 0 starts at round 1, so the ledger's counts are its own
        matches = self.ledger.matches
        if matches >= self._p0_k0 or self._p0_halfrounds >= 2 * n * n:
            self.phase0_rounds = (self._p0_halfrounds + 1) // 2
            if matches:  # each match is a reciprocal pair, so pairs >= 1
                self.m_hat = max(1, round(matches * n * n / self.ledger.reciprocal_pairs))
            else:
                self.m_hat = 1
                self.m_hat_degenerate = True
            self._enter_clustering(*choose_S(self.m_hat, n, self.gamma))

    def _enter_clustering(self, S, S_prime):
        self.S, self.S_prime = S, S_prime
        self.boys.clusters.s_prime = self.girls.clusters.s_prime = S_prime
        self.phase = PHASE_CLUSTER

    def _enter_matching(self):
        self.build_ops = build_matching_index(self.boys, self.girls, self.n)
        self.phase = PHASE_MATCH

    # ---------------------------------------------------------- phase II
    def _walk(self, me, other, x):
        """Next unqueried counterpart estimated mutual with x, or None.

        ``phase2_ops`` counts one per cell entry visited in the other
        side's cells and, per own cell scanned, the cost of a binary
        search in it.  The caller skips a walk that is already past its
        last cell.
        """
        i = me.a[x]
        mates, fans = me.members[i], me.fans  # x's cluster, x included
        c = len(fans)
        j = me.ptr_cell[x]
        off = me.ptr_off[x]
        obs = me.obs[x]
        xbit = 1 << x
        ops = 0
        while True:
            if j >= 0:
                todo = other.members[j] & other.fans[i] & -(1 << off)  # bits >= off
                free = todo & ~obs
                if free:
                    low = free & -free
                    ops += (todo & (2 * low - 1)).bit_count()  # entries up to y
                    y = low.bit_length() - 1
                    me.ptr_cell[x] = j
                    me.ptr_off[x] = y + 1
                    self.phase2_ops += ops
                    return y
                ops += todo.bit_count()
            j += 1
            while j < c:
                own = mates & fans[j]
                ops += max(1, own.bit_count().bit_length())  # binary-search cost proxy
                if own & xbit:
                    break
                j += 1
            if j >= c:
                me.ptr_cell[x] = c
                me.ptr_off[x] = 0
                self.phase2_ops += ops
                return None
            off = 0

    # ---------------------------------------------------------- reporting
    def diagnostics(self):
        out = {"phase": self.phase, "S": self.S}
        if self.forced_S is not None and self.forced_S != self.S:
            out["S_requested"] = self.forced_S
        out.update({
            "S_prime": self.S_prime,
            "m_hat": self.m_hat,
            "m_hat_degenerate": self.m_hat_degenerate,
            "phase0_rounds": self.phase0_rounds,
            "c_g": len(self.girls.clusters.reps),
            "c_b": len(self.boys.clusters.reps),
            "phase2_ops": self.phase2_ops,
        })
        if self.build_ops is not None:
            out["build_ops"] = self.build_ops
        return out
