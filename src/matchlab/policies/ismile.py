"""Interleaved variant of the cluster-sampling matchmaker.

Exploration and exploitation run together from round 1 instead of as
separate phases.  Per arriving user, in priority order: probe a
counterpart from a cluster the user is known to like; probe one member of a
cluster whose preference is still unknown (one probe decides the whole
cluster); answer a counterpart who already liked the user; serve the
cluster-estimation cursor; else prefer unknowns over exhausted options.

The policy is written once for both sides.  Each side is an ``IsmileSide``:
its users' revealed rows (read from the engine's ledger), the
``SideClusters`` of its users (fed every sign they receive, so its ``f[x]``
and ``pos[x]`` are the counterparts whose sign toward x is known, or a
like), and each user's view of the other side's clusters.  The engine's
four entry points pass the arriving user's side and the other side to
``_select`` and ``_observe``.

Most half-rounds at T = 2n^2 have nothing new to ask, so ``_select`` keeps
them cheap.  A liked cluster whose members x has all queried is exhausted
for x: it leaves x's ``live`` list and waits under its cluster id until the
cluster gains a member, which revives it (clusters do grow after users have
passed their end, so an exhausted cluster cannot be dropped for good).  A
user who has queried every counterpart gets the cursor user or 0 at once,
which is where the full priority chain would end.

Differences from the phased policy: the sampling size is S + ceil(sqrt(S ln n)),
and the cluster-membership test forgives mismatches on up to a 1/ln n
fraction of the common raters, which keeps near-duplicate clusters merged on
noisy data.  Logs are natural throughout.
"""

from __future__ import annotations

import math
from bisect import insort

from .base import MatchmakerPolicy, lowest_unqueried
from .clusters import PolicySide, make_sides
from .smile import check_params, s_bounds


class IsmileSide(PolicySide):
    """One side of ismile.

    Per user x: ``cpref[x]`` maps the other side's cluster ids to x's sign
    for them, ``toask[x]`` queues the clusters still unknown to x,
    ``exploit[x]`` lists the liked ones and ``eptr[x][k]`` is a forward
    pointer into the members of ``exploit[x][k]``.  ``live[x]`` holds, in
    ascending order, the indices k whose cluster x has not exhausted;
    ``waiting[cid]`` files the (x, k) whose cluster ``cid`` was exhausted,
    until ``cid`` gains a member and they return to ``live``.  ``ctx`` is
    the (user, cluster) of a pending one-probe decision.
    """

    __slots__ = ("cpref", "toask", "exploit", "eptr", "live", "waiting", "ctx")

    def __init__(self, n, obs, pos, clusters):
        super().__init__(n, obs, pos, clusters)
        self.cpref: list[dict[int, int]] = [dict() for _ in range(n)]
        self.toask: list[dict[int, None]] = [dict() for _ in range(n)]
        self.exploit: list[list[int]] = [[] for _ in range(n)]
        self.eptr: list[list[int]] = [[] for _ in range(n)]
        self.live: list[list[int]] = [[] for _ in range(n)]
        self.waiting: dict[int, list[tuple[int, int]]] = {}
        self.ctx: tuple[int, int] | None = None


class IsmilePolicy(MatchmakerPolicy):
    """Cluster matchmaker that interleaves learning and matching.

    ``S`` defaults to floor(n / ln n): without a match-count estimate the
    conservative end of the legal range buys the most clustering accuracy
    for O(n S) exploration.  ``tolerance`` defaults to 1/ln n.
    """

    name = "ismile"
    param_types = {"S": int, "tolerance": float}

    def __init__(self, S: int | None = None, tolerance: float | None = None):
        check_params(self.name, S, tolerance)
        self.forced_S = S
        self.forced_tol = tolerance

    def start(self, n, T, rng, ledger):
        super().start(n, T, rng, ledger)
        ln = math.log(n) if n > 1 else 1.0
        lo, hi = s_bounds(n)
        S = hi if self.forced_S is None else max(lo, min(hi, int(self.forced_S)))
        self.S = S
        self.s_prime = S + math.ceil(math.sqrt(S * ln))
        self.tol = (1.0 / ln) if self.forced_tol is None else float(self.forced_tol)
        self.full = (1 << n) - 1
        self.boys, self.girls = make_sides(IsmileSide, ledger, rng, self.s_prime, self.tol)

    def select_for_boy(self, b, t):
        return self._select(self.boys, self.girls, b)

    def select_for_girl(self, g, t):
        return self._select(self.girls, self.boys, g)

    def observe_boy_feedback(self, b, g, sign, t):
        self._observe(self.boys, self.girls, b, g, sign)

    def observe_girl_feedback(self, g, b, sign, t):
        self._observe(self.girls, self.boys, g, b, sign)

    # ------------------------------------------------------------ one half-round
    def _select(self, me, other, x):
        obs = me.obs[x]
        target = other.clusters
        if obs == self.full:
            # nothing left to ask: every step below falls through to this,
            # changing only x's own state, which only x's selects read
            return target.order[target.cursor] if target.cursor < self.n else 0
        members = target.members

        # clusters x is known to like and has not exhausted, forward pointer
        # per cluster; exhausted ones wait until their cluster grows
        live = me.live[x]
        if live:
            exploit = me.exploit[x]
            eptr = me.eptr[x]
            waiting = me.waiting
            passed = 0
            for k in live:
                mem = members[exploit[k]]
                ptr = eptr[k]
                while ptr < len(mem):
                    y = mem[ptr]
                    if not (obs >> y) & 1:
                        eptr[k] = ptr
                        del live[:passed]
                        return y
                    ptr += 1
                eptr[k] = ptr
                waiting.setdefault(exploit[k], []).append((x, k))
                passed += 1
            live.clear()

        # one probe decides an unknown cluster
        toask = me.toask[x]
        while toask:
            cid = next(iter(toask))
            sel = None
            for y in members[cid]:
                if not (obs >> y) & 1:
                    sel = y
                    break
            if sel is None:
                # every member already queried: derive the preference directly
                del toask[cid]
                self._set_cpref(me, x, cid, 1 if (me.pos[x] >> members[cid][0]) & 1 else -1)
                continue
            me.ctx = (x, cid)
            return sel

        # reciprocate discovered likes
        m = me.clusters.pos[x] & ~obs & self.full
        if m:
            return (m & -m).bit_length() - 1

        # cluster-estimation cursor
        if target.cursor < self.n:
            return target.order[target.cursor]

        # prefer counterparts whose opinion of x is still unknown
        m = ~me.clusters.f[x] & ~obs & self.full
        if m:
            return (m & -m).bit_length() - 1
        return lowest_unqueried(obs, self.full)

    def _observe(self, me, other, x, y, sign):
        ctx = me.ctx
        if ctx is not None:
            me.ctx = None
            cx, cid = ctx
            if cx == x:
                me.toask[x].pop(cid, None)
                self._set_cpref(me, x, cid, sign)

        event = other.clusters.add_feedback(y, x, sign)
        if event is not None:
            self._on_cluster_event(me, other.clusters, event)

    # ------------------------------------------------------------ events
    def _set_cpref(self, me, x, cid, sign):
        pref = me.cpref[x]
        if cid not in pref:
            pref[cid] = sign
            if sign > 0:
                me.live[x].append(len(me.exploit[x]))
                me.exploit[x].append(cid)
                me.eptr[x].append(0)

    def _on_cluster_event(self, me, target, event):
        """A cluster of the other side (``target``) formed or grew from ``me``'s feedback."""
        kind, y, cid = event
        f = target.f[y]
        pos = target.pos[y]
        if kind == "promoted":
            # every user learns about the new cluster: raters by their sign,
            # the rest get it queued as unknown
            for x in range(self.n):
                if (f >> x) & 1:
                    self._set_cpref(me, x, cid, 1 if (pos >> x) & 1 else -1)
                elif cid not in me.cpref[x]:
                    me.toask[x][cid] = None
            return
        # classified: users who exhausted the cluster have a new member to ask
        for x, k in me.waiting.pop(cid, ()):
            insort(me.live[x], k)
        # and the new member's raters now know their sign for this cluster
        m = f
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            me.toask[x].pop(cid, None)
            self._set_cpref(me, x, cid, 1 if (pos >> x) & 1 else -1)

    # ------------------------------------------------------------ reporting
    def diagnostics(self):
        girls, boys = self.girls.clusters, self.boys.clusters
        out = {"S": self.S}
        if self.forced_S is not None and self.forced_S != self.S:
            out["S_requested"] = self.forced_S
        return out | {
            "S_prime": self.s_prime,
            "tolerance": self.tol,
            "c_g": len(girls.reps),
            "c_b": len(boys.reps),
            "girls_clustered": len(girls.cid_of),
            "boys_clustered": len(boys.cid_of),
        }
