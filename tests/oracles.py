"""Independent re-implementations used as test oracles.

Each of these recomputes a quantity by the most literal route available
(edge-by-edge loops, trace replay, exhaustive search) without touching the
production code paths they check.
"""

from __future__ import annotations


def and_matrix_edges(prefs):
    """Mutual-like pairs by looping over all n^2 pairs."""
    n = prefs.n
    return {
        (b, g)
        for b in range(n)
        for g in range(n)
        if prefs.sign_bg(b, g) > 0 and prefs.sign_gb(g, b) > 0
    }


def matching_edges(mg):
    """The matches of a ``MatchingGraph`` as (b, g) pairs, by boy and then
    by girl, ascending: the arc order of ``dinic_on_lists``."""
    for b, m in enumerate(mg.boy_rows):
        while m:
            low = m & -m
            yield b, low.bit_length() - 1
            m ^= low


def arc_flow(net, e):
    """The flow on arc e of a ``FlowNetwork``: pushed flow accumulates on
    the reverse arc, e ^ 1."""
    return net.cap[e ^ 1]


def covering_is_valid(res, column_masks):
    """Every column lies within ``res.radius`` of its assigned center."""
    return all(
        (res.centers[c] ^ col).bit_count() <= res.radius
        for col, c in zip(column_masks, res.assignment)
    )


def matched_pairs(ledger):
    """The pairs a ledger has seen both ways positive: its matches."""
    return {
        (b, g)
        for b, row in enumerate(ledger.pos_bg)
        for g in range(ledger.n)
        if (row >> g) & 1 and (ledger.pos_gb[g] >> b) & 1
    }


def replay_ledger(trace):
    """Re-derive the ledger from the trace columns alone.

    Returns (observed_bg, observed_gb, reciprocal_pairs, uncovered dict
    pair -> crediting round, curve list).
    """
    observed_bg = set()
    observed_gb = set()
    sign_of = {}
    pairs = 0
    uncovered = {}
    curve = []
    columns = (trace.boy_arrivals, trace.girls_selected, trace.signs_bg,
               trace.girl_arrivals, trace.boys_selected, trace.signs_gb)
    for t, b, g1, s1, g, b1, s2 in zip(range(1, len(trace) + 1), *(c.tolist() for c in columns)):
        if (b, g1) not in observed_bg:
            observed_bg.add((b, g1))
            sign_of[("bg", b, g1)] = s1
            if (g1, b) in observed_gb:
                pairs += 1
                if s1 > 0 and sign_of[("gb", g1, b)] > 0:
                    uncovered[(b, g1)] = t
        if (g, b1) not in observed_gb:
            observed_gb.add((g, b1))
            sign_of[("gb", g, b1)] = s2
            if (b1, g) in observed_bg:
                pairs += 1
                if s2 > 0 and sign_of[("bg", b1, g)] > 0:
                    uncovered[(b1, g)] = t
        curve.append(len(uncovered))
    return observed_bg, observed_gb, pairs, uncovered, curve


def per_round_accounting(trace, stride):
    """The match events, curve and AUC sum of a run, kept the way the engine
    once kept them: a running match count added to the AUC sum every round,
    and the curve appended to at every round that passes the stride test.
    The events are the crediting rounds of the replayed matches, in order."""
    *_, uncovered, counts = replay_ledger(trace)
    T = len(trace)
    curve, auc_sum = [], 0
    for t, matches in enumerate(counts, start=1):
        auc_sum += matches
        if stride == 1 or t % stride == 0 or t == T:
            curve.append(matches)
    return sorted(uncovered.values()), curve, auc_sum


def brute_force_bmatching(edges, boy_caps, girl_caps):
    """Exhaustive max edge subset under per-user capacity constraints."""
    best = 0
    E = len(edges)
    rb = list(boy_caps)
    rg = list(girl_caps)

    def rec(i, cur):
        nonlocal best
        if cur + (E - i) <= best:
            return
        if i == E:
            best = max(best, cur)
            return
        b, g = edges[i]
        if rb[b] > 0 and rg[g] > 0:
            rb[b] -= 1
            rg[g] -= 1
            rec(i + 1, cur + 1)
            rb[b] += 1
            rg[g] += 1
        rec(i + 1, cur)

    rec(0, 0)
    return best


def dinic_on_lists(mg, counts):
    """M*_T by the earlier solver: the network in Python lists (one head
    list per node), a greedy start in arc order, then Dinic with a Python
    BFS per level graph and a DFS blocking flow."""
    n = mg.n
    boy_counts = counts.boy_counts + (0,) * (n - len(counts.boy_counts))
    girl_counts = counts.girl_counts + (0,) * (n - len(counts.girl_counts))
    s, t = 2 * n, 2 * n + 1
    to, cap, head, unit_arcs = [], [], [[] for _ in range(2 * n + 2)], []

    def add_arc(u, v, c):
        head[u].append(len(to))
        to.append(v)
        cap.append(c)
        head[v].append(len(to))
        to.append(u)
        cap.append(0)
        return len(to) - 2

    for b in range(n):
        if boy_counts[b] > 0:
            add_arc(s, b, boy_counts[b])
    for b, g in matching_edges(mg):
        unit_arcs.append(add_arc(b, n + g, 1))
    for g in range(n):
        if girl_counts[g] > 0:
            add_arc(n + g, t, girl_counts[g])

    end_arc = [-1] * len(head)  # each user's source or sink arc
    for e in head[s]:
        end_arc[to[e]] = e
    for e in head[t]:
        end_arc[to[e]] = e ^ 1  # the head list holds the reverse arc
    total = 0
    for e in unit_arcs:
        a, c = end_arc[to[e ^ 1]], end_arc[to[e]]
        if a >= 0 and c >= 0 and cap[a] and cap[c]:
            for x in (a, e, c):
                cap[x] -= 1
                cap[x ^ 1] += 1
            total += 1

    while True:
        level = [-1] * len(head)
        level[s] = 0
        q = [s]
        for u in q:
            for e in head[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    q.append(to[e])
        if level[t] < 0:
            return total
        it = [0] * len(head)
        stack, arcs = [s], []
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
            while it[u] < len(head[u]):
                e = head[u][it[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    stack.append(to[e])
                    arcs.append(e)
                    break
                it[u] += 1
            else:
                level[u] = -1
                stack.pop()
                if arcs:
                    arcs.pop()
                    it[stack[-1]] += 1


def exact_column_cover(column_masks, radius):
    """Minimum number of columns whose radius-balls cover all columns."""
    from itertools import combinations

    nc = len(column_masks)
    covers = [
        {j for j in range(nc) if (column_masks[i] ^ column_masks[j]).bit_count() <= radius}
        for i in range(nc)
    ]
    allc = set(range(nc))
    for k in range(1, nc + 1):
        for combo in combinations(range(nc), k):
            u = set()
            for i in combo:
                u |= covers[i]
            if u == allc:
                return k
    return nc


def packing_lower_bound(column_masks, radius):
    """Greedy 2*radius-separated packing: a valid covering-number lower bound."""
    chosen = []
    for i, m in enumerate(column_masks):
        if all((m ^ column_masks[j]).bit_count() > 2 * radius for j in chosen):
            chosen.append(i)
    return len(chosen)


def two_pass_stats(curves):
    """Mean/std per position computed the slow explicit way."""
    import math

    T = len(curves[0])
    k = len(curves)
    means = [sum(c[i] for c in curves) / k for i in range(T)]
    stds = [
        math.sqrt(sum((c[i] - means[i]) ** 2 for c in curves) / k) for i in range(T)
    ]
    return means, stds


class SignCountingPrefs:
    """Duck-typed instance wrapper counting every sign-function evaluation."""

    def __init__(self, prefs):
        self._prefs = prefs
        self.n = prefs.n
        self.sign_calls = 0

    def sign_bg(self, b, g):
        self.sign_calls += 1
        return self._prefs.sign_bg(b, g)

    def sign_gb(self, g, b):
        self.sign_calls += 1
        return self._prefs.sign_gb(g, b)


def reveal(policy, ledger, boy_side, x, y, sign, t=1):
    """Deliver one revealed sign the way the engine does: record x's sign
    for y in the ledger first, then call the policy's observe method.
    ``boy_side`` says whether x is a boy."""
    bg = (ledger.obs_bg, ledger.pos_bg)
    gb = (ledger.obs_gb, ledger.pos_gb)
    (obs, pos), (back_obs, back_pos) = (bg, gb) if boy_side else (gb, bg)
    if not (obs[x] >> y) & 1:
        obs[x] |= 1 << y
        if sign > 0:
            pos[x] |= 1 << y
        if (back_obs[y] >> x) & 1:
            ledger.reciprocal_pairs += 1
            if sign > 0 and (back_pos[y] >> x) & 1:
                ledger.events.append(t)
    observe = policy.observe_boy_feedback if boy_side else policy.observe_girl_feedback
    observe(x, y, sign, t)


def randint_by_division(rng, k):
    """``SubstreamRng.randint`` with the rejection limit floor(2^64 / k) * k
    computed by a division on every call, on ``rng``'s own buffer."""
    from matchlab.rng import RNG_BLOCK

    if k <= 0:
        raise ValueError(f"randint needs k >= 1, got {k}")
    buf = rng._buf
    lim = ((1 << 64) // k) * k
    while True:
        if not buf:
            rng._buf = buf = rng._gen.integers(
                0, 1 << 64, size=RNG_BLOCK, dtype="uint64"
            ).tolist()
        v = buf.pop()
        if v < lim:
            return v % k


class ScriptedRng:
    """Feeds a fixed sequence of values to policy randint calls."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def randint(self, k):
        self.calls.append(k)
        if self.values:
            return self.values.pop(0) % k
        return 0

    def shuffle(self, items):
        pass


def cluster_bound_loop(prefs, side, s_prime):
    """min(min_rho(C_{rho/2} + 3 rho S'), n), one fresh covering per radius."""
    from matchlab.analysis import boy_side_covering, girl_side_covering

    n = prefs.n
    cover = girl_side_covering if side == "girl" else boy_side_covering
    best = n
    rho = 0
    while rho <= n:
        size = cover(prefs, rho // 2).size
        best = min(best, size + 3 * rho * s_prime)
        if 3 * rho * s_prime > best:
            break
        rho = max(rho + 1, int(rho * 1.5))
    return best


def _loop_first_fit(cols, radius, order):
    groups = []
    unassigned = set(order)
    for c in order:
        if c not in unassigned:
            continue
        center = cols[c]
        unassigned.discard(c)
        grp = [c]
        for x in list(unassigned):
            if (center ^ cols[x]).bit_count() <= radius:
                unassigned.discard(x)
                grp.append(x)
        groups.append(grp)
    return groups


def _loop_majority_center(cols, group, n_rows):
    if len(group) == 1:
        return cols[group[0]]
    half = len(group) / 2.0
    counts = [0] * n_rows
    for c in group:
        m = cols[c]
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    out = 0
    for i, k in enumerate(counts):
        if k > half:
            out |= 1 << i
    return out


def greedy_covering_loop(matrix, radius, *, shuffle_seed=None):
    """``analysis.greedy_covering`` as one Python loop over int column bitsets,
    one ``bit_count()`` per (center, column) pair: first fit, two Lloyd
    rounds with majority centers, greedy set cover, nearest-center
    assignment.  Returns an ``analysis.CoveringResult``."""
    import numpy as np

    from matchlab.analysis import CoveringResult
    from matchlab.errors import InternalCheckError
    from matchlab.rng import STREAM_ANALYSIS, philox

    m = np.asarray(matrix, dtype=bool)
    n_rows, nc = m.shape
    cols = [sum(1 << i for i, v in enumerate(m[:, j].tolist()) if v) for j in range(nc)]
    if nc == 0:
        return CoveringResult(radius, [], [], 0, n_rows)

    order = list(range(nc))
    if shuffle_seed is not None:
        philox(shuffle_seed, STREAM_ANALYSIS).shuffle(order)

    groups = _loop_first_fit(cols, radius, order)
    centers = [_loop_majority_center(cols, g, n_rows) for g in groups]
    for _ in range(2):
        groups = [[] for _ in centers]
        for c in range(nc):
            best, bd = 0, n_rows + 1
            cm = cols[c]
            for k, ctr in enumerate(centers):
                d = (ctr ^ cm).bit_count()
                if d < bd:
                    best, bd = k, d
            groups[best].append(c)
        keep = [k for k, g in enumerate(groups) if g]
        centers = [_loop_majority_center(cols, groups[k], n_rows) for k in keep]

    ball = [
        {c for c in range(nc) if (ctr ^ cols[c]).bit_count() <= radius} for ctr in centers
    ]
    uncovered = set(range(nc))
    chosen = []
    while uncovered:
        best, gain = -1, -1
        for k in range(len(centers)):
            g = len(ball[k] & uncovered)
            if g > gain:
                best, gain = k, g
        if gain <= 0:
            break
        chosen.append(best)
        uncovered -= ball[best]

    final_centers = [centers[k] for k in chosen]
    for c in sorted(uncovered):
        final_centers.append(cols[c])

    assign = [0] * nc
    for c in range(nc):
        cm = cols[c]
        best, bd = 0, n_rows + 1
        for k, ctr in enumerate(final_centers):
            d = (ctr ^ cm).bit_count()
            if d < bd:
                best, bd = k, d
        if bd > radius:
            raise InternalCheckError(
                f"covering self-check failed: column {c} at distance {bd} > {radius}"
            )
        assign[c] = best
    return CoveringResult(radius, final_centers, assign, len(final_centers), n_rows)


def sampled_agreement_trial_loop(matrix, target, beta, k, rng):
    """``analysis.sampled_agreement_trial`` over int column bitsets: the same
    row draws from ``rng``, then one sample-mask test and one ``bit_count()``
    per column."""
    import math

    import numpy as np

    from matchlab.analysis import SampleAgreementTrial

    m = np.asarray(matrix, dtype=bool)
    r, c = m.shape
    cols = [sum(1 << i for i, v in enumerate(m[:, j].tolist()) if v) for j in range(c)]
    rows = rng.choice(r, size=k, replace=False).tolist()
    sample_mask = 0
    for i in rows:
        sample_mask |= 1 << int(i)

    tgt = cols[target]
    agreeing = []
    dists = []
    for j in range(c):
        if (cols[j] ^ tgt) & sample_mask:
            continue
        agreeing.append(j)
        dists.append((cols[j] ^ tgt).bit_count())
    bound = (beta * r / k) * math.log(r)
    return SampleAgreementTrial(
        r, c, target, tuple(int(i) for i in rows), beta, tuple(agreeing), tuple(dists), bound
    )


def densify_loop(bin_likes, c, count_mode="both"):
    """``ingest.densify`` recounting from scratch: after each removal every
    live neighbour's count is rebuilt from all its ratings, and the lost
    likes are found by scanning the other side's whole population."""
    import heapq

    import numpy as np

    from matchlab.core import PreferenceMatrices, build_matching_graph
    from matchlab.errors import InputError
    from matchlab.ingest import COUNT_MODES, DensifyReport

    if c <= 0:
        raise InputError("coefficient must be positive")
    if count_mode not in COUNT_MODES:
        raise InputError(f"count_mode must be one of {COUNT_MODES}")

    genders = {b: "M" for b in bin_likes.boys}
    genders.update({g: "F" for g in bin_likes.girls})
    alive = set(bin_likes.boys) | set(bin_likes.girls)
    n_boys = len(bin_likes.boys)
    n_girls = len(bin_likes.girls)
    like_count = bin_likes.like_count

    def count_of(u):
        given = sum(1 for v in bin_likes.rated_of[u] if v in alive)
        received = sum(1 for v in bin_likes.rated_by[u] if v in alive)
        if count_mode == "given":
            return given
        if count_mode == "received":
            return received
        return given + received

    counts = {u: count_of(u) for u in alive}
    heap = [(cnt, u) for u, cnt in counts.items()]
    heapq.heapify(heap)
    report = DensifyReport(coefficient=c, count_mode=count_mode)

    def satisfied():
        if n_boys == 0 or n_girls == 0:
            return False
        return like_count >= c * min(n_boys, n_girls) ** 1.5

    while not satisfied():
        while heap:
            cnt, u = heapq.heappop(heap)
            if u in alive and counts[u] == cnt:
                break
        else:
            raise InputError("densification removed everyone before reaching the target")
        alive.discard(u)
        report.removals.append((u, genders[u], cnt))
        if genders[u] == "M":
            n_boys -= 1
            like_count -= sum(1 for v in bin_likes.likes_bg[u] if v in alive)
            like_count -= sum(1 for g in bin_likes.girls if g in alive and u in bin_likes.likes_gb[g])
        else:
            n_girls -= 1
            like_count -= sum(1 for v in bin_likes.likes_gb[u] if v in alive)
            like_count -= sum(1 for b in bin_likes.boys if b in alive and u in bin_likes.likes_bg[b])
        if n_boys == 0 or n_girls == 0:
            raise InputError("densification removed a whole side before reaching the target")
        for v in set(bin_likes.rated_of[u]) | set(bin_likes.rated_by[u]):
            if v in alive:
                counts[v] = count_of(v)
                heapq.heappush(heap, (counts[v], v))

    boys = [b for b in bin_likes.boys if b in alive]
    girls = [g for g in bin_likes.girls if g in alive]
    b_index = {b: i for i, b in enumerate(boys)}
    g_index = {g: i for i, g in enumerate(girls)}
    n = max(len(boys), len(girls))

    def dense(likes, rows, cols):
        # rows/cols give each survivor its dense index; indices past them are phantoms
        out = np.zeros((n, n), dtype=bool)
        for u, i in rows.items():
            out[i, [cols[v] for v in likes[u] if v in cols]] = True
        return out

    prefs = PreferenceMatrices.from_bool_arrays(
        dense(bin_likes.likes_bg, b_index, g_index), dense(bin_likes.likes_gb, g_index, b_index)
    )

    report.final_boys = len(boys)
    report.final_girls = len(girls)
    report.like_count = like_count
    report.match_count = build_matching_graph(prefs).match_count
    report.phantoms = n - min(len(boys), len(girls))
    report.n = n
    return prefs, report


# -------------------------------------------------- policy selects before their fast paths
from bisect import bisect_left  # noqa: E402

from matchlab.policies.ismile import IsmilePolicy  # noqa: E402
from matchlab.policies.smile import SmilePolicy  # noqa: E402


class IsmileScanAll(IsmilePolicy):
    """ismile whose select walks the whole priority chain on every arrival:
    every liked cluster is rescanned, exhausted or not, and a user who has
    queried everyone still drains ``toask``.  ``live`` and ``waiting`` are
    kept up by the inherited events but never read."""

    def _select(self, me, other, x):
        obs = me.obs[x]
        target = other.clusters
        members = target.members

        exploit, eptr = me.exploit[x], me.eptr[x]
        for k, cid in enumerate(exploit):
            mem = members[cid]
            ptr = eptr[k]
            while ptr < len(mem):
                y = mem[ptr]
                if not (obs >> y) & 1:
                    eptr[k] = ptr
                    return y
                ptr += 1
            eptr[k] = ptr

        toask = me.toask[x]
        while toask:
            cid = next(iter(toask))
            sel = None
            for y in members[cid]:
                if not (obs >> y) & 1:
                    sel = y
                    break
            if sel is None:
                del toask[cid]
                self._set_cpref(me, x, cid, 1 if (me.pos[x] >> members[cid][0]) & 1 else -1)
                continue
            me.ctx = (x, cid)
            return sel

        m = me.clusters.pos[x] & ~obs & self.full
        if m:
            return (m & -m).bit_length() - 1
        if target.cursor < self.n:
            return target.order[target.cursor]
        m = ~me.clusters.f[x] & ~obs & self.full
        if m:
            return (m & -m).bit_length() - 1
        free = ~obs & self.full
        return (free & -free).bit_length() - 1 if free else 0


class SmileAlwaysWalk(SmilePolicy):
    """smile that runs the phase II walk and ``_observe`` on every
    half-round, exhausted walk or not."""

    def observe_boy_feedback(self, b, g, sign, t):
        self._observe(self.boys, self.girls, b, g, sign, t)

    def observe_girl_feedback(self, g, b, sign, t):
        self._observe(self.girls, self.boys, g, b, sign, t)

    def _select(self, me, other, x, t):
        free = ~me.obs[x] & self.full
        lowest = (free & -free).bit_length() - 1 if free else 0
        if self.phase == "estimate_m":
            return me.p0_select(x, t)
        if self.phase == "cluster_estimation":
            target = other.clusters
            if target.cursor < self.n:
                return target.order[target.cursor]
            if me.clusters.cursor < self.n:
                return lowest
            self._enter_matching()
        y = self._walk(me, other, x)
        return lowest if y is None else y

    def _walk(self, me, other, x):
        if me.ptr_cell[x] >= len(me.fans):
            return None
        return super()._walk(me, other, x)


class SmileStoredGrid(SmilePolicy):
    """smile whose phase II walks a stored C^B x C^G grid: ``cells[side][i][j]``
    is the ascending list of the side's cluster-i users who liked the other
    side's representative j, and ``ptr_off`` is an offset into a list."""

    def _enter_matching(self):
        boys, girls, n = self.boys, self.girls, self.n
        ops = 0
        for side in (boys, girls):
            cl = side.clusters
            side.rep_order = sorted(cl.reps, key=lambda u: (cl.pos[u], u))
            rank = {r: i for i, r in enumerate(side.rep_order)}
            side.a = [rank[cl.reps[cl.cid_of[u]]] for u in range(n)]
            ops += n
        self.cells = {}
        for side, other in ((boys, girls), (girls, boys)):
            # the production ``_select`` reads how many cells a row has here
            side.fans = [other.clusters.pos[r] for r in other.rep_order]
            cells = self.cells[side] = [[[] for _ in other.rep_order] for _ in side.rep_order]
            for j, liked in enumerate(side.fans):
                ops += n
                for x in range(n):
                    if (liked >> x) & 1:
                        cells[side.a[x]][j].append(x)
        self.build_ops = ops
        self.phase = "user_matching"

    def _walk(self, me, other, x):
        i = me.a[x]
        row = self.cells[me][i]
        other_cells = self.cells[other]
        c = len(row)
        j = me.ptr_cell[x]
        off = me.ptr_off[x]
        obs = me.obs[x]
        ops = 0
        while True:
            if j >= 0:
                lst = other_cells[j][i]
                while off < len(lst):
                    y = lst[off]
                    off += 1
                    ops += 1
                    if not (obs >> y) & 1:
                        me.ptr_cell[x] = j
                        me.ptr_off[x] = off
                        self.phase2_ops += ops
                        return y
            j += 1
            while j < c:
                own = row[j]
                ops += max(1, len(own).bit_length())  # binary-search cost proxy
                k = bisect_left(own, x)
                if k < len(own) and own[k] == x:
                    break
                j += 1
            if j >= c:
                me.ptr_cell[x] = c
                me.ptr_off[x] = 0
                self.phase2_ops += ops
                return None
            off = 0
