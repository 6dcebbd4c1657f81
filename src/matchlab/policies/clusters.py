"""Cluster estimation shared by the two cluster-sampling policies.

Each side's users are clustered by the feedback they receive.
``SideClusters`` collects distinct signs per user; at S' signs a user joins
the first representative, in promotion order, whose observed feedback
agrees on all common raters, and a user who agrees with none keeps
collecting until ceil(n/2) signs and is promoted to representative of a new
cluster.  ``smile`` feeds it only the user under the cursor, so its users
are clustered strictly in cursor order; ``ismile`` feeds it every sign.

Both policies keep one ``PolicySide`` per side, built by ``make_sides``:
the side's revealed rows and the ``SideClusters`` of its users.  The rows
are the engine ledger's own lists, not copies (bit y of ``obs[x]`` is set
once x's sign for counterpart y is revealed, and of ``pos[x]`` if it is a
like): the engine writes them before each ``observe_*`` call, and the
policies only read them.  Each policy writes its select and observe
once, taking the arriving user's side and the other side as arguments.
The sides hold no reference to each other: a reference cycle would keep a
finished run's state alive until the cyclic garbage collector ran.
"""

from __future__ import annotations


class SideClusters:
    """Cluster estimation for the users of one side, from the signs they receive.

    ``order`` is the shuffled cursor order and ``order[cursor]`` the first
    user in it not yet clustered (``cursor == n`` once all are).  Cluster
    ids count promotions: ``reps[cid]`` represents ``members[cid]``.
    """

    __slots__ = (
        "n", "s_prime", "half_n", "tol", "order", "cursor",
        "f", "pos", "candidate", "cid_of", "members", "reps",
    )

    def __init__(self, n, s_prime, half_n, tol, order):
        self.n = n
        self.s_prime = s_prime
        self.half_n = half_n
        self.tol = tol
        self.order = order
        self.cursor = 0
        self.f = [0] * n       # distinct raters bitset per user
        self.pos = [0] * n
        self.candidate = [0] * n
        self.cid_of: dict[int, int] = {}
        self.members: list[list[int]] = []
        self.reps: list[int] = []

    def add_feedback(self, u: int, rater: int, sign: int):
        """Record one distinct rating about u.  Returns a cluster event:
        ("classified", u, cid) | ("promoted", u, cid) | None."""
        bit = 1 << rater
        if self.f[u] & bit:
            return None
        self.f[u] |= bit
        if sign > 0:
            self.pos[u] |= bit
        if u in self.cid_of:
            return None
        count = self.f[u].bit_count()
        if count == self.s_prime and not self.candidate[u]:
            cid = self._match_existing(u)
            if cid is not None:
                self.members[cid].append(u)
                return self._assign("classified", u, cid)
            self.candidate[u] = 1
        if count == self.half_n:
            self.reps.append(u)
            self.members.append([u])
            return self._assign("promoted", u, len(self.reps) - 1)
        return None

    def _match_existing(self, u: int) -> int | None:
        """First cluster whose representative's feedback agrees with u's on
        their common raters, forgiving mismatches on up to floor(tol * |common|)."""
        f, pos, tol = self.f[u], self.pos[u], self.tol
        for cid, rep in enumerate(self.reps):
            common = f & self.f[rep]
            diff = (pos ^ self.pos[rep]) & common
            if diff == 0 or (tol > 0.0 and diff.bit_count() <= int(common.bit_count() * tol)):
                return cid
        return None

    def _assign(self, kind, u, cid):
        self.cid_of[u] = cid
        while self.cursor < self.n and self.order[self.cursor] in self.cid_of:
            self.cursor += 1
        return (kind, u, cid)


class PolicySide:
    """One side of a clustering policy; subclasses add their per-user state."""

    __slots__ = ("obs", "pos", "clusters")

    def __init__(self, n, obs, pos, clusters):
        self.obs = obs  # counterparts each user has queried (ledger rows)
        self.pos = pos  # ... and liked
        self.clusters = clusters


def make_sides(side_cls, ledger, rng, s_prime, tol):
    """The boy and the girl side on the ledger's rows, with shuffled cursor orders."""
    n = ledger.n
    order_g = list(range(n))
    order_b = list(range(n))
    rng.shuffle(order_b)
    rng.shuffle(order_g)
    half_n = (n + 1) // 2
    boys = side_cls(n, ledger.obs_bg, ledger.pos_bg, SideClusters(n, s_prime, half_n, tol, order_b))
    girls = side_cls(n, ledger.obs_gb, ledger.pos_gb, SideClusters(n, s_prime, half_n, tol, order_g))
    return boys, girls
