"""The two sign-oblivious baselines.

``uromm`` picks uniformly at random on both sides.  ``oomm`` reciprocates:
for an arriving girl it answers one of the boys whose edge toward her is
observed but not yet reciprocated, drawn uniformly; this samples reciprocal
pairs uniformly at random from all n^2 of them, at rate Theta(T).  Neither
policy ever reads a sign, so their selection sequences depend only on
(n, seed).
"""

from __future__ import annotations

from .base import MatchmakerPolicy


class IndexedSet:
    """Set of ints with O(1) add/discard/uniform-sample."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list[int] = []
        self.pos: dict[int, int] = {}

    def __len__(self):
        return len(self.items)

    def __contains__(self, k):
        return k in self.pos

    def add(self, k: int) -> None:
        if k not in self.pos:
            self.pos[k] = len(self.items)
            self.items.append(k)

    def discard(self, k: int) -> None:
        i = self.pos.pop(k, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def sample(self, rng) -> int:
        return self.items[rng.randint(len(self.items))]


class UrommPolicy(MatchmakerPolicy):
    name = "uromm"

    def select_for_boy(self, b: int, t: int) -> int:
        return self.rng.randint(self.n)

    def select_for_girl(self, g: int, t: int) -> int:
        return self.rng.randint(self.n)


class OommPolicy(MatchmakerPolicy):
    """Per-girl pending sets: boys observed toward her, not yet reciprocated.

    Membership invariant: b in pending[g] iff (b, g) is observed and (g, b)
    is not, read from the ledger.  The structure is asymmetric on purpose;
    the boy half needs none.
    """

    name = "oomm"

    def start(self, n, T, rng, ledger):
        super().start(n, T, rng, ledger)
        self.pending = [IndexedSet() for _ in range(n)]

    def select_for_boy(self, b: int, t: int) -> int:
        return self.rng.randint(self.n)

    def select_for_girl(self, g: int, t: int) -> int:
        pend = self.pending[g]
        if len(pend):
            return pend.sample(self.rng)
        return self.rng.randint(self.n)

    def observe_boy_feedback(self, b, g, sign, t):
        if not (self.ledger.obs_gb[g] >> b) & 1:
            self.pending[g].add(b)

    def observe_girl_feedback(self, g, b, sign, t):
        self.pending[g].discard(b)
