"""Instance generators: clustered synthetics, exact-count randomized
assignments, block-structured worst cases, and random bipartite graphs.

All generators are pure functions of their parameters and seed (Philox
datagen substream).  Logs are natural, so the default flip probability is
1 / (2 ln n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MatchingGraph, PreferenceMatrices, build_matching_graph
from .errors import InputError
from .rng import STREAM_DATAGEN, philox


@dataclass(frozen=True)
class ClusteredSpec:
    """Parameters of the cluster-structured generator.

    One like/dislike coin per (user, opposite-cluster) pair with probability
    ``p_like``, then each directed preference flips independently with
    probability ``flip`` (default 1/(2 ln n)).  ``balanced`` partitions make
    cluster sizes differ by at most one; otherwise cluster membership is
    uniform at random.  ``pair_level_coins`` draws one coin per
    (cluster, cluster) pair instead of per (user, cluster).
    """

    n: int
    c_b: int
    c_g: int
    p_like: float = 0.2
    flip: float | None = None
    seed: int = 0
    balanced: bool = True
    pair_level_coins: bool = False

    def __post_init__(self):
        if not (1 <= self.c_b <= self.n and 1 <= self.c_g <= self.n):
            raise InputError("cluster counts must lie in [1, n]")
        f = self.resolved_flip
        if not (0.0 <= self.p_like <= 1.0 and 0.0 <= f <= 1.0):
            raise InputError("probabilities must lie in [0, 1]")

    @property
    def resolved_flip(self) -> float:
        if self.flip is not None:
            return self.flip
        return 1.0 / (2.0 * math.log(self.n)) if self.n > 1 else 0.0


def _partition(n, c, balanced, rng):
    if balanced:
        ids = np.repeat(np.arange(c), -(-n // c))[:n]
        rng.shuffle(ids)
        return ids
    return rng.integers(0, c, size=n)


def gen_clustered(spec: ClusteredSpec) -> PreferenceMatrices:
    rng = philox(spec.seed, STREAM_DATAGEN)
    n = spec.n
    bcl = _partition(n, spec.c_b, spec.balanced, rng)
    gcl = _partition(n, spec.c_g, spec.balanced, rng)
    if spec.pair_level_coins:
        coins_bg = rng.random((spec.c_b, spec.c_g)) < spec.p_like
        coins_gb = rng.random((spec.c_g, spec.c_b)) < spec.p_like
        boys = coins_bg[bcl][:, gcl]
        girls = coins_gb[gcl][:, bcl]
    else:
        coins_b = rng.random((n, spec.c_g)) < spec.p_like  # boy x girl-cluster
        coins_g = rng.random((n, spec.c_b)) < spec.p_like
        boys = coins_b[:, gcl]
        girls = coins_g[:, bcl]
    f = spec.resolved_flip
    if f > 0:
        boys = boys ^ (rng.random((n, n)) < f)
        girls = girls ^ (rng.random((n, n)) < f)
    return PreferenceMatrices.from_bool_arrays(boys, girls)


def gen_adversarial_random(n: int, m: int, seed: int) -> PreferenceMatrices:
    """Exactly m uniformly-placed mutual likes; every other edge is a dislike.

    The match count equals m by construction, and the matching graph is a
    uniformly random m-edge bipartite graph: the memoryless worst case.
    """
    if not 0 <= m <= n * n // 2:
        raise InputError(f"m must lie in [0, n^2/2] = [0, {n * n // 2}], got {m}")
    rng = philox(seed, STREAM_DATAGEN)
    likes = np.zeros(n * n, dtype=bool)
    likes[rng.choice(n * n, size=m, replace=False)] = True  # pick p is the pair divmod(p, n)
    likes = likes.reshape(n, n)
    return PreferenceMatrices.from_bool_arrays(likes, likes.T)


def gen_block_lowerbound(n: int, d: int, m: int, seed: int) -> PreferenceMatrices:
    """Block construction: all girls like all boys; the boy matrix is built
    from 1-row x (n/d)-column blocks, floor(m d / n) of them set to ones.

    Guarantees m - n/d < M <= m, with a single boy-side cluster and at most
    d distinct boy-matrix columns.
    """
    if d < 1 or n % d != 0:
        raise InputError(f"d must divide n (got n={n}, d={d})")
    ln = math.log(n)
    if not (n * ln < m < n * n - n * ln):
        raise InputError(f"m must lie in (n ln n, n^2 - n ln n) = ({n * ln:.1f}, {n * n - n * ln:.1f})")
    rng = philox(seed, STREAM_DATAGEN)
    k = (m * d) // n
    blocks = np.zeros(n * d, dtype=bool)
    blocks[rng.choice(n * d, size=k, replace=False)] = True  # pick p is (row, block) = divmod(p, d)
    boys = np.repeat(blocks.reshape(n, d), n // d, axis=1)
    return PreferenceMatrices.from_bool_arrays(boys, np.ones((n, n), dtype=bool))


def gen_random_bipartite(n: int, p: float, seed: int) -> tuple[MatchingGraph, PreferenceMatrices]:
    """Each boy-girl edge present independently with probability p.

    Returns the matching graph directly plus a compatible instance whose
    mutual likes are exactly those edges (both directions +1 on an edge,
    both -1 otherwise).
    """
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
    rng = philox(seed, STREAM_DATAGEN)
    adj = rng.random((n, n)) < p
    prefs = PreferenceMatrices.from_bool_arrays(adj, adj.T)
    return build_matching_graph(prefs), prefs


def tiny_demo_instance() -> PreferenceMatrices:
    """Hand-built 4x4 instance used in docs and tests.

    Boy 0 likes girls 0 and 2 and nobody else; girl 2 likes only boy 0.
    It admits exactly 4 matches: (0,0), (1,0), (3,0), (0,2); girl 0 has
    matching degree 3 and boy 1 degree 1.  Entries not pinned by those
    facts are an arbitrary but fixed illustrative fill.
    """
    boys = ["1010", "1101", "0110", "1001"]
    girls = ["1101", "0001", "1000", "0010"]

    def rows(strs):
        return np.array([list(s) for s in strs]) == "1"

    return PreferenceMatrices.from_bool_arrays(rows(boys), rows(girls))
