"""Clusterability analytics: Hamming coverings and sampled-agreement trials.

Coverings are over the COLUMNS of a boolean matrix (the feedback a user
receives).  The covering sizes reported here are upper bounds on the true
covering number: a heuristic cover is still a cover.  A first-fit pass is
refined with majority-vote centers and a set-cover selection, which
recovers planted cluster counts through flip noise that first-fit alone
badly over-counts.

The covering works on whole boolean arrays: the columns, the first-fit
neighbourhoods, the refined balls and the centers.  Hamming distances come
from float32 matrix products as |a| + |b| - 2 a.b.  Every count involved is
an integer below 2**24, where float32 is exact, so matrices with 2**24 rows
or columns are refused.  The float32 work is done in tiles of at most
``TILE`` x ``TILE`` results, from operand panels ``TILE`` wide, so
the only arrays that grow with the square of the matrix size are boolean.
Nearest-center scans merge the tiles with a strict ``<``, so ties go to
the lowest center index, as in a plain scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PreferenceMatrices, masks_to_rows, rows_to_masks
from .errors import InputError, InternalCheckError
from .rng import STREAM_ANALYSIS, philox


@dataclass
class CoveringResult:
    """A radius-rho covering of a matrix's columns.

    ``centers`` are ball centers as row-bitsets: majority votes of their
    group, or a straggler's own column, so they need not be matrix
    columns.  Every column sits within ``radius`` of its assigned center,
    so ``size`` is an upper bound on the covering number.
    """

    radius: int
    centers: list[int]
    assignment: list[int]  # column -> index into centers
    size: int
    n_rows: int

    def validate(self, column_masks: list[int]) -> bool:
        return all(
            (self.centers[c] ^ col).bit_count() <= self.radius
            for col, c in zip(column_masks, self.assignment)
        )


TILE = 128


def _bool_columns(matrix) -> np.ndarray:
    """The columns of a 2-D 0/1 matrix as the rows of a bool array (a view of
    a bool matrix, not a copy)."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise InputError("expected a 2-D boolean matrix")
    if max(m.shape) >= 1 << 24:
        raise InputError("float32 distances are exact only below 2**24 rows and columns")
    return m.astype(bool, copy=False).T


def _distance_tiles(a: np.ndarray, b: np.ndarray):
    """Yield (i, j, d): d[p, q] is the Hamming distance between a[i + p] and
    b[j + q], a float32 tile of at most TILE x TILE, computed as
    |a| + |b| - 2 a.b.  With fewer than 2**24 rows every intermediate is an
    integer that float32 holds exactly."""
    na = np.count_nonzero(a, axis=1).astype(np.float32)
    nb = np.count_nonzero(b, axis=1).astype(np.float32)
    for i in range(0, len(a), TILE):
        fa = a[i : i + TILE].astype(np.float32)
        for j in range(0, len(b), TILE):
            dot = fa @ b[j : j + TILE].astype(np.float32).T
            yield i, j, (nb[j : j + TILE] - 2 * dot) + na[i : i + TILE, None]


def _within(a: np.ndarray, b: np.ndarray, radius: int) -> np.ndarray:
    """Bool matrix: out[p, q] says a[p] and b[q] differ in at most radius places."""
    out = np.empty((len(a), len(b)), dtype=bool)
    for i, j, d in _distance_tiles(a, b):
        out[i : i + TILE, j : j + TILE] = d <= radius
    return out


def _nearest(a: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of and distance to each row's nearest center; the first one on ties."""
    best = np.zeros(len(a), dtype=np.intp)
    dist = np.full(len(a), np.inf, dtype=np.float32)
    for i, j, d in _distance_tiles(a, centers):
        k = d.argmin(axis=1)
        dk = d[np.arange(len(d)), k]
        better = dk < dist[i : i + TILE]  # strict: an earlier tile keeps its tie
        best[i : i + TILE][better] = j + k[better]
        dist[i : i + TILE][better] = dk[better]
    return best, dist.astype(np.int64)


def _majority(cols: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Coordinate-wise strict majority of the columns carrying each label 0..k-1."""
    sizes = np.bincount(labels, minlength=k)
    out = np.empty((k, cols.shape[1]), dtype=bool)
    for g in range(0, k, TILE):
        onehot = (labels == np.arange(g, min(g + TILE, k))[:, None]).astype(np.float32)
        for r in range(0, cols.shape[1], TILE):
            counts = onehot @ cols[:, r : r + TILE].astype(np.float32)
            out[g : g + TILE, r : r + TILE] = 2 * counts > sizes[g : g + TILE, None]
    return out


def _set_cover(ball: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy set cover of the columns by the rows of ``ball``: the rows
    picked, each the first one of largest gain, and the columns no row covers."""
    gain = np.count_nonzero(ball, axis=1)
    uncovered = np.ones(ball.shape[1], dtype=bool)
    chosen: list[int] = []
    while True:
        k = int(np.argmax(gain))
        if gain[k] == 0:
            break
        chosen.append(k)
        newly = ball[k] & uncovered
        gain -= np.count_nonzero(ball[:, newly], axis=1)
        uncovered ^= newly
    return chosen, np.flatnonzero(uncovered)


def greedy_covering(matrix, radius: int, *, shuffle_seed: int | None = None) -> CoveringResult:
    """Cover the columns of a 0/1 matrix with Hamming balls of the radius.

    First-fit pass: the first uncovered column becomes a center and claims
    everything within the radius.  Then group centers are replaced by
    coordinate-wise majority votes, columns re-assigned to the nearest
    center for a couple of rounds, and a greedy set cover picks the minimal
    subset of those balls; stragglers keep their own column as a center so
    the result is always a valid covering.  When first fit leaves every
    column alone, that refinement would keep every column as its own center
    in first-fit order, so it is skipped.  ``shuffle_seed``
    randomizes the first-fit column order (planted-pattern comparisons use
    this to avoid generator-order artifacts).
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    cols = _bool_columns(matrix)
    nc, n_rows = cols.shape
    if nc == 0:
        return CoveringResult(radius, [], [], 0, n_rows)
    reach = min(radius, n_rows)  # no distance exceeds n_rows; keeps float32 compares finite

    order = list(range(nc))
    if shuffle_seed is not None:
        philox(shuffle_seed, STREAM_ANALYSIS).shuffle(order)

    near = _within(cols, cols, reach)
    unassigned = np.ones(nc, dtype=bool)
    labels = np.empty(nc, dtype=np.intp)
    groups = 0
    for c in order:
        if unassigned[c]:
            members = near[c] & unassigned
            labels[members] = groups
            unassigned ^= members
            groups += 1
    del near

    if groups == nc:
        # first fit left every column alone, so no two columns lie within
        # the radius: the Lloyd rounds and the set cover would keep every
        # column as its own center, in first-fit order
        final = cols[order]
    else:
        # a couple of Lloyd rounds with majority-vote centers
        centers = _majority(cols, labels, groups)
        for _ in range(2):
            best, _ = _nearest(cols, centers)
            keep, labels = np.unique(best, return_inverse=True)
            centers = _majority(cols, labels.ravel(), len(keep))

        # greedy set cover over the refined balls; stragglers outside every
        # refined ball fall back to their own column
        chosen, stragglers = _set_cover(_within(centers, cols, reach))
        final = np.concatenate([centers[chosen], cols[stragglers]])
        del centers  # frees K x n_rows bools before the final scan
    assign, dist = _nearest(cols, final)
    far = np.flatnonzero(dist > radius)
    if len(far):
        c = int(far[0])
        raise InternalCheckError(
            f"covering self-check failed: column {c} at distance {dist[c]} > {radius}"
        )
    return CoveringResult(radius, rows_to_masks(final), assign.tolist(), len(final), n_rows)


def girl_side_covering(prefs: PreferenceMatrices, radius: int, **kw) -> CoveringResult:
    """Covering of the feedback girls receive (columns of the boy matrix): C^G."""
    return greedy_covering(masks_to_rows(prefs.boys_like, prefs.n), radius, **kw)


def boy_side_covering(prefs: PreferenceMatrices, radius: int, **kw) -> CoveringResult:
    """Covering of the feedback boys receive (columns of the girl matrix): C^B."""
    return greedy_covering(masks_to_rows(prefs.girls_like, prefs.n), radius, **kw)


def table_radii(n: int) -> list[int]:
    """The three radius levels used for cluster-count tables: 2n/ln n, n/ln n, n/(2 ln n)."""
    ln = math.log(n)
    return [int(2 * n / ln), int(n / ln), int(n / (2 * ln))]


def cluster_bound(prefs: PreferenceMatrices, side: str, s_prime: int) -> int:
    """Upper-bound expression min(min_rho(C_{rho/2} + 3 rho S'), n) with greedy covers.

    C_0 is exact: a radius-0 ball holds only equal columns, so C_0 is the
    number of distinct columns, counted without a covering.  For half-radii
    above 0, greedy covering sizes over-estimate the true covering numbers,
    so this is a weaker (always valid) form of the representative-count
    bound; a policy's representative count exceeding it is flagged, not
    fatal.  Radii sharing a half-radius share one covering, and the scan
    stops before a covering once the linear term alone reaches the minimum.
    """
    n = prefs.n
    matrix = masks_to_rows(prefs.boys_like if side == "girl" else prefs.girls_like, n)
    sizes = {0: len(set(rows_to_masks(matrix.T)))}  # C_0: the distinct columns
    best = n
    rho = 0
    while rho <= n and 3 * rho * s_prime < best:
        half = rho // 2
        if half not in sizes:
            sizes[half] = greedy_covering(matrix, half).size
        best = min(best, sizes[half] + 3 * rho * s_prime)
        rho = max(rho + 1, int(rho * 1.5))
    return best


@dataclass(frozen=True)
class SampleAgreementTrial:
    """Outcome of one sampled-agreement test on a matrix column."""

    n_rows: int
    n_cols: int
    target: int
    sample_rows: tuple[int, ...]
    beta: float
    agreeing: tuple[int, ...]          # columns matching the target on the sample
    distances: tuple[int, ...]         # their full-column Hamming distances
    distance_bound: float              # (beta r / k) ln r

    def violations(self) -> int:
        return sum(1 for d in self.distances if d > self.distance_bound)


def sampled_agreement_trial(
    matrix, target: int, beta: float, k: int, rng: np.random.Generator
) -> SampleAgreementTrial:
    """Sample k distinct rows; report all columns agreeing with the target there.

    Columns that agree on the sample but sit farther than (beta r / k) ln r
    from the target in full Hamming distance are the rare event the sampled
    test is allowed to miss (probability at most r^(1-beta)).
    """
    m = np.asarray(matrix, dtype=bool)
    if m.ndim != 2:
        raise InputError("expected a 2-D boolean matrix")
    r, c = m.shape
    if not (r >= c > 1):
        raise InputError("need a matrix with r >= c > 1")
    if k > r:
        raise InputError(f"cannot sample {k} distinct rows out of {r}")
    if k < math.ceil(beta * math.log(r)):
        raise InputError("k must be at least ceil(beta ln r)")
    if not 0 <= target < c:
        raise InputError("target column out of range")

    rows = rng.choice(r, size=k, replace=False).tolist()
    sample = np.zeros(r, dtype=bool)
    sample[rows] = True

    differs = m != m[:, target : target + 1]
    agreeing = np.flatnonzero(~differs[sample].any(axis=0))
    dists = np.count_nonzero(differs[:, agreeing], axis=0)
    bound = (beta * r / k) * math.log(r)
    return SampleAgreementTrial(
        r, c, target, tuple(int(i) for i in rows), beta,
        tuple(agreeing.tolist()), tuple(dists.tolist()), bound,
    )
