"""Clusterability analytics: Hamming coverings, sampled-agreement trials,
and cross-run aggregation.

Coverings are over the COLUMNS of a boolean matrix (the feedback a user
receives).  The covering sizes reported here are upper bounds on the true
covering number: a heuristic cover is still a cover.  By default the
first-fit pass is refined with majority-vote centers and a set-cover
selection, which recovers planted cluster counts through flip noise that
first-fit alone badly over-counts; ``refine=False`` gives the plain
first-fit behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PreferenceMatrices, rows_to_masks
from .errors import InputError, InternalCheckError
from .rng import STREAM_ANALYSIS, philox


def hamming_distance(col_a, col_b) -> int:
    """Number of differing positions between two equal-length binary vectors."""
    a = np.asarray(col_a, dtype=bool)
    b = np.asarray(col_b, dtype=bool)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError("hamming_distance needs two equal-length vectors")
    return int(np.count_nonzero(a != b))


def _column_masks(matrix: np.ndarray) -> tuple[list[int], int]:
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise InputError("expected a 2-D boolean matrix")
    return rows_to_masks(m.T), m.shape[0]  # one mask per column, bit i = matrix row i


@dataclass
class CoveringResult:
    """A radius-rho covering of a matrix's columns.

    ``centers`` are ball centers as row-bitsets; with refinement they are
    majority votes of their group and need not be matrix columns.  Every
    column sits within ``radius`` of its assigned center, so ``size`` is an
    upper bound on the covering number.
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


def _first_fit(cols: list[int], radius: int, order: list[int]) -> list[list[int]]:
    groups = []
    unassigned = set(order)
    for c in order:
        if c not in unassigned:
            continue
        center = cols[c]
        grp = []
        for x in list(unassigned):
            if (center ^ cols[x]).bit_count() <= radius:
                unassigned.discard(x)
                grp.append(x)
        groups.append(grp)
    return groups


def _majority_center(cols: list[int], group: list[int], n_rows: int) -> int:
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


def greedy_covering(
    matrix, radius: int, *, refine: bool = True, shuffle_seed: int | None = None
) -> CoveringResult:
    """Cover the columns of a 0/1 matrix with Hamming balls of the radius.

    First-fit pass: the first uncovered column becomes a center and claims
    everything within the radius.  With ``refine`` (default), group centers
    are replaced by coordinate-wise majority votes, columns re-assigned to
    the nearest center for a couple of rounds, and a greedy set cover picks
    the minimal subset of those balls; stragglers keep their own column as
    a center so the result is always a valid covering.  ``shuffle_seed``
    randomizes the first-fit column order (planted-pattern comparisons use
    this to avoid generator-order artifacts).
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    cols, n_rows = _column_masks(matrix)
    nc = len(cols)
    if nc == 0:
        return CoveringResult(radius, [], [], 0, n_rows)

    order = list(range(nc))
    if shuffle_seed is not None:
        philox(shuffle_seed, STREAM_ANALYSIS).shuffle(order)

    groups = _first_fit(cols, radius, order)

    if not refine:
        centers = [cols[g[0]] for g in groups]
        assign = [0] * nc
        for gi, g in enumerate(groups):
            for c in g:
                assign[c] = gi
        return CoveringResult(radius, centers, assign, len(centers), n_rows)

    # a couple of Lloyd rounds with majority-vote centers
    centers = [_majority_center(cols, g, n_rows) for g in groups]
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
        centers = [_majority_center(cols, groups[k], n_rows) for k in keep]

    # greedy set cover over the refined balls
    ball = [
        {c for c in range(nc) if (ctr ^ cols[c]).bit_count() <= radius} for ctr in centers
    ]
    uncovered = set(range(nc))
    chosen: list[int] = []
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
    # stragglers outside every refined ball fall back to their own column
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


def girl_side_covering(prefs: PreferenceMatrices, radius: int, **kw) -> CoveringResult:
    """Covering of the feedback girls receive (columns of the boy matrix): C^G."""
    boys, _ = prefs.to_bool_arrays()
    return greedy_covering(boys, radius, **kw)


def boy_side_covering(prefs: PreferenceMatrices, radius: int, **kw) -> CoveringResult:
    """Covering of the feedback boys receive (columns of the girl matrix): C^B."""
    _, girls = prefs.to_bool_arrays()
    return greedy_covering(girls, radius, **kw)


def table_radii(n: int) -> list[int]:
    """The three radius levels used for cluster-count tables: 2n/ln n, n/ln n, n/(2 ln n)."""
    ln = math.log(n)
    return [int(2 * n / ln), int(n / ln), int(n / (2 * ln))]


def cluster_bound(prefs: PreferenceMatrices, side: str, s_prime: int) -> int:
    """Upper-bound expression min(min_rho(C_{rho/2} + 3 rho S'), n) with greedy covers.

    Greedy covering sizes over-estimate the true covering numbers, so this
    is a weaker (always valid) form of the representative-count bound; a
    policy's representative count exceeding it is flagged, not fatal.
    Radii sharing a half-radius share one covering, and the scan stops
    before a covering once the linear term alone reaches the minimum.
    """
    n = prefs.n
    boys, girls = prefs.to_bool_arrays()
    matrix = boys if side == "girl" else girls
    sizes: dict[int, int] = {}
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


def sampled_agreement_trial(matrix, target: int, beta: float, k: int, rng) -> SampleAgreementTrial:
    """Sample k distinct rows; report all columns agreeing with the target there.

    Columns that agree on the sample but sit farther than (beta r / k) ln r
    from the target in full Hamming distance are the rare event the sampled
    test is allowed to miss (probability at most r^(1-beta)).
    """
    cols, r = _column_masks(matrix)
    c = len(cols)
    if not (r >= c > 1):
        raise InputError("need a matrix with r >= c > 1")
    if k > r:
        raise InputError(f"cannot sample {k} distinct rows out of {r}")
    if k < math.ceil(beta * math.log(r)):
        raise InputError("k must be at least ceil(beta ln r)")
    if not 0 <= target < c:
        raise InputError("target column out of range")

    if isinstance(rng, np.random.Generator):
        rows = rng.choice(r, size=k, replace=False).tolist()
    else:
        rows = []
        seen = set()
        while len(rows) < k:
            i = rng.randint(r)
            if i not in seen:
                seen.add(i)
                rows.append(i)
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


@dataclass
class PolicySummary:
    mean_curve: np.ndarray
    std_curve: np.ndarray
    aucs: list[float]
    finals: list[int]

    @property
    def mean_auc(self) -> float:
        return float(np.mean(self.aucs))


@dataclass
class RunSummary:
    T: int
    policies: dict[str, PolicySummary] = field(default_factory=dict)


def aggregate_runs(results) -> RunSummary:
    """Per-t mean/std of the match curves plus AUC and final-match stats.

    All runs must share T (and the same curve stride).
    """
    results = list(results)
    if not results:
        raise InputError("no runs to aggregate")
    T = results[0].T
    npoints = len(results[0].ledger.curve)
    for r in results:
        if r.T != T or len(r.ledger.curve) != npoints:
            raise InputError("all runs must share T and curve stride")
    summary = RunSummary(T)
    by_policy: dict[str, list] = {}
    for r in results:
        by_policy.setdefault(r.policy_name, []).append(r)
    for name, runs in by_policy.items():
        curves = np.stack([r.ledger.curve for r in runs])
        summary.policies[name] = PolicySummary(
            mean_curve=curves.mean(axis=0),
            std_curve=curves.std(axis=0),
            aucs=[r.ledger.auc_sum / T for r in runs],
            finals=[r.ledger.matches for r in runs],
        )
    return summary
