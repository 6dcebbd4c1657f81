"""Ratings ingestion and densification for real dating-style data.

Input is two CSVs: ``rater,rated,rating`` (1..10) and ``id,gender``.  Users
of unknown gender and same-gender ratings are dropped; males form B and
females G.  A rating above 2 is a like, anything else (including absence)
is a dislike.  Users with the fewest ratings are then removed one at a time
until the surviving like count reaches c * min(|B|, |G|)^(3/2); survivors
are reindexed densely and the smaller side is padded with all-dislike
phantom users so the core model's square matrices apply (phantoms never
match and are excluded from reported metrics).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import PreferenceMatrices, build_matching_graph
from .errors import InputError, ParseError

LIKE_THRESHOLD = 2  # strictly greater is a like

COUNT_MODES = ("both", "given", "received")


@dataclass
class RawRatings:
    """Cross-gender ratings with known-gender raters and rated users."""

    triples: list[tuple[int, int, int]]  # (rater, rated, rating)
    genders: dict[int, str]              # id -> "M" | "F"

    def males(self) -> list[int]:
        return sorted(u for u in self._users() if self.genders[u] == "M")

    def females(self) -> list[int]:
        return sorted(u for u in self._users() if self.genders[u] == "F")

    def _users(self) -> set[int]:
        out = set()
        for a, b, _ in self.triples:
            out.add(a)
            out.add(b)
        return out


def _read_lines(path):
    text = Path(path).read_text()
    for i, line in enumerate(text.split("\n"), start=1):
        line = line.strip("\r").strip()
        if line:
            yield i, line


def parse_ratings(ratings_path, genders_path) -> RawRatings:
    """Load the two CSVs, dropping unknown genders and same-gender ratings."""
    genders: dict[int, str] = {}
    for i, line in _read_lines(genders_path):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(genders_path, i, f"expected 'id,gender', got {line!r}")
        try:
            uid = int(parts[0])
        except ValueError:
            raise ParseError(genders_path, i, f"bad user id {parts[0]!r}") from None
        g = parts[1].strip().upper()
        if g in ("M", "F"):
            genders[uid] = g

    triples = []
    for i, line in _read_lines(ratings_path):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(ratings_path, i, f"expected 'rater,rated,rating', got {line!r}")
        try:
            rater, rated, rating = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(ratings_path, i, f"non-integer field in {line!r}") from None
        if not 1 <= rating <= 10:
            raise ParseError(ratings_path, i, f"rating {rating} outside [1, 10]")
        ga = genders.get(rater)
        gb = genders.get(rated)
        if ga is None or gb is None or ga == gb:
            continue
        triples.append((rater, rated, rating))
    return RawRatings(triples, genders)


@dataclass
class BinaryLikes:
    """Binarized cross-gender preferences plus rating-count bookkeeping."""

    boys: list[int]                       # male ids, sorted
    girls: list[int]
    likes_bg: dict[int, set[int]]         # male -> females he likes
    likes_gb: dict[int, set[int]]
    rated_by: dict[int, list[int]]        # id -> raters (for count updates)
    rated_of: dict[int, list[int]]        # id -> users they rated
    like_count: int = 0


def binarize(raw: RawRatings) -> BinaryLikes:
    """Like iff rating > 2; missing ratings are dislikes by convention."""
    boys = raw.males()
    girls = raw.females()
    likes_bg: dict[int, set[int]] = {b: set() for b in boys}
    likes_gb: dict[int, set[int]] = {g: set() for g in girls}
    rated_by: dict[int, list[int]] = {u: [] for u in boys + girls}
    rated_of: dict[int, list[int]] = {u: [] for u in boys + girls}
    nlikes = 0
    for rater, rated, rating in raw.triples:
        rated_of[rater].append(rated)
        rated_by[rated].append(rater)
        if rating > LIKE_THRESHOLD:
            if raw.genders[rater] == "M":
                if rated not in likes_bg[rater]:
                    likes_bg[rater].add(rated)
                    nlikes += 1
            else:
                if rated not in likes_gb[rater]:
                    likes_gb[rater].add(rated)
                    nlikes += 1
    return BinaryLikes(boys, girls, likes_bg, likes_gb, rated_by, rated_of, nlikes)


@dataclass
class DensifyReport:
    """Replayable record of the densification pass."""

    coefficient: float
    count_mode: str
    removals: list[tuple[int, str, int]] = field(default_factory=list)  # (id, gender, count)
    final_boys: int = 0
    final_girls: int = 0
    like_count: int = 0
    match_count: int = 0
    phantoms: int = 0
    n: int = 0


def densify(bin_likes: BinaryLikes, c: float, count_mode: str = "both"):
    """Remove minimum-rating-count users until the like density target holds.

    Ties break toward the lowest id.  Returns (PreferenceMatrices, report);
    raises if one side would empty before the target is reached.
    """
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
    rated_of, rated_by = bin_likes.rated_of, bin_likes.rated_by
    likes = bin_likes.likes_bg | bin_likes.likes_gb
    liked_by: dict[int, list[int]] = {u: [] for u in alive}
    for u, liked in likes.items():
        for v in liked:
            if v in liked_by:
                liked_by[v].append(u)

    # Live counts drop as neighbours go.  rated_of[u] and rated_by[u] may
    # repeat an id, once per rating, and count that often.
    use_given = count_mode != "received"
    use_received = count_mode != "given"
    counts = dict.fromkeys(alive, 0)
    for u in alive:
        if use_given:
            counts[u] += sum(v in alive for v in rated_of[u])
        if use_received:
            counts[u] += sum(v in alive for v in rated_by[u])
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
        else:
            n_girls -= 1
        like_count -= sum(v in alive for v in likes[u]) + sum(v in alive for v in liked_by[u])
        if n_boys == 0 or n_girls == 0:
            raise InputError("densification removed a whole side before reaching the target")
        # u's ratings of v were ratings v received, u's raters gave theirs to u
        lost = Counter(rated_of[u] if use_received else ())
        lost.update(rated_by[u] if use_given else ())
        for v, k in lost.items():
            if v in alive:
                counts[v] -= k
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
