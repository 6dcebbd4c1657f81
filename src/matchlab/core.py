"""Ground-truth model: preference matrices, matching graph, overload statistic.

Both preference matrices are stored row-wise as Python-int bitsets, so the
mutual-like test for a whole row is one ``&`` and counting is one
``bit_count()``.  Bit ``j`` of ``boys_like[i]`` is boy i's sign for girl j
(1 = like); bit ``j`` of ``girls_like[i]`` is girl i's sign for boy j.
Only this module converts between rows and bits: other modules build
instances from numpy bool matrices with ``from_bool_arrays`` and read them
back, matches included, with ``masks_to_rows``.
(The engine, ledger and policies keep bitsets of what was revealed: they
are the hot path.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError


def _check_rows(rows, n, what):
    if len(rows) != n:
        raise InputError(f"{what}: expected {n} rows, got {len(rows)}")
    full = 1 << n
    for i, r in enumerate(rows):
        if not 0 <= r < full:
            raise InputError(f"{what}: row {i} has bits outside [0, {n})")


@dataclass(frozen=True)
class PreferenceMatrices:
    """The hidden sign assignment, one n x n boolean matrix per side."""

    n: int
    boys_like: tuple[int, ...]
    girls_like: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("population size must be >= 1")
        _check_rows(self.boys_like, self.n, "boys_like")
        _check_rows(self.girls_like, self.n, "girls_like")

    # -- sign function ------------------------------------------------
    def sign_bg(self, b: int, g: int) -> int:
        """Sign of the boy-to-girl edge (b, g): +1 like, -1 dislike."""
        return 1 if (self.boys_like[b] >> g) & 1 else -1

    def sign_gb(self, g: int, b: int) -> int:
        return 1 if (self.girls_like[g] >> b) & 1 else -1

    # -- conversions ---------------------------------------------------
    @staticmethod
    def from_bool_arrays(boys: np.ndarray, girls: np.ndarray) -> "PreferenceMatrices":
        boys = np.asarray(boys, dtype=bool)
        girls = np.asarray(girls, dtype=bool)
        n = boys.shape[0]
        if boys.shape != (n, n) or girls.shape != (n, n):
            raise InputError("preference matrices must both be n x n")
        return PreferenceMatrices(n, tuple(rows_to_masks(boys)), tuple(rows_to_masks(girls)))

    def to_bool_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (masks_to_rows(self.boys_like, self.n), masks_to_rows(self.girls_like, self.n))


def rows_to_masks(matrix) -> list[int]:
    """Each row of a 2-D boolean matrix as a bitset: bit j is column j."""
    packed = np.packbits(np.asarray(matrix, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def masks_to_rows(masks, n) -> np.ndarray:
    """The inverse of ``rows_to_masks`` for rows of n columns."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


@dataclass(frozen=True)
class MatchingGraph:
    """Undirected bipartite graph of mutual likes; edge count is M."""

    n: int
    boy_rows: tuple[int, ...]  # bit g of boy_rows[b]: (b, g) is a match
    match_count: int


def build_matching_graph(prefs: PreferenceMatrices) -> MatchingGraph:
    """Edges are exactly the pairs liking each other in both directions."""
    n = prefs.n
    gcols = rows_to_masks(masks_to_rows(prefs.girls_like, n).T)  # gcols[b]: girls that like boy b
    rows = tuple(prefs.boys_like[b] & gcols[b] for b in range(n))
    return MatchingGraph(n, rows, sum(r.bit_count() for r in rows))


def all_degrees(mg: MatchingGraph) -> tuple[list[int], list[int]]:
    rows = masks_to_rows(mg.boy_rows, mg.n)
    return np.count_nonzero(rows, axis=1).tolist(), np.count_nonzero(rows, axis=0).tolist()


def delta_overload(mg: MatchingGraph, T: int) -> Fraction:
    """Total degree overload: sum over users of max(deg - T/n, 0), exact.

    Returned as a Fraction (numerator over n) so acceptance bands never see
    float drift.  Non-increasing in T; zero once T >= n * max degree.
    """
    if T < 0:
        raise InputError("T must be >= 0")
    n = mg.n
    boy_deg, girl_deg = all_degrees(mg)
    num = sum(max(d * n - T, 0) for d in boy_deg)
    num += sum(max(d * n - T, 0) for d in girl_deg)
    return Fraction(num, n)


# -- instance file format ----------------------------------------------
# line 1: n
# n lines of n chars in {0,1}: boys_like
# blank line
# n lines: girls_like

ROW_BLOCK = 64  # instance rows read and parsed per numpy pass
ASCII_SPACE = " \t\n\r\x0b\x0c"  # what bytes.strip() strips


def write_instance(prefs: PreferenceMatrices, path) -> None:
    n = prefs.n
    with open(path, "w") as f:
        f.write(f"{n}\n")
        for sep, masks in (("", prefs.boys_like), ("\n", prefs.girls_like)):
            f.write(sep)
            for bits in masks_to_rows(masks, n):  # one side unpacked at a time
                f.write((bits.view(np.uint8) + ord("0")).tobytes().decode() + "\n")


def read_instance(path) -> PreferenceMatrices:
    """Parse an instance file.  Lines end at LF, CRLF or CR, and each line
    is stripped of ASCII whitespace.  The file is read a block of
    ``ROW_BLOCK`` lines at a time, and each block's rows are checked and
    packed in numpy, with no Python object per bit.  A file with fewer than
    2n + 2 lines is reported as short before any error in its rows."""
    path = Path(path)
    # latin-1 maps each byte to one character, and newline=None ends lines
    # at LF, CRLF and CR alone, as bytes.splitlines does
    with open(path, encoding="latin-1", newline=None) as f:
        first = f.readline()
        if not first:
            raise ParseError(path, 1, "empty instance file")
        first = first.rstrip("\n").encode("latin-1").decode(errors="replace")
        try:
            n = int(first.strip())
        except ValueError:
            raise ParseError(path, 1, f"expected population size, got {first!r}") from None
        if n < 1:
            raise ParseError(path, 1, f"population size must be >= 1, got {n}")
        want = 2 * n + 2
        read = 1

        def fail(line, message):
            # the rest of the file decides whether it is short instead
            lines = read + sum(1 for _ in f)
            if lines < want:
                raise ParseError(path, lines, f"expected {want} lines for n={n}")
            raise ParseError(path, line, message)

        def next_lines(k):
            nonlocal read
            lines = [line.strip(ASCII_SPACE).encode("latin-1") for line in islice(f, k)]
            read += len(lines)
            if len(lines) < k:
                raise ParseError(path, read, f"expected {want} lines for n={n}")
            return lines

        def parse_block(what):
            masks = []
            for left in range(n, 0, -ROW_BLOCK):
                lines = next_lines(min(ROW_BLOCK, left))
                # a fixed-width array pads short lines with NUL and cuts long
                # ones, so the lengths are checked apart from the characters
                bits = np.array(lines, dtype=f"S{n}").view(np.uint8).reshape(len(lines), n)
                bits -= ord("0")  # in place: "0" -> 0, "1" -> 1, anything else > 1
                bad = (np.fromiter(map(len, lines), dtype=np.intp) != n) | (bits.max(axis=1) > 1)
                if bad.any():
                    fail(read - len(lines) + int(bad.argmax()) + 1, f"{what}: need {n} chars of 0/1")
                masks += rows_to_masks(bits.view(bool))
            return tuple(masks)

        boys = parse_block("boys_like")
        if next_lines(1)[0]:
            fail(n + 2, "expected blank separator line")
        girls = parse_block("girls_like")
    return PreferenceMatrices(n, boys, girls)
