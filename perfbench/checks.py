"""Reference computations for matchlab's outputs, made with numpy and scipy only.

Nothing in this module imports matchlab.  Each function recomputes a
quantity from an instance file, a trace or a run directory, so that the
benchmark can compare it with what the program wrote.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

TRACE_HEADER = "t,boy_arrival,girl_selected,sign_bg,girl_arrival,boy_selected,sign_gb"


def read_instance(path) -> tuple[np.ndarray, np.ndarray]:
    """(boys, girls) boolean n x n matrices: boys[b, g] is boy b's like of girl g."""
    lines = Path(path).read_text().split("\n")
    n = int(lines[0])
    if lines[n + 1] != "":
        raise ValueError(f"{path}: no blank separator line after the boy block")

    def block(start):
        rows = lines[start : start + n]
        if any(len(r) != n for r in rows):
            raise ValueError(f"{path}: rows must have {n} characters")
        a = np.frombuffer("".join(rows).encode(), dtype=np.uint8).reshape(n, n)
        if not np.isin(a, (48, 49)).all():
            raise ValueError(f"{path}: rows must hold only 0 and 1")
        return a == 49

    return block(1), block(n + 2)


def mutual(boys: np.ndarray, girls: np.ndarray) -> np.ndarray:
    """mutual[b, g]: boy b and girl g like each other."""
    return boys & girls.T


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def read_trace(path) -> np.ndarray:
    """A saved trace as a (T, 7) int64 array in the file's column order."""
    with open(path) as f:
        if f.readline().strip() != TRACE_HEADER:
            raise ValueError(f"{path}: not a trace file")
        return np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2)


def trace_columns(arr: np.ndarray) -> tuple[np.ndarray, ...]:
    """(boy_arrivals, girls_selected, signs_bg, girl_arrivals, boys_selected, signs_gb)."""
    return tuple(arr[:, i] for i in range(1, 7))


def signs_match(boys, girls, b_arr, g_sel, s_bg, g_arr, b_sel, s_gb) -> bool:
    """Every recorded sign equals the instance's sign for that directed edge."""
    want_bg = np.where(boys[b_arr, g_sel], 1, -1)
    want_gb = np.where(girls[g_arr, b_sel], 1, -1)
    return bool(np.array_equal(want_bg, s_bg) and np.array_equal(want_gb, s_gb))


def observed(n, b_arr, g_sel, g_arr, b_sel) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges a trace revealed: obs_bg[b, g] and obs_gb[g, b]."""
    obs_bg = np.zeros((n, n), dtype=bool)
    obs_gb = np.zeros((n, n), dtype=bool)
    obs_bg[b_arr, g_sel] = True
    obs_gb[g_arr, b_sel] = True
    return obs_bg, obs_gb


def replay_matches(boys, girls, b_arr, g_sel, g_arr, b_sel) -> int:
    """Matches uncovered by the end of a trace: mutual pairs seen in both directions."""
    obs_bg, obs_gb = observed(boys.shape[0], b_arr, g_sel, g_arr, b_sel)
    return int(np.count_nonzero(obs_bg & obs_gb.T & mutual(boys, girls)))


def arrival_counts(n, b_arr, g_arr) -> tuple[np.ndarray, np.ndarray]:
    return np.bincount(b_arr, minlength=n), np.bincount(g_arr, minlength=n)


def max_flow_optimum(mut: np.ndarray, boy_counts, girl_counts) -> int:
    """M*_T: max flow from a source through boys (capacity = arrivals), unit
    mutual-like arcs and girls (capacity = arrivals) to a sink.

    Nodes: 0 source, 1..n boys, n+1..2n girls, 2n+1 sink.
    """
    n = mut.shape[0]
    bs, gs = np.nonzero(mut)
    users = np.arange(n)
    src = np.concatenate([np.zeros(n, dtype=np.int64), 1 + bs, n + 1 + users])
    dst = np.concatenate([1 + users, n + 1 + gs, np.full(n, 2 * n + 1)])
    cap = np.concatenate([np.asarray(boy_counts), np.ones(len(bs), dtype=np.int64), np.asarray(girl_counts)])
    graph = csr_matrix((cap.astype(np.int32), (src, dst)), shape=(2 * n + 2, 2 * n + 2))
    return int(maximum_flow(graph, 0, 2 * n + 1).flow_value)


def delta_overload(mut: np.ndarray, T: int) -> str:
    """The overload statistic sum_u max(deg(u) - T/n, 0), formatted as `yardstick` prints it."""
    n = mut.shape[0]
    deg = np.concatenate([mut.sum(axis=1), mut.sum(axis=0)]).astype(np.int64)
    num = int(np.maximum(deg * n - T, 0).sum())
    return f"{num / n:.6f}"


def trace_checks(boys, girls, trace: np.ndarray, final: int, mstar: int, yardstick_out: str) -> dict[str, list[str]]:
    """Named checks of one saved trace, each with its problems (none = passed).

    ``final`` and ``mstar`` are the policy's final count and M*_T from
    ``yardstick.csv``; ``yardstick_out`` is what ``matchlab yardstick``
    printed for the trace.
    """
    n = boys.shape[0]
    b_arr, g_sel, s_bg, g_arr, b_sel, s_gb = trace_columns(trace)
    mut = mutual(boys, girls)
    replay = replay_matches(boys, girls, b_arr, g_sel, g_arr, b_sel)
    want = max_flow_optimum(mut, *arrival_counts(n, b_arr, g_arr))
    got = parse_key_values(yardstick_out)
    delta = delta_overload(mut, len(trace))
    return {
        "trace signs = instance signs":
            [] if signs_match(boys, girls, b_arr, g_sel, s_bg, g_arr, b_sel, s_gb)
            else ["a recorded sign differs from the instance"],
        "numpy replay = final matches":
            [] if replay == final else [f"replay gives {replay}, yardstick.csv {final}"],
        "scipy max flow = M*_T in yardstick.csv and `yardstick`":
            [] if want == mstar and got.get("M*_T") == str(want)
            else [f"scipy {want}, yardstick.csv {mstar}, `yardstick` {got.get('M*_T')}"],
        "delta = numpy overload":
            [] if got.get("delta") == delta else [f"numpy {delta}, `yardstick` {got.get('delta')}"],
    }


def table_radii(n: int) -> list[int]:
    ln = math.log(n)
    return [int(2 * n / ln), int(n / ln), int(n / (2 * ln))]


def packing_lower_bounds(matrix: np.ndarray, radii) -> list[int]:
    """For each radius, the size of a greedy set of columns pairwise more
    than 2 * radius apart.

    No Hamming ball of the radius holds two such columns, so every covering
    of the columns by such balls has at least this many balls.
    """
    cols = np.ascontiguousarray(matrix.T, dtype=np.float32)
    ones = cols.sum(axis=1)
    dist = ones[:, None] + ones[None, :] - 2.0 * (cols @ cols.T)
    sizes = []
    for radius in radii:
        blocked = np.zeros(len(cols), dtype=bool)
        size = 0
        for j in range(len(cols)):
            if not blocked[j]:
                size += 1
                blocked |= dist[j] <= 2 * radius
        sizes.append(size)
    return sizes


def cover_bounds(boys, girls) -> dict[str, list[int]]:
    """Packing bounds at the table radii for the `cover` columns of each side.

    The boy-side cover groups the columns of the girl matrix (the feedback
    boys receive); the girl side those of the boy matrix.
    """
    radii = table_radii(boys.shape[0])
    return {"boys": packing_lower_bounds(girls, radii), "girls": packing_lower_bounds(boys, radii)}


def cover_problems(rows: list[list[str]], n: int, bounds: dict[str, list[int]]) -> list[str]:
    """What is wrong with a `cover` table, one message per problem.

    Radii must be the table radii, sizes must not grow with the radius, and
    each size must lie between its packing bound and n.
    """
    problems = []
    radii = [int(r[0]) for r in rows]
    if radii != table_radii(n):
        return [f"cover radii {radii} != table radii {table_radii(n)}"]
    for side, col in (("boys", 1), ("girls", 2)):
        sizes = [int(r[col]) for r in rows]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            problems.append(f"{side} cover sizes {sizes} increase with the radius {radii}")
        for rho, size, lb in zip(radii, sizes, bounds[side]):
            if not lb <= size <= n:
                problems.append(f"{side} cover at radius {rho}: {size} outside [{lb}, {n}]")
    return problems


def curve_problems(curves_csv, auc_csv) -> list[str]:
    """Mean curves must not decrease and must end at each policy's final_mean."""
    header, rows = read_csv(curves_csv)
    values = np.array([[float(x) for x in r[1:]] for r in rows])
    problems = []
    if (np.diff(values, axis=0) < 0).any():
        problems.append("a mean match curve decreases")
    a_header, a_rows = read_csv(auc_csv)
    finals = {r[0]: r[1:] for r in a_rows}["final_mean"]
    if header[1:] != a_header[1:] or rows[-1][1:] != finals:
        problems.append(f"curve end {rows[-1][1:]} != final_mean {finals}")
    return problems


def yardstick_problems(yardstick_csv, matches: int) -> list[str]:
    """Each policy's final count is at most M*_T, and M*_T is at most M."""
    header, rows = read_csv(yardstick_csv)
    problems = []
    for r in rows:
        mstar = int(r[1])
        if mstar > matches:
            problems.append(f"seed {r[0]}: M*_T={mstar} > M={matches}")
        for name, final in zip(header[2:], r[2:]):
            if int(final) > mstar:
                problems.append(f"seed {r[0]}: {name}={final} > M*_T={mstar}")
    return problems


def parse_key_values(text: str) -> dict[str, str]:
    return dict(m.groups() for m in re.finditer(r"([A-Za-z_*]+)=(\S+)", text))
