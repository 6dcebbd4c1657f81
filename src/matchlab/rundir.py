"""The files of a run directory: one writer and one reader for each format.

``matchlab run`` writes ``manifest.txt``, ``curves.csv``, ``auc.csv``,
``yardstick.csv``, ``stats.csv``, ``runs/*.csv`` and, with
``save_traces=1``, ``traces/*.trace.csv``.  ``report`` reads the first
four tables back and ``yardstick`` reads a trace.  Each header is defined
here once, and the writer and the reader of its file both use it.

This module only formats and parses: the numbers it writes are computed by
its callers.  At the top it imports only the standard library, ``errors``
and ``__version__``; numpy, ``core`` and ``protocol`` are imported inside
the functions that need them, so ``report`` loads no numpy and
``yardstick`` loads no engine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

    from .core import PreferenceMatrices


def parse_number(path, key, value, kind=int):
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InputError(f"{path}: {key} must be {what}, got {value!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------- traces


@dataclass(frozen=True)
class RoundTrace:
    """The six per-round columns of a T-round run.

    The engine's columns are int32 (user indices) and int8 (signs) numpy
    views of the ``array`` buffers it recorded into, 18 bytes a round.
    """

    boy_arrivals: np.ndarray
    girls_selected: np.ndarray
    signs_bg: np.ndarray
    girl_arrivals: np.ndarray
    boys_selected: np.ndarray
    signs_gb: np.ndarray

    def __len__(self) -> int:
        return len(self.boy_arrivals)


TRACE_HEADER = "t,boy_arrival,girl_selected,sign_bg,girl_arrival,boy_selected,sign_gb"
TRACE_BLOCK = 8192


def write_trace(path, trace: RoundTrace) -> None:
    cols = (trace.boy_arrivals, trace.girls_selected, trace.signs_bg,
            trace.girl_arrivals, trace.boys_selected, trace.signs_gb)
    with open(path, "w") as f:
        f.write(TRACE_HEADER + "\n")
        # a block of rounds at a time, so the text never exists whole
        for s in range(0, len(trace), TRACE_BLOCK):
            block = (c[s : s + TRACE_BLOCK].tolist() for c in cols)
            rows = zip(range(s + 1, s + TRACE_BLOCK + 1), *block)
            f.write("".join(map("%d,%d,%d,%d,%d,%d,%d\n".__mod__, rows)))


def read_trace(path) -> RoundTrace:
    """Parse a trace file; a malformed one raises InputError."""
    import numpy as np

    with open(path) as f:
        if f.readline().rstrip("\r\n") != TRACE_HEADER:
            raise InputError(f"{path}: not a trace file")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rounds: reported below
                arr = np.loadtxt(f, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as e:
            raise InputError(f"{path}: malformed trace: {str(e).split(';')[0]}") from None
    if len(arr) == 0:
        raise InputError(f"{path}: the trace has no rounds")
    if arr.shape[1] != 7:
        raise InputError(f"{path}: expected 7 fields per round, got {arr.shape[1]}")
    off = np.flatnonzero(arr[:, 0] != np.arange(1, len(arr) + 1))
    if len(off):
        i = int(off[0])
        raise InputError(
            f"{path}: rounds must be numbered 1..{len(arr)}; data row {i + 1} has t = {arr[i, 0]}"
        )
    # fields the int32/int8 narrowing below would wrap into valid-looking values
    bad = (arr[:, [1, 2, 4, 5]] >> 31 != 0).any(axis=1) | (np.abs(arr[:, [3, 6]]) != 1).any(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise InputError(
            f"{path}: round {i + 1} has a user index outside [0, 2**31) or a sign other than 1 or -1"
        )
    return RoundTrace(
        arr[:, 1].astype(np.int32),
        arr[:, 2].astype(np.int32),
        arr[:, 3].astype(np.int8),
        arr[:, 4].astype(np.int32),
        arr[:, 5].astype(np.int32),
        arr[:, 6].astype(np.int8),
    )


def check_trace(trace: RoundTrace, prefs: PreferenceMatrices, path) -> None:
    """Every recorded user index is < n and every recorded sign is the instance's.

    A trace scored against the instance it was not recorded on fails here,
    at its first round that disagrees.
    """
    import numpy as np

    from .core import masks_to_rows

    n = prefs.n
    b, g1, g, b1 = trace.boy_arrivals, trace.girls_selected, trace.girl_arrivals, trace.boys_selected
    bad = np.flatnonzero(np.logical_or.reduce([(c < 0) | (c >= n) for c in (b, g1, g, b1)]))
    if len(bad):
        raise InputError(f"{path}: round {bad[0] + 1} names a user index outside the instance's n = {n}")
    wrong = masks_to_rows(prefs.boys_like, n)[b, g1] != (trace.signs_bg > 0)  # one side unpacked at a time
    wrong |= masks_to_rows(prefs.girls_like, n)[g, b1] != (trace.signs_gb > 0)
    bad = np.flatnonzero(wrong)
    if len(bad):
        raise InputError(f"{path}: round {bad[0] + 1} records a sign the instance does not have")


# ---------------------------------------------------------------- run tables


@dataclass(frozen=True)
class RunRecord:
    """What the run tables read of one finished run."""

    seed: int
    T: int
    curve: np.ndarray
    auc_sum: int
    matches: int
    diagnostics: dict


def write_run_csv(path, rec, stride):
    from .protocol import recorded_rounds

    ts = recorded_rounds(rec.T, stride).tolist()
    lines = ["t,matches"]
    lines += [f"{t},{m}" for t, m in zip(ts, rec.curve.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def write_curves(path, config, results):
    import numpy as np

    from .protocol import recorded_rounds

    ts = recorded_rounds(config.T, config.curve_stride).tolist()
    cols = []
    for pol in config.policies:
        curves = np.stack([r.curve for r in results[pol]])
        cols.append(curves.mean(axis=0))
    lines = ["t," + ",".join(config.policies)]
    for i, t in enumerate(ts):
        lines.append(f"{t}," + ",".join(_fmt(c[i]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


AUC_METRICS = ("auc_mean", "auc_std", "final_mean", "final_std")
STATS_HEADER = ("policy", "seed", "final_matches", "auc", "c_g", "c_b", "bound_ok")
BOUND_STATUS = {"1": "ok", "0": "EXCEEDED", "": "n/a"}


def auc_header(policies) -> list[str]:
    return ["metric", *policies]


def yardstick_header(policies) -> list[str]:
    return ["seed", "m_star", *(f"{p}_final" for p in policies)]


def write_auc(path, config, results):
    import numpy as np

    rows = {metric: [] for metric in AUC_METRICS}
    for pol in config.policies:
        aucs = np.array([r.auc_sum / r.T for r in results[pol]])
        finals = np.array([r.matches for r in results[pol]], dtype=float)
        rows["auc_mean"].append(aucs.mean())
        rows["auc_std"].append(aucs.std())
        rows["final_mean"].append(finals.mean())
        rows["final_std"].append(finals.std())
    lines = [",".join(auc_header(config.policies))]
    for metric, vals in rows.items():
        lines.append(metric + "," + ",".join(_fmt(v) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def write_yardstick(path, config, results, mstar):
    lines = [",".join(yardstick_header(config.policies))]
    for i, seed in enumerate(config.seeds):
        finals = [results[p][i].matches for p in config.policies]
        lines.append(f"{seed},{mstar[seed]}," + ",".join(str(f) for f in finals))
    Path(path).write_text("\n".join(lines) + "\n")


def write_stats(path, config, results, bounds):
    """``bounds[S']`` is the girl and the boy side's ``cluster_bound`` at S'."""
    lines = [",".join(STATS_HEADER)]
    for pol in config.policies:
        for rec in results[pol]:
            d = rec.diagnostics
            c_g = d.get("c_g", "")
            c_b = d.get("c_b", "")
            bound_ok = ""
            s_prime = d.get("S_prime")
            if c_g != "" and s_prime:
                bg, bb = bounds[s_prime]
                bound_ok = "1" if (c_g <= bg and c_b <= bb) else "0"
            auc = rec.auc_sum / rec.T
            lines.append(f"{pol},{rec.seed},{rec.matches},{_fmt(auc)},{c_g},{c_b},{bound_ok}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(path, config, prefs, mg):
    lines = [
        f"tool=matchlab {__version__}",
        f"instance={config.instance}",
        f"n={prefs.n}",
        f"matches={mg.match_count}",
        f"policies={','.join(config.policies)}",
        f"T={config.T}",
        f"seeds={','.join(str(s) for s in config.seeds)}",
        f"curve_stride={config.curve_stride}",
    ]
    for pol, params in sorted(config.policy_params.items()):
        for k, v in sorted(params.items()):
            lines.append(f"{pol}.{k}={v}")
    Path(path).write_text("\n".join(lines) + "\n")


def _run_table(path, header, keys) -> list[list[str]]:
    """The rows of a run table, split into fields.

    The header must be ``header``, every row as wide as it, and row i must
    start with the fields ``keys[i]``, one row per key and no more.
    Anything else is an InputError naming the file and the line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(header):
        raise InputError(f"{path}:1: expected the header {','.join(header)!r}")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise InputError(f"{path}:{i}: expected {len(header)} fields, got {len(row)}")
    for i, key in enumerate(keys, start=2):
        if i - 2 >= len(rows) or rows[i - 2][: len(key)] != key:
            raise InputError(f"{path}:{i}: expected a row starting {','.join(key)!r}")
    if len(rows) > len(keys):
        raise InputError(f"{path}:{len(keys) + 2}: expected no more rows")
    return rows


def read_manifest(path) -> dict[str, str]:
    """The key=value lines of a manifest, which must name the policies and the seeds."""
    manifest = dict(
        line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line
    )
    for key in ("policies", "seeds"):
        if key not in manifest:
            raise InputError(f"{path}: no {key}= line")
    return manifest


def read_auc(path, policies) -> dict[str, list[float]]:
    """Each metric's values, one per policy."""
    rows = _run_table(path, auc_header(policies), [[m] for m in AUC_METRICS])
    return {
        row[0]: [parse_number(f"{path}:{i}", row[0], v, float) for v in row[1:]]
        for i, row in enumerate(rows, start=2)
    }


def read_yardstick(path, policies, seeds) -> list[int]:
    """M*_T of each seed."""
    rows = _run_table(path, yardstick_header(policies), [[s] for s in seeds])
    return [parse_number(f"{path}:{i}", "m_star", row[1]) for i, row in enumerate(rows, start=2)]


def read_stats(path, policies, seeds) -> list[list[str]]:
    """One row per policy and seed, with a ``BOUND_STATUS`` key as bound_ok where c_g is set."""
    rows = _run_table(path, STATS_HEADER, [[p, s] for p in policies for s in seeds])
    for i, (pol, seed, final, auc, c_g, c_b, bound_ok) in enumerate(rows, start=2):
        if c_g and bound_ok not in BOUND_STATUS:
            raise InputError(f"{path}:{i}: bound_ok must be 1, 0 or empty, got {bound_ok!r}")
    return rows
