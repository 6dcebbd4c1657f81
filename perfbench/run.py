"""End-to-end benchmark for matchlab, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper-n400 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each workload runs as a sequence of ``matchlab`` CLI
commands, one child process at a time: ``gen`` several times (set-up), then
whole rounds of ``run`` followed by the analysis commands a user runs on a
finished run, until ``--seconds`` have passed (at least two rounds).  Each
command is timed from outside and its peak RSS read from its rusage; every
output is checked against numpy/scipy computations in ``checks.py``.  With
``--trace 1`` the same layers are called in-process through their public
Python functions instead (``traced.py``) and per-layer numbers are reported.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the seed and the
machine facts.  ``perfbench/work/`` keeps a summary of each run with every
sample and span.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spawn import die_with_parent

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
CLI = "import sys; from matchlab.cli import main; sys.exit(main())"
MIN_ROUNDS = 2
DEADLINE_S = 165.0  # every run ends well inside 180 s

# The clustered instances are the paper's S-20-22 family: 20 boy clusters,
# 22 girl clusters, like coins at 0.2, default flip 1/(2 ln n).
WORKLOADS = {
    "paper-n400": {
        "n": 400,
        "gen": ["clustered", "--n", "400", "--c-b", "20", "--c-g", "22"],
        "policies": "uromm,oomm,smile,ismile",
        "T": 2 * 400 * 400,
        "seeds": 1,
        "save_traces": False,
        "analysis": ["cover", "report"],
        "analysis_repeats": 3,
        "setup_repeats": 7,
    },
    "scale-n1000": {
        "n": 1000,
        "gen": ["clustered", "--n", "1000", "--c-b", "20", "--c-g", "22"],
        "policies": "oomm,ismile",
        "T": 50 * 1000,
        "seeds": 1,
        "save_traces": True,
        "analysis": ["yardstick", "cover"],
        "analysis_repeats": 1,
        "setup_repeats": 5,
    },
    "adversarial-n400": {
        "n": 400,
        "gen": ["adversarial", "--n", "400", "--m", "4000"],
        "policies": "uromm,oomm,smile,ismile",
        "T": 2 * 400 * 400,
        "seeds": 1,
        "save_traces": False,
        "analysis": ["cover"],
        "analysis_repeats": 5,
        "setup_repeats": 7,
    },
}
CURVE_POINTS = 200
DETERMINISTIC = ["curves.csv", "auc.csv", "yardstick.csv", "stats.csv", "cover.csv"]


class Tally:
    """Commands and checks attempted, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def command_done(self, name: str, returncode: int, stderr: str) -> bool:
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            self.problems.append(f"{name} exited {returncode}: {stderr.strip()[-300:]}")
        return returncode == 0

    def check(self, name: str, problems) -> None:
        """Record one check; ``problems`` is a bool (passed) or a list of messages."""
        if isinstance(problems, bool):
            problems = [] if problems else [name]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems += [f"{name}: {p}" for p in problems]


class Spans:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.items: list[dict] = []

    def add(self, name, start, end, parent=None, **attrs) -> int:
        self.items.append(
            {"id": len(self.items), "name": name, "parent": parent,
             "start_s": start - self.t0, "end_s": end - self.t0, **attrs}
        )
        return len(self.items) - 1


def machine_facts() -> dict:
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, logdir: Path, name: str, deadline: float) -> tuple[float, float, int, str, str]:
    """Run one matchlab command; (wall s, peak RSS MB, exit code, stdout, stderr).

    ``spawn.py`` starts, times and reaps the command, so that its rusage
    gives the command's own peak RSS.
    """
    out_path, err_path = logdir / f"{name}.out", logdir / f"{name}.err"
    timeout = max(1.0, deadline - time.monotonic())
    done = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), str(timeout), str(out_path), str(err_path), "--",
         sys.executable, "-c", CLI, *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True,
        preexec_fn=die_with_parent)
    r = json.loads(done.stdout)
    return (r["wall_s"], r["maxrss_kb"] / 1024.0, r["exit_code"], out_path.read_text(),
            err_path.read_text())


def write_config(path: Path, wl: dict, inst: Path, seed: int, out: Path) -> None:
    stride = max(1, wl["T"] // CURVE_POINTS)
    lines = [
        f"instance={inst}",
        f"policies={wl['policies']}",
        f"T={wl['T']}",
        f"base_seed={seed}",
        f"seeds={wl['seeds']}",
        f"out={out}",
        f"curve_stride={stride}",
        f"save_traces={int(wl['save_traces'])}",
    ]
    path.write_text("\n".join(lines) + "\n")


class Reference:
    """What the checks compare against, computed once from the instance file."""

    def __init__(self, inst: Path):
        self.boys, self.girls = checks.read_instance(inst)
        self.n = self.boys.shape[0]
        self.mutual = checks.mutual(self.boys, self.girls)
        self.matches = int(self.mutual.sum())
        self.cover_bounds = checks.cover_bounds(self.boys, self.girls)


def check_round(name: str, wl: dict, ref: Reference, rdir: Path, first: Path | None,
                outputs: dict[str, str], tally: Tally) -> None:
    manifest = checks.parse_key_values((rdir / "manifest.txt").read_text())
    tally.check("manifest matches = numpy mutual-like count", manifest.get("matches") == str(ref.matches))
    tally.check("finals <= M*_T <= M", checks.yardstick_problems(rdir / "yardstick.csv", ref.matches))
    tally.check("curves non-decreasing, end at final_mean",
                checks.curve_problems(rdir / "curves.csv", rdir / "auc.csv"))
    _, cover_rows = checks.read_csv(rdir / "cover.csv")
    tally.check("cover sizes monotone, within [packing bound, n]",
                checks.cover_problems(cover_rows, ref.n, ref.cover_bounds))
    if first is not None:
        differ = [f for f in DETERMINISTIC if (rdir / f).read_bytes() != (first / f).read_bytes()]
        tally.check("outputs byte-identical to the first round", [f"{f} differs" for f in differ])

    if name == "paper-n400":
        header, rows = checks.read_csv(rdir / "auc.csv")
        auc = dict(zip(header[1:], (float(x) for x in {r[0]: r[1:] for r in rows}["auc_mean"])))
        tally.check("AUC: ismile >= 1.05 oomm >= 1.05^2 uromm (criterion 08)",
                    auc["ismile"] >= 1.05 * auc["oomm"] and auc["oomm"] >= 1.05 * auc["uromm"])
        mid = next(r for r in cover_rows if int(r[0]) == int(ref.n / math.log(ref.n)))
        tally.check("cover at n/ln n: boys 20, girls in [22, 27] (criterion 05)",
                    int(mid[1]) == 20 and 22 <= int(mid[2]) <= 27)
        report = checks.parse_key_values(outputs["report"])
        tally.check("report M = numpy mutual-like count", report.get("M") == str(ref.matches))

    if wl["save_traces"]:
        header, rows = checks.read_csv(rdir / "yardstick.csv")
        for row in rows:
            seed, mstar = row[0], int(row[1])
            for policy, final in zip(header[2:], row[2:]):
                policy = policy.removesuffix("_final")
                trace = checks.read_trace(rdir / "traces" / f"{policy}-{seed}.trace.csv")
                found = checks.trace_checks(ref.boys, ref.girls, trace, int(final), mstar,
                                            outputs[f"yardstick-{policy}-{seed}"])
                for check, problems in found.items():
                    tally.check(f"{policy}-{seed}: {check}", problems)


def analysis_commands(wl: dict, seed: int, inst: Path, rdir: Path) -> list[tuple[str, list[str]]]:
    """The commands a user runs on a finished run directory, labelled."""
    commands = []
    for step in wl["analysis"]:
        if step == "cover":
            commands.append(("cover", ["cover", str(inst), "--seed", str(seed), "--out", str(rdir / "cover.csv")]))
        elif step == "report":
            commands.append(("report", ["report", str(rdir)]))
        else:
            for policy in wl["policies"].split(","):
                for s in range(seed, seed + wl["seeds"]):
                    trace = rdir / "traces" / f"{policy}-{s}.trace.csv"
                    commands.append((f"yardstick-{policy}-{s}", ["yardstick", str(inst), str(trace)]))
    return commands


def run_round(wl: dict, seed: int, inst: Path, rdir: Path, deadline: float, tally: Tally,
              spans: Spans, parent: int) -> tuple[dict, dict[str, str] | None]:
    """One `run` and the analysis commands on its output, each of those
    ``analysis_repeats`` times; returns the samples and the outputs, or None
    for the outputs when a command failed."""
    rdir.mkdir(parents=True)
    logs = rdir / "logs"
    logs.mkdir()
    cfg = rdir / "run.cfg"
    write_config(cfg, wl, inst, seed, rdir)
    sample: dict = {"analysis": {}}
    outputs: dict[str, str] = {}

    def command(label, args):
        t0 = time.perf_counter()
        wall, rss, code, out, err = run_cli(args, logs, label, deadline)
        spans.add(label, t0, t0 + wall, parent, peak_rss_mb=rss, exit_code=code)
        return wall, rss, out, tally.command_done(label, code, err)

    sample["run_s"], sample["run_peak_rss_mb"], _, ok = command("run", ["run", str(cfg)])
    for label, args in analysis_commands(wl, seed, inst, rdir):
        runs = sample["analysis"][label] = []
        for k in range(wl["analysis_repeats"]):
            wall, rss, out, step_ok = command(label, args)
            ok = ok and step_ok
            runs.append((wall, rss))
            if k == 0:
                outputs[label] = out
            elif step_ok:
                tally.check(f"{label} prints the same on a repeat", out == outputs[label])
    return sample, outputs if ok else None


def run_end_to_end(name: str, seed: int, seconds: float, work: Path, tally: Tally, spans: Spans,
                   started: float) -> tuple[dict, dict]:
    wl = WORKLOADS[name]
    deadline = started + DEADLINE_S
    setup_s = []
    insts = []
    for k in range(wl["setup_repeats"]):
        d = work / f"setup-{k}"
        d.mkdir(parents=True)
        inst = d / "instance.txt"
        wall, _, code, _, err = run_cli(["gen", *wl["gen"], "--seed", str(seed), "--out", str(inst)],
                                        d, "gen", deadline)
        t1 = time.perf_counter()
        spans.add("gen", t1 - wall, t1)
        if tally.command_done(f"gen #{k}", code, err):
            insts.append(inst)
        setup_s.append(wall)
    if not insts:
        raise RuntimeError(f"`matchlab gen` failed: {tally.problems[-1]}")
    inst = insts[0]
    tally.check("gen output identical across repeats", all(p.read_bytes() == inst.read_bytes() for p in insts))
    ref = Reference(inst)

    samples = []
    first_dir = None
    measure_start = time.monotonic()
    while len(samples) < MIN_ROUNDS or time.monotonic() - measure_start < seconds:
        if samples and time.monotonic() + 1.5 * samples[-1]["wall"] > deadline:
            break  # a further round would overrun the time limit
        t0 = time.perf_counter()
        rspan = spans.add("round", t0, t0)
        rdir = work / f"round-{len(samples)}"
        sample, outputs = run_round(wl, seed, inst, rdir, deadline, tally, spans, rspan)
        if outputs is not None:
            check_round(name, wl, ref, rdir, first_dir, outputs, tally)
            first_dir = first_dir or rdir
        t1 = time.perf_counter()
        spans.items[rspan]["end_s"] = t1 - spans.t0
        sample["wall"] = t1 - t0
        samples.append(sample)
        if rdir != first_dir:
            shutil.rmtree(rdir)

    # each analysis command's median over all its repeats, summed over commands
    per_command: dict[str, list] = {}
    for sample in samples:
        for label, runs in sample["analysis"].items():
            per_command.setdefault(label, []).extend(runs)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(s["run_s"] for s in samples), "s"),
        "run_peak_rss_mb": (statistics.median(s["run_peak_rss_mb"] for s in samples), "MB"),
        "analysis_s": (sum(statistics.median(w for w, _ in runs) for runs in per_command.values()), "s"),
        "analysis_peak_rss_mb": (max(statistics.median(r for _, r in runs) for runs in per_command.values()), "MB"),
    }
    return metrics, {"setup_s": setup_s, "rounds": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "matchlab" / "cli.py").is_file():
        print(f"error: no matchlab sources under {SRC}; run from a matchlab checkout",
              file=sys.stderr)
        return 2

    # turn a termination request into an exit, so that the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    facts = machine_facts()
    tally = Tally()
    spans = Spans()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        if args.trace:
            import traced

            metrics, details = traced.run_traced(WORKLOADS[args.workload], args.seed, work, tally, spans, SRC)
        else:
            metrics, details = run_end_to_end(args.workload, args.seed, args.seconds, work,
                                              tally, spans, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "wall_s": time.monotonic() - started,
        "problems": tally.problems,
        "details": details,
        "spans": spans.items,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps({k: summary[k] for k in ("workload", "seed", "trace", "machine", "wall_s")}))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
