"""Command-line entry points.

Subcommands: ``gen`` (instances), ``ingest`` (real ratings), ``cover``
(cluster-count tables), ``run`` (multi-seed policy comparisons), ``yardstick``
(trace-optimal match count), ``report`` (summarize a run directory).

Exit codes: 0 success, 2 input error, 3 internal assertion failure.  Output
files are plain text and CSV only; a rerun with an identical config is
byte-identical.

At the top this module imports only the standard library, ``errors``,
``__version__`` and ``rundir``, which defines every file of a run
directory; each command imports what it runs inside its function, so a
short command does not pay for the others' start-up:

- ``report`` loads no numpy and no other matchlab module besides ``rundir``;
- ``gen`` loads ``datagen`` and ``core``;
- ``cover`` loads ``analysis`` and ``core``;
- ``ingest`` loads ``ingest`` and ``core``;
- ``yardstick`` loads ``core`` and ``omniscient``, but not the engine
  (``protocol`` and ``rng``) and no policy;
- ``run`` loads the engine, the policies, ``omniscient``, ``analysis``,
  ``numpy.random`` and the job runner (``runner``), which forks the process
  pool.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import InputError, InternalCheckError, MatchlabError
from .rundir import (
    BOUND_STATUS, RunRecord, check_trace, parse_number, read_auc, read_manifest, read_stats,
    read_trace, read_yardstick, write_auc, write_curves, write_manifest, write_run_csv,
    write_stats, write_trace, write_yardstick,
)


@dataclass
class ExperimentConfig:
    """Parsed key=value run configuration."""

    instance: Path
    policies: list[str]
    T: int
    seeds: list[int]
    out: Path
    curve_stride: int = 1
    save_runs: bool = False
    save_traces: bool = False
    policy_params: dict[str, dict] = field(default_factory=dict)


CONFIG_KEYS = (
    "instance", "policies", "T", "seeds", "base_seed", "out",
    "curve_stride", "save_runs", "save_traces",
)


def _distinct(path, key, items):
    dup = next((x for i, x in enumerate(items) if x in items[:i]), None)
    if dup is not None:
        raise InputError(f"{path}: {key} lists {dup!r} twice")


def parse_config(path) -> ExperimentConfig:
    """Plain-text config: one key=value per line, '#' comments allowed.

    ``seeds`` is either a count (seeds are then base_seed..base_seed+k-1)
    or an explicit comma list.  Per-policy overrides use dotted keys, e.g.
    ``smile.S=6``.  An unknown key, a key given twice, a value that is not a
    number where one is needed, a policy parameter out of its range (see
    ``policies.smile.check_params``), or a policy or seed listed twice is an
    ``InputError``.
    """
    from .policies import POLICIES

    kv: dict[str, str] = {}
    policy_params: dict[str, dict] = {}
    seen: set[str] = set()
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise InputError(f"{path}:{i}: key {key!r} given twice")
        seen.add(key)
        if "." in key:
            pol, param = key.split(".", 1)
            if pol not in POLICIES:
                raise InputError(f"{path}:{i}: unknown policy {pol!r} in override")
            types = POLICIES[pol].param_types
            if param not in types:
                raise InputError(f"{path}:{i}: policy {pol!r} takes no parameter {param!r}")
            policy_params.setdefault(pol, {})[param] = parse_number(path, key, value, types[param])
        elif key in CONFIG_KEYS:
            kv[key] = value
        else:
            raise InputError(f"{path}:{i}: unknown key {key!r}")

    def need(key):
        if key not in kv:
            raise InputError(f"{path}: missing required key {key!r}")
        return kv[key]

    policies = [p.strip() for p in need("policies").split(",") if p.strip()]
    _distinct(path, "policies", policies)
    if not policies:
        raise InputError(f"{path}: at least one policy required")
    for p in policies:
        if p not in POLICIES:
            raise InputError(f"{path}: unknown policy {p!r}")
    T = parse_number(path, "T", need("T"))
    base_seed = parse_number(path, "base_seed", kv.get("base_seed", "0"))
    seeds_raw = need("seeds")
    if "," in seeds_raw:
        seeds = [parse_number(path, "seeds", s) for s in seeds_raw.split(",") if s.strip()]
        _distinct(path, "seeds", seeds)
    else:
        count = parse_number(path, "seeds", seeds_raw)
        if count < 1:
            raise InputError(f"{path}: seeds count must be >= 1")
        seeds = [base_seed + i for i in range(count)]
    if not seeds:
        raise InputError(f"{path}: seeds must be nonempty")
    for pol, params in policy_params.items():
        try:
            POLICIES[pol](**params)  # the constructor rejects an out-of-range value
        except InputError as e:
            raise InputError(f"{path}: {e}") from None
    return ExperimentConfig(
        instance=Path(need("instance")),
        policies=policies,
        T=T,
        seeds=seeds,
        out=Path(kv.get("out", "runs/out")),
        curve_stride=parse_number(path, "curve_stride", kv.get("curve_stride", "1")),
        save_runs=kv.get("save_runs", "0") not in ("0", "false", ""),
        save_traces=kv.get("save_traces", "0") not in ("0", "false", ""),
        policy_params=policy_params,
    )


# ---------------------------------------------------------------- run


def cmd_run(config: ExperimentConfig) -> int:
    """Run every policy on every seed and write the run directory.

    The (policy, seed) jobs go to ``runner.run_jobs``: forked workers, one
    per usable CPU, whose records come back in job order, so every output,
    the dominance check and the first error raised are the same whatever
    the number of CPUs.  Each worker holds one run at a time and the parent
    only the runs' ``RunRecord``s; summed over the processes, memory is one
    run per worker.  M*_T of a seed is solved in the worker of the first
    policy's job for it (the arrivals of a seed are the same under every
    policy), and every run is checked against it as its record arrives.  A
    failed check stops the runner, so no job starts after it.

    The parent imports every module a job runs before the pool forks, so
    the workers share its copy and load nothing themselves.  That includes
    ``numpy.random``, which the engine's random streams use: it imports
    ``secrets`` and with it ``hashlib`` and OpenSSL, and a worker that
    imported it after the fork would hold several MB of its own
    (libcrypto's pages and the heap its start-up fills).  It is loaded
    here, not at the top of ``rng``, so ``cover``, which loads ``rng``
    through ``analysis``, loads OpenSSL only when it shuffles.
    """
    import numpy.random  # noqa: F401  (loaded once, before the workers fork)

    from . import omniscient, protocol  # noqa: F401
    from .core import build_matching_graph, read_instance
    from .runner import run_jobs

    prefs = read_instance(config.instance)
    n = prefs.n
    if config.T < 1:
        raise InputError("T must be >= 1")
    if config.T > 4 * n * n:
        raise InputError(f"T={config.T} exceeds the 4 n^2 = {4 * n * n} sanity cap")
    mg = build_matching_graph(prefs)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)

    if config.save_traces:
        (out / "traces").mkdir(exist_ok=True)

    jobs = [(pol_name, seed) for pol_name in config.policies for seed in config.seeds]
    results: dict[str, list[RunRecord]] = {p: [] for p in config.policies}
    mstar: dict[int, int] = {}
    with run_jobs(_run_one, jobs, _start_worker, (config, prefs, mg)) as records:
        for (pol_name, seed), (rec, seed_mstar) in zip(jobs, records):
            if seed_mstar is not None:
                mstar[seed] = seed_mstar
            if rec.matches > mstar[seed]:
                raise InternalCheckError(
                    f"dominance violated: {pol_name} seed {seed} uncovered "
                    f"{rec.matches} > M*_T = {mstar[seed]}"
                )
            results[pol_name].append(rec)

    from .analysis import cluster_bound  # no job runs it, so it is loaded after the pool

    bounds: dict[int, tuple[int, int]] = {}  # S' -> the girl and the boy side's cluster_bound
    for pol_records in results.values():
        for rec in pol_records:
            s_prime = rec.diagnostics.get("S_prime")
            if "c_g" in rec.diagnostics and s_prime and s_prime not in bounds:
                bounds[s_prime] = (
                    cluster_bound(prefs, "girl", s_prime),
                    cluster_bound(prefs, "boy", s_prime),
                )

    write_manifest(out / "manifest.txt", config, prefs, mg)
    write_curves(out / "curves.csv", config, results)
    write_auc(out / "auc.csv", config, results)
    write_yardstick(out / "yardstick.csv", config, results, mstar)
    write_stats(out / "stats.csv", config, results, bounds)
    if config.save_runs or len(jobs) <= 4:
        rdir = out / "runs"
        rdir.mkdir(exist_ok=True)
        for pol_name, pol_records in results.items():
            for rec in pol_records:
                write_run_csv(rdir / f"{pol_name}-{rec.seed}.csv", rec, config.curve_stride)
    print(f"wrote {out}")
    return 0


_worker_state = None  # (config, prefs, mg) in a run's worker processes


def _start_worker(config, prefs, mg) -> None:
    global _worker_state
    _worker_state = config, prefs, mg


def _run_one(job) -> tuple[RunRecord, int | None]:
    """One (policy, seed) job in a worker: the run, its trace saved if
    asked, reduced to its record; with M*_T of the seed if the policy is
    the first one.

    The run and its policy are released before the flow is solved, so a
    worker holds one run at a time.  The names are looked up in the
    worker, after the fork, so a patch of ``matchlab.protocol`` or
    ``matchlab.omniscient`` made before ``cmd_run`` reaches them.
    """
    from .omniscient import arrival_counts, optimal_matches
    from .policies import make_policy
    from .protocol import run_protocol

    config, prefs, mg = _worker_state
    pol_name, seed = job
    policy = make_policy(pol_name, **config.policy_params.get(pol_name, {}))
    run = run_protocol(prefs, policy, config.T, seed, config.curve_stride)
    if config.save_traces:
        write_trace(config.out / "traces" / f"{pol_name}-{seed}.trace.csv", run.trace)
    counts = arrival_counts(run.trace) if pol_name == config.policies[0] else None
    led = run.ledger
    rec = RunRecord(seed, run.T, led.curve, led.auc_sum, led.matches, policy.diagnostics())
    del run, led, policy
    return rec, None if counts is None else optimal_matches(mg, counts)


# ---------------------------------------------------------------- other commands


def cmd_gen(args) -> int:
    from .core import write_instance
    from .datagen import (
        ClusteredSpec, gen_adversarial_random, gen_block_lowerbound, gen_clustered, gen_random_bipartite,
    )

    seed = args.seed
    if args.kind == "clustered":
        spec = ClusteredSpec(
            n=args.n,
            c_b=args.c_b,
            c_g=args.c_g,
            p_like=args.p_like,
            flip=args.flip,
            seed=seed,
            balanced=not args.uniform_partition,
            pair_level_coins=args.pair_coins,
        )
        prefs = gen_clustered(spec)
        desc = (
            f"gen kind=clustered n={args.n} c_b={args.c_b} c_g={args.c_g} "
            f"p_like={args.p_like} flip={spec.resolved_flip:.6f} "
            f"balanced={int(spec.balanced)} pair_coins={int(spec.pair_level_coins)} seed={seed}"
        )
    elif args.kind == "adversarial":
        prefs = gen_adversarial_random(args.n, args.m, seed)
        desc = f"gen kind=adversarial n={args.n} m={args.m} seed={seed}"
    elif args.kind == "block":
        prefs = gen_block_lowerbound(args.n, args.d, args.m, seed)
        desc = f"gen kind=block n={args.n} d={args.d} m={args.m} seed={seed}"
    else:
        _, prefs = gen_random_bipartite(args.n, args.p, seed)
        desc = f"gen kind=bipartite n={args.n} p={args.p} seed={seed}"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_instance(prefs, out)
    Path(str(out) + ".manifest").write_text(desc + "\n")
    print(desc)
    return 0


def cmd_cover(args) -> int:
    from .analysis import boy_side_covering, girl_side_covering, table_radii
    from .core import read_instance

    prefs = read_instance(args.instance)
    if args.radii:
        radii = [parse_number("cover", "--radii", r) for r in args.radii.split(",")]
    else:
        radii = table_radii(prefs.n)
    lines = ["radius,boys_cover,girls_cover"]
    for rho in radii:
        cb = boy_side_covering(prefs, rho, shuffle_seed=args.seed).size
        cg = girl_side_covering(prefs, rho, shuffle_seed=args.seed).size
        lines.append(f"{rho},{cb},{cg}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_yardstick(args) -> int:
    from .core import build_matching_graph, delta_overload, read_instance
    from .omniscient import arrival_counts, optimal_matches

    prefs = read_instance(args.instance)
    trace = read_trace(args.trace)
    check_trace(trace, prefs, args.trace)
    mg = build_matching_graph(prefs)
    counts = arrival_counts(trace)
    mstar = optimal_matches(mg, counts)
    delta = delta_overload(mg, counts.T)
    print(f"M*_T={mstar}")
    print(f"delta={float(delta):.6f}")
    return 0


def cmd_ingest(args) -> int:
    from .core import write_instance
    from .ingest import binarize, densify, parse_ratings

    raw = parse_ratings(args.ratings, args.genders)
    if not raw.triples:
        raise InputError("no usable cross-gender ratings found")
    prefs, report = densify(binarize(raw), args.coeff, args.count_mode)
    write_instance(prefs, args.out)
    lines = [
        f"coefficient={report.coefficient}",
        f"count_mode={report.count_mode}",
        f"removals={len(report.removals)}",
        f"final_boys={report.final_boys}",
        f"final_girls={report.final_girls}",
        f"likes={report.like_count}",
        f"matches={report.match_count}",
        f"phantoms={report.phantoms}",
        f"n={report.n}",
    ]
    lines += [f"removed={uid},{gender},{cnt}" for uid, gender, cnt in report.removals]
    Path(args.report).write_text("\n".join(lines) + "\n")
    print(f"ingested: |B|={report.final_boys} |G|={report.final_girls} likes={report.like_count}")
    return 0


def cmd_report(args) -> int:
    rd = Path(args.run_dir)
    for name in ("manifest.txt", "auc.csv", "yardstick.csv", "stats.csv"):
        if not (rd / name).exists():
            raise InputError(f"missing run artifact: {rd / name}")
    manifest = read_manifest(rd / "manifest.txt")
    policies, seeds = manifest["policies"].split(","), manifest["seeds"].split(",")
    total_matches = parse_number(rd / "manifest.txt", "matches", manifest.get("matches", "0"))
    metrics = read_auc(rd / "auc.csv", policies)
    mstars = read_yardstick(rd / "yardstick.csv", policies, seeds)
    stats = read_stats(rd / "stats.csv", policies, seeds)

    lines = [
        f"run {rd}: instance {manifest.get('instance')} n={manifest.get('n')} "
        f"M={total_matches} T={manifest.get('T')} seeds={manifest.get('seeds')}",
        f"mean M*_T over seeds: {sum(mstars) / len(mstars):.1f}",
    ]
    for i, pol in enumerate(policies):
        final = metrics["final_mean"][i]
        auc = metrics["auc_mean"][i]
        frac = final / total_matches if total_matches else float("nan")
        lines.append(f"  {pol}: final={final:.1f} ({frac:.1%} of M) auc={auc:.1f}")
    for pol, seed, final, auc, c_g, c_b, bound_ok in stats:
        if c_g:
            lines.append(f"  {pol} seed {seed}: C^G={c_g} C^B={c_b} representative bound: {BOUND_STATUS[bound_ok]}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matchlab", description=__doc__)
    ap.add_argument("--version", action="version", version=f"matchlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("kind", choices=["clustered", "adversarial", "block", "bipartite"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--c-b", type=int, default=10)
    g.add_argument("--c-g", type=int, default=10)
    g.add_argument("--p-like", type=float, default=0.2)
    g.add_argument("--flip", type=float, default=None)
    g.add_argument("--uniform-partition", action="store_true")
    g.add_argument("--pair-coins", action="store_true")
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--d", type=int, default=1)
    g.add_argument("--p", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    c = sub.add_parser("cover", help="greedy covering sizes per radius")
    c.add_argument("instance")
    c.add_argument("--radii", default=None, help="comma list; default 2n/ln n, n/ln n, n/(2 ln n)")
    c.add_argument("--seed", type=int, default=None, help="shuffle column order")
    c.add_argument("--out", default=None)

    r = sub.add_parser("run", help="run a policy comparison from a config file")
    r.add_argument("config")
    r.add_argument("--out", default=None, help="override the config's output directory")

    y = sub.add_parser("yardstick", help="trace-optimal matches for a saved trace")
    y.add_argument("instance")
    y.add_argument("trace")

    i = sub.add_parser("ingest", help="binarize + densify a ratings dataset")
    i.add_argument("--ratings", required=True)
    i.add_argument("--genders", required=True)
    i.add_argument("--coeff", type=float, default=2.0)
    i.add_argument("--count-mode", choices=["both", "given", "received"], default="both")
    i.add_argument("--out", required=True)
    i.add_argument("--report", required=True)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run_dir")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "cover":
            return cmd_cover(args)
        if args.command == "run":
            config = parse_config(args.config)
            if args.out:
                config.out = Path(args.out)
            return cmd_run(config)
        if args.command == "yardstick":
            return cmd_yardstick(args)
        if args.command == "ingest":
            return cmd_ingest(args)
        if args.command == "report":
            return cmd_report(args)
        raise InputError(f"unknown command {args.command!r}")
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 3
    except MatchlabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a missing or unreadable file, or a directory in its place
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
