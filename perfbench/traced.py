"""Traced run: the layers behind a workload, called in-process through
matchlab's public Python functions, with spans and counters at each call.

Coarse calls (generators, conversions, instance I/O, the yardstick,
coverings, trace I/O) each get a span.  Per-round calls (a policy's select
and observe) are too many for spans; their time and count accumulate in
counters instead.  Every policy runs twice, once bare for ``us_per_round``
and once with those counters, and the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

import checks

POLICY_NAMES = ("uromm", "oomm", "smile", "ismile")
RADIUS_NAMES = ("2n_over_ln", "n_over_ln", "n_over_2ln")
IMPORT_REPEATS = 3


class Tracer:
    def __init__(self, spans):
        self.spans = spans
        self.stack: list[int] = []
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        t0 = time.perf_counter()
        sid = self.spans.add(name, t0, t0, self.stack[-1] if self.stack else None, **attrs)
        self.stack.append(sid)
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.items[sid]["end_s"] = t1 - self.spans.t0
            self.busy[name] += t1 - t0
            self.calls[name] += 1

    def wrap(self, name, fn, name_of=None):
        """fn with a span around every call; ``name_of(args)`` may refine the name."""

        def traced(*args, **kw):
            with self.span(name_of(args) if name_of else name):
                return fn(*args, **kw)

        return traced


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class RssPeak:
    """Highest resident set size seen while the block runs, polled every 5 ms."""

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def _poll(self):
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())

    @property
    def growth_mb(self) -> float:
        return (self.peak - self.base) / 2**20


class NullPolicy:
    """Costs nothing per call, so a run under it times the engine alone."""

    name = "null"

    def start(self, n, T, rng):
        self.n = n

    def select_for_boy(self, b, t):
        return t % self.n

    def select_for_girl(self, g, t):
        return t % self.n

    def observe_boy_feedback(self, b, g, sign, t):
        pass

    def observe_girl_feedback(self, g, b, sign, t):
        pass


def _count_calls(policy, names):
    """Replace the policy's methods by timers; returns {name: [seconds, calls]}."""
    acc = {name: [0.0, 0] for name in names}
    clock = time.perf_counter
    for name in names:
        fn = getattr(policy, name)
        slot = acc[name]

        def timed(*args, fn=fn, slot=slot):
            t0 = clock()
            out = fn(*args)
            slot[0] += clock() - t0
            slot[1] += 1
            return out

        setattr(policy, name, timed)
    return acc


def _import_seconds(src: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import matchlab.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_matchlab(src: Path) -> None:
    sys.path.insert(0, str(src))
    import matchlab

    where = Path(matchlab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"imported matchlab from {where}, not from {src}")


def _arrays(trace) -> list[np.ndarray]:
    return [getattr(trace, f.name) for f in dataclasses.fields(trace)]


def run_traced(wl: dict, seed: int, work: Path, tally, spans, src: Path):
    m = {}
    m["cli.import_s"] = (_import_seconds(src), "s")
    _import_matchlab(src)
    from matchlab import analysis, cli, core, datagen, omniscient, protocol, rng
    from matchlab.policies import make_policy
    from matchlab.policies import smile as smile_module

    tr = Tracer(spans)
    n, T = wl["n"], wl["T"]
    stride = max(1, T // 200)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(core.PreferenceMatrices, "to_bool_arrays", tr.wrap(
            "core.to_bool_arrays", core.PreferenceMatrices.to_bool_arrays)))
        stack.enter_context(mock.patch.object(analysis, "greedy_covering", tr.wrap(
            "analysis.greedy_covering", analysis.greedy_covering,
            lambda a: f"analysis.greedy_covering@{a[1]}")))
        stack.enter_context(mock.patch.object(smile_module, "build_matching_index", tr.wrap(
            "policies.smile.build_index", smile_module.build_matching_index)))

        # -- datagen and core: set-up of the instance
        with tr.span("datagen.gen_clustered"):
            clustered = datagen.gen_clustered(datagen.ClusteredSpec(n=n, c_b=20, c_g=22, seed=seed))
        with tr.span("datagen.gen_adversarial"):
            adversarial = datagen.gen_adversarial_random(n, 10 * n, seed)
        prefs = clustered if wl["gen"][0] == "clustered" else adversarial
        inst = work / "instance.txt"
        with tr.span("core.write_instance"):
            core.write_instance(prefs, inst)
        with tr.span("core.read_instance"):
            tally.check("read_instance(write_instance(x)) = x", core.read_instance(inst) == prefs)
        boys, girls = checks.read_instance(inst)
        mutual = checks.mutual(boys, girls)
        with tr.span("core.from_bool_arrays"):
            tally.check("from_bool_arrays(numpy parse) = generated instance",
                        core.PreferenceMatrices.from_bool_arrays(boys, girls) == prefs)
        with tr.span("core.build_matching_graph"):
            mg = core.build_matching_graph(prefs)
        tally.check("matching graph M = numpy mutual-like count", mg.match_count == int(mutual.sum()))
        if prefs is adversarial:
            tally.check("adversarial instance has exactly 10 n mutual likes", int(mutual.sum()) == 10 * n)

        # -- rng and protocol: arrivals and the engine floor
        with tr.span("rng.draw_arrivals"):
            rng.draw_arrivals(n, T, seed)
        with RssPeak() as rss, tr.span("protocol.run_protocol", policy="null"):
            t0 = time.perf_counter()
            null_run = protocol.run_protocol(prefs, NullPolicy(), T, seed, stride)
            floor_s = time.perf_counter() - t0
        m["protocol.floor_us_per_round"] = (floor_s / T * 1e6, "us")
        m["protocol.rounds"] = (T, "count")
        m["protocol.run_rss_growth_mb"] = (rss.growth_mb, "MB")
        m["protocol.trace_bytes"] = (sum(a.nbytes for a in _arrays(null_run.trace)), "B")

        # -- omniscient: the yardstick on the shared arrival sequence
        b_arr = null_run.trace.boy_arrivals
        g_arr = null_run.trace.girl_arrivals
        with tr.span("omniscient.arrival_counts"):
            counts = omniscient.arrival_counts(null_run.trace)
        with tr.span("omniscient.optimal_matches"):
            mstar = omniscient.optimal_matches(mg, counts)
        m["omniscient.unit_arcs"] = (len(omniscient.build_flow_network(mg, counts).unit_arcs), "count")
        tally.check("optimal_matches = scipy max flow",
                    mstar == checks.max_flow_optimum(mutual, *checks.arrival_counts(n, b_arr, g_arr)))

        # -- policies: each run bare, then with select/observe counters
        bare_s = traced_s = 0.0
        methods = ("start", "select_for_boy", "select_for_girl",
                   "observe_boy_feedback", "observe_girl_feedback")
        diagnostics = {}
        first_trace = None
        for pname in POLICY_NAMES:
            t0 = time.perf_counter()
            bare = protocol.run_protocol(prefs, make_policy(pname), T, seed, stride)
            bare_dt = time.perf_counter() - t0
            policy = make_policy(pname)
            acc = _count_calls(policy, methods)
            with tr.span("protocol.run_protocol", policy=pname):
                t0 = time.perf_counter()
                run = protocol.run_protocol(prefs, policy, T, seed, stride)
                traced_dt = time.perf_counter() - t0
            bare_s += bare_dt
            traced_s += traced_dt
            diagnostics[pname] = policy.diagnostics()
            if first_trace is None:
                first_trace = run.trace
            t = run.trace
            cols = (t.boy_arrivals, t.girls_selected, t.girl_arrivals, t.boys_selected)
            tally.check(f"{pname}: counted run = bare run",
                        run.ledger.matches == bare.ledger.matches
                        and all(map(np.array_equal, _arrays(t), _arrays(bare.trace))))
            tally.check(f"{pname}: trace signs = instance signs", checks.signs_match(
                boys, girls, t.boy_arrivals, t.girls_selected, t.signs_bg,
                t.girl_arrivals, t.boys_selected, t.signs_gb))
            tally.check(f"{pname}: numpy replay = final matches",
                        checks.replay_matches(boys, girls, *cols) == run.ledger.matches)
            tally.check(f"{pname}: arrivals are the shared ones",
                        np.array_equal(t.boy_arrivals, b_arr) and np.array_equal(t.girl_arrivals, g_arr))
            tally.check(f"{pname}: final matches <= M*_T", run.ledger.matches <= mstar)
            obs_bg, obs_gb = checks.observed(n, *cols)
            key = f"policies.{pname}"
            m[f"{key}.us_per_round"] = (bare_dt / T * 1e6, "us")
            m[f"{key}.select_us_per_round"] = (
                (acc["select_for_boy"][0] + acc["select_for_girl"][0]) / T * 1e6, "us")
            m[f"{key}.observe_us_per_round"] = (
                (acc["observe_boy_feedback"][0] + acc["observe_girl_feedback"][0]) / T * 1e6, "us")
            m[f"{key}.new_edge_ratio"] = (
                int(obs_bg.sum() + obs_gb.sum()) / (2 * T), "ratio")
            if pname == "ismile":
                m["policies.ismile.start_s"] = (acc["start"][0], "s")
        if not tr.calls["policies.smile.build_index"]:
            # smile is still clustering at T here (at n = 1000 its phase I
            # alone needs several times T = 50 n rounds), so its index build
            # is timed on the paper's n = 400 instance, where it comes early.
            probe = datagen.gen_clustered(datagen.ClusteredSpec(n=400, c_b=20, c_g=22, seed=seed))
            protocol.run_protocol(probe, make_policy("smile"), 2 * 400 * 400, seed, 400 * 400)
            tally.check("smile builds its index on the n = 400 instance",
                        tr.calls["policies.smile.build_index"] == 1)
        m["policies.smile.build_index_s"] = (tr.busy["policies.smile.build_index"], "s")
        m["policies.smile.phase0_rounds"] = (diagnostics["smile"]["phase0_rounds"], "count")
        m["policies.ismile.clusters"] = (
            diagnostics["ismile"]["c_g"] + diagnostics["ismile"]["c_b"], "count")
        m["bench.trace_overhead_pct"] = ((traced_s - bare_s) / bare_s * 100, "%")
        m["omniscient.arrival_counts_s"] = (tr.busy["omniscient.arrival_counts"], "s")
        m["omniscient.optimal_matches_s"] = (tr.busy["omniscient.optimal_matches"], "s")

        # -- analysis: the representative-count bound behind stats.csv, and
        #    the coverings `matchlab cover` computes
        s_prime = diagnostics["ismile"]["S_prime"]
        coverings_before = sum(v for k, v in tr.calls.items() if k.startswith("analysis.greedy_covering"))
        with tr.span("analysis.cluster_bound"):
            analysis.cluster_bound(prefs, "girl", s_prime)
            analysis.cluster_bound(prefs, "boy", s_prime)
        m["analysis.cluster_bound_s"] = (tr.busy["analysis.cluster_bound"], "s")
        m["analysis.cluster_bound_coverings"] = (
            sum(v for k, v in tr.calls.items() if k.startswith("analysis.greedy_covering"))
            - coverings_before, "count")
        radii = checks.table_radii(n)
        rows = []
        for rname, rho in zip(RADIUS_NAMES, radii):
            before = tr.busy[f"analysis.greedy_covering@{rho}"]
            with tr.span("analysis.cover", radius=rho):
                rows.append([str(rho),
                             str(analysis.boy_side_covering(prefs, rho, shuffle_seed=seed).size),
                             str(analysis.girl_side_covering(prefs, rho, shuffle_seed=seed).size)])
            m[f"analysis.greedy_covering_{rname}_s"] = (
                tr.busy[f"analysis.greedy_covering@{rho}"] - before, "s")
        tally.check("coverings monotone, within [packing bound, n]",
                    checks.cover_problems(rows, n, checks.cover_bounds(boys, girls)))

        # -- cli: trace files as `run` writes them and `yardstick` reads them
        path = work / "run.trace.csv"
        with tr.span("cli.write_trace"):
            cli.write_trace(path, first_trace)
        with tr.span("cli.read_trace"):
            back = cli.read_trace(path)
        tally.check("read_trace(write_trace(x)) = x",
                    all(map(np.array_equal, _arrays(back), _arrays(first_trace))))
        m["cli.write_trace_s"] = (tr.busy["cli.write_trace"], "s")
        m["cli.read_trace_s"] = (tr.busy["cli.read_trace"], "s")
        m["cli.trace_bytes"] = (path.stat().st_size, "B")

    for layer in ("datagen.gen_clustered", "datagen.gen_adversarial", "core.from_bool_arrays",
                  "core.write_instance", "core.read_instance", "core.build_matching_graph",
                  "core.to_bool_arrays", "rng.draw_arrivals"):
        m[f"{layer}_s"] = (tr.busy[layer], "s")
    m["core.to_bool_arrays_calls"] = (tr.calls["core.to_bool_arrays"], "count")
    details = {"diagnostics": diagnostics, "M": int(mutual.sum()), "M*_T": mstar, "cover": rows}
    return m, details
