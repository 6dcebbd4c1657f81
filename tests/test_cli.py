import math
from pathlib import Path

import pytest

from matchlab import make_policy, read_instance, run_protocol
from matchlab.cli import main, parse_config, read_trace, write_trace
from matchlab.errors import InputError


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_and_load(tmp_path):
    out = tmp_path / "inst.txt"
    rc = run_cli("gen", "clustered", "--n", 30, "--c-b", 3, "--c-g", 3, "--seed", 5, "--out", out)
    assert rc == 0
    prefs = read_instance(out)
    assert prefs.n == 30
    manifest = (out.parent / "inst.txt.manifest").read_text()
    assert "kind=clustered" in manifest and "seed=5" in manifest


def test_gen_adversarial_and_cover(tmp_path, capsys):
    out = tmp_path / "adv.txt"
    assert run_cli("gen", "adversarial", "--n", 40, "--m", 100, "--seed", 1, "--out", out) == 0
    cover_csv = tmp_path / "cover.csv"
    assert run_cli("cover", out, "--radii", "0,5,20", "--out", cover_csv) == 0
    lines = cover_csv.read_text().splitlines()
    assert lines[0] == "radius,boys_cover,girls_cover"
    assert len(lines) == 4
    sizes = [tuple(map(int, l.split(","))) for l in lines[1:]]
    assert sizes[0][1] >= sizes[1][1] >= sizes[2][1]


def write_config(path, **kv):
    lines = [f"{k}={v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_run_single_policy_single_seed(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 20, "--m", 60, "--seed", 2, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="oomm", T=200, seeds=1, out=tmp_path / "out")
    assert run_cli("run", cfg) == 0
    out = tmp_path / "out"
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "t,oomm"
    assert len(curves) == 201
    # AUC in the table equals the protocol-level computation
    auc_row = [l for l in (out / "auc.csv").read_text().splitlines() if l.startswith("auc_mean")][0]
    reported = float(auc_row.split(",")[1])
    r = run_protocol(read_instance(inst), make_policy("oomm"), 200, seed=0)
    assert math.isclose(reported, r.ledger.auc_sum / r.T, abs_tol=1e-6)
    # single run also lands as a t,matches CSV
    run_csv = (out / "runs" / "oomm-0.csv").read_text().splitlines()
    assert run_csv[0] == "t,matches"
    assert int(run_csv[-1].split(",")[1]) == r.ledger.matches


def test_run_rerun_byte_identical(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 24, "--c-b", 3, "--c-g", 3, "--seed", 3, "--out", inst)
    cfg = write_config(
        tmp_path / "cfg",
        instance=inst,
        policies="uromm,oomm",
        T=150,
        seeds=3,
        out=tmp_path / "out1",
        **{"smile.S": 3},
    )
    assert run_cli("run", cfg) == 0
    assert run_cli("run", cfg, "--out", tmp_path / "out2") == 0
    for name in ("curves.csv", "auc.csv", "yardstick.csv", "stats.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_run_rejects_unknown_policy(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="romm", T=10, seeds=1, out=tmp_path / "o")
    assert run_cli("run", cfg) == 2


def test_run_rejects_bad_T(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="oomm", T=0, seeds=1, out=tmp_path / "o")
    assert run_cli("run", cfg) == 2
    cfg2 = write_config(tmp_path / "cfg2", instance=inst, policies="oomm", T=100000, seeds=1, out=tmp_path / "o")
    assert run_cli("run", cfg2) == 2  # beyond the 4 n^2 sanity cap


def test_policy_param_override_applied(tmp_path):
    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 40, "--c-b", 2, "--c-g", 2, "--flip", 0.0, "--seed", 1, "--out", inst)
    cfg = write_config(
        tmp_path / "cfg",
        instance=inst,
        policies="smile",
        T=400,
        seeds=1,
        out=tmp_path / "out",
        **{"smile.S": 4},
    )
    assert run_cli("run", cfg) == 0
    stats = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    assert stats[0] == "policy,seed,final_matches,auc,c_g,c_b,bound_ok"
    assert stats[1].startswith("smile,0,")
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "smile.S=4" in manifest


def test_trace_roundtrip_and_yardstick(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 15, "--m", 40, "--seed", 4, "--out", inst)
    prefs = read_instance(inst)
    r = run_protocol(prefs, make_policy("oomm"), 120, seed=9)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, r.trace)
    tr = r.trace
    fields = (tr.boy_arrivals, tr.girls_selected, tr.signs_bg, tr.girl_arrivals, tr.boys_selected, tr.signs_gb)
    expected = ["t,boy_arrival,girl_selected,sign_bg,girl_arrival,boy_selected,sign_gb"]
    expected += [",".join(str(int(v)) for v in (t, *row)) for t, row in enumerate(zip(*fields), start=1)]
    assert tpath.read_text() == "\n".join(expected) + "\n"
    back = read_trace(tpath)
    for name in ("boy_arrivals", "girls_selected", "signs_bg", "girl_arrivals", "boys_selected", "signs_gb"):
        assert getattr(back, name).dtype == getattr(tr, name).dtype
        assert (getattr(back, name) == getattr(tr, name)).all()
    again = tmp_path / "again.trace.csv"
    write_trace(again, back)
    assert again.read_bytes() == tpath.read_bytes()
    capsys.readouterr()
    assert run_cli("yardstick", inst, tpath) == 0
    out = capsys.readouterr().out
    assert out.startswith("M*_T=")
    mstar = int(out.splitlines()[0].split("=")[1])
    assert mstar >= r.ledger.matches


def test_report_missing_dir_errors(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run_cli("report", empty) == 2
    err = capsys.readouterr().err
    assert "manifest.txt" in err


def test_report_summarizes_run(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 40, "--c-b", 2, "--c-g", 2, "--flip", 0.0, "--seed", 1, "--out", inst)
    cfg = write_config(
        tmp_path / "cfg",
        instance=inst,
        policies="oomm,smile",
        T=500,
        seeds=2,
        out=tmp_path / "out",
        **{"smile.S": 4},
    )
    assert run_cli("run", cfg) == 0
    capsys.readouterr()
    assert run_cli("report", tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert "mean M*_T" in out
    assert "oomm:" in out and "smile:" in out
    assert "C^G=" in out  # cluster counts reported for the clustering policy


def test_ingest_cli(tmp_path):
    genders = tmp_path / "g.csv"
    ratings = tmp_path / "r.csv"
    glines = [f"{i},M" for i in range(1, 7)] + [f"{i},F" for i in range(101, 107)]
    rlines = []
    for b in range(1, 7):
        for g in range(101, 107):
            rlines.append(f"{b},{g},9")
            rlines.append(f"{g},{b},9")
    genders.write_text("\n".join(glines) + "\n")
    ratings.write_text("\n".join(rlines) + "\n")
    out = tmp_path / "inst.txt"
    report = tmp_path / "report.txt"
    rc = run_cli(
        "ingest", "--ratings", ratings, "--genders", genders, "--coeff", 2.0,
        "--out", out, "--report", report,
    )
    assert rc == 0
    prefs = read_instance(out)
    assert prefs.n == 6
    assert "likes=72" in report.read_text()


def test_internal_check_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    import matchlab.cli as cli
    from matchlab.errors import InternalCheckError

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="oomm", T=10, seeds=1, out=tmp_path / "o")

    def boom(config):
        raise InternalCheckError("dominance violated (simulated)")

    monkeypatch.setattr(cli, "cmd_run", boom)
    assert cli.main(["run", str(cfg)]) == 3
    assert "internal check failed" in capsys.readouterr().err


def test_dominance_violation_in_run_exits_3(tmp_path, monkeypatch, capsys):
    # the real check inside cmd_run, not a stand-in: with M*_T forced to 0
    # the first run that uncovers a match must stop the command
    import multiprocessing

    import matchlab.cli as cli
    import matchlab.omniscient

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=200, seeds=2, out=out)
    # the worker imports optimal_matches after the fork, so it gets this stand-in
    monkeypatch.setattr(matchlab.omniscient, "optimal_matches", lambda mg, counts: 0)
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "dominance violated: uromm seed 0" in err and err.count("\n") == 1
    assert not (out / "curves.csv").exists()
    assert not multiprocessing.active_children()  # the workers are reaped on the way out


def test_run_starts_no_job_after_an_error(tmp_path, monkeypatch, capsys):
    # the first job's record breaks the dominance check; the jobs the
    # executor had already queued for the workers must not start a run.
    # Each run leaves a marker file; every run but the first sleeps, so the
    # other worker is still in its first job when the error arrives.
    import os
    import time

    import matchlab.cli as cli
    import matchlab.omniscient
    import matchlab.protocol

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=200, seeds=6,
                       out=tmp_path / "o")
    markers = tmp_path / "markers"
    markers.mkdir()

    def marking_run_protocol(prefs, policy, T, seed, *args):
        (markers / f"{policy.name}-{seed}").touch()
        if (policy.name, seed) != ("uromm", 0):
            time.sleep(0.3)
        return run_protocol(prefs, policy, T, seed, *args)

    monkeypatch.setattr(matchlab.omniscient, "optimal_matches", lambda mg, counts: 0)
    monkeypatch.setattr(matchlab.protocol, "run_protocol", marking_run_protocol)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers, twelve jobs
    assert cli.main(["run", str(cfg)]) == 3
    assert "dominance violated: uromm seed 0" in capsys.readouterr().err
    assert len(list(markers.iterdir())) <= 2 + 1  # the two first jobs and one taken in the race


def test_run_releases_each_run_before_the_next(tmp_path, monkeypatch):
    # a worker reduces a run as soon as it ends: no trace column or ledger of
    # an earlier run may still be alive when the worker's next run starts.
    # The check runs inside the workers, where a failed assertion fails the
    # command; each run leaves a marker file, named by its worker's pid and
    # the number of objects that worker has tracked, for the test to count.
    import dataclasses
    import os
    import weakref
    from collections import defaultdict

    import matchlab.cli as cli
    import matchlab.protocol

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=200, seeds=3,
                       out=out, save_traces=1)
    markers = tmp_path / "markers"
    markers.mkdir()
    refs = []  # each worker tracks into its own copy

    def tracking_run_protocol(*args, **kw):
        alive = [r for r in refs if r() is not None]
        assert not alive, f"{len(alive)} objects of an earlier run are alive"
        run = run_protocol(*args, **kw)
        refs.extend(weakref.ref(getattr(run.trace, f.name)) for f in dataclasses.fields(run.trace))
        refs.append(weakref.ref(run.ledger))
        (markers / f"{os.getpid()}-{len(refs)}").touch()
        return run

    monkeypatch.setattr(matchlab.protocol, "run_protocol", tracking_run_protocol)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers, six runs
    assert cli.main(["run", str(cfg)]) == 0
    tracked = defaultdict(list)
    for marker in markers.iterdir():
        pid, count = marker.name.split("-")
        tracked[pid].append(int(count))
    assert max(len(counts) for counts in tracked.values()) > 1  # a worker ran several runs
    for counts in tracked.values():
        assert sorted(counts) == [7 * k for k in range(1, len(counts) + 1)]  # 6 columns, 1 ledger
    assert sum(len(counts) for counts in tracked.values()) == 2 * 3
    assert len(list((out / "traces").iterdir())) == 6


def test_run_workers_load_no_module(tmp_path):
    # the parent imports what a job runs before the pool forks, so a worker
    # loads no module of its own: numpy.random, imported in a worker, would
    # bring hashlib and OpenSSL into each one.  A fresh interpreter runs the
    # command, so nothing else has loaded numpy.random there; each job
    # writes the modules it added to sys.modules.
    import json

    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 20, "--c-b", 3, "--c-g", 3, "--seed", 4, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm,smile,ismile",
                       T=800, seeds=2, out=tmp_path / "o", save_traces=1)
    added = tmp_path / "added"
    added.mkdir()
    code = (
        "import json, os, sys\n"
        "from pathlib import Path\n"
        "import matchlab.cli as cli\n"
        "run_one = cli._run_one\n"
        "def reporting_run_one(job):\n"
        "    before = set(sys.modules)\n"
        "    record = run_one(job)\n"
        "    new = sorted(set(sys.modules) - before)\n"
        "    (Path(sys.argv[2]) / '{}-{}'.format(*job)).write_text(json.dumps(new))\n"
        "    return record\n"
        "cli._run_one = reporting_run_one\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "sys.exit(cli.main(['run', sys.argv[1]]))\n"
    )
    done = _python(code, cfg, added, timeout=120)
    assert done.returncode == 0, done.stderr
    reports = {p.name: json.loads(p.read_text()) for p in added.iterdir()}
    assert len(reports) == 4 * 2
    assert reports == {job: [] for job in reports}


ALL = "uromm,oomm,smile,ismile"


def _run_files(out):
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_run_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # one worker per usable CPU, no more than there are jobs; every file the
    # run writes is the same with one worker and with four
    import os
    import shutil

    import matchlab.cli as cli

    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 30, "--c-b", 3, "--c-g", 3, "--seed", 4, "--out", inst)
    started = tmp_path / "started"
    start_worker = cli._start_worker

    def marking_start_worker(*args):
        (started / str(os.getpid())).touch()
        start_worker(*args)

    monkeypatch.setattr(cli, "_start_worker", marking_start_worker)
    files = {}
    for cpus, policies, seeds, workers in ((1, ALL, 3, 1), (4, ALL, 3, 4), (4, "uromm", 2, 2)):
        started.mkdir()
        out = tmp_path / f"o-{cpus}-{policies}"
        cfg = write_config(tmp_path / "cfg", instance=inst, policies=policies, T=900, seeds=seeds,
                           out=out, curve_stride=7, save_traces=1, save_runs=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert cli.main(["run", str(cfg)]) == 0
        assert len(list(started.iterdir())) == workers
        files[cpus, policies] = _run_files(out)
        shutil.rmtree(started)
    assert len(files[1, ALL]) == 5 + 12 + 12  # tables and manifest, runs, traces
    assert files[1, ALL] == files[4, ALL]


def test_run_leaves_no_worker_processes(tmp_path):
    import multiprocessing

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=100, seeds=3,
                       out=tmp_path / "o")
    assert run_cli("run", cfg) == 0
    assert not multiprocessing.active_children()


def test_trace_path_taken_by_a_directory_exits_2_with_one_line(tmp_path, capsys):
    # the worker's IsADirectoryError reaches main with its file name
    import multiprocessing

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=100, seeds=3,
                       out=out, save_traces=1)
    blocked = out / "traces" / "oomm-1.trace.csv"
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert run_cli("run", cfg) == 2
    assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"
    assert not (out / "curves.csv").exists()
    assert not multiprocessing.active_children()


def _python(code, *args, **kw):
    """Run ``code`` in a fresh interpreter that imports this checkout's matchlab."""
    import os
    import subprocess
    import sys

    import matchlab

    env = dict(os.environ, PYTHONPATH=str(Path(matchlab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, **kw)


def test_other_commands_do_not_import_the_pool(tmp_path):
    # only run pays for the process pool's import
    import json

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm", T=100, seeds=1,
                       out=out, save_traces=1)
    assert run_cli("run", cfg) == 0
    commands = [
        ["gen", "adversarial", "--n", "10", "--m", "20", "--out", str(tmp_path / "j.txt")],
        ["cover", str(inst)],
        ["report", str(out)],
        ["yardstick", str(inst), str(out / "traces" / "uromm-0.trace.csv")],
    ]
    code = (
        "import json, sys\n"
        "from matchlab.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    for pool in ('multiprocessing.pool', 'concurrent.futures.process'):\n"
        "        assert pool not in sys.modules, (argv, pool)\n"
    )
    done = _python(code, json.dumps(commands))
    assert done.returncode == 0, done.stderr


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Tiny inputs for every command: an instance, a run directory with a trace, ratings."""
    d = tmp_path_factory.mktemp("inputs")
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", d / "i.txt")
    cfg = write_config(d / "cfg", instance=d / "i.txt", policies="uromm,ismile", T=100, seeds=1,
                       out=d / "o", save_traces=1)
    assert run_cli("run", cfg) == 0
    (d / "g.csv").write_text("1,M\n2,M\n101,F\n102,F\n")
    (d / "r.csv").write_text("1,101,9\n101,1,9\n2,102,9\n102,2,9\n1,102,9\n")
    return d


ENGINE_AND_POLICIES = ("matchlab.protocol", "matchlab.policies")
COMMAND_LOADS = {  # command: (its arguments, modules it must not load)
    "gen": (["gen", "adversarial", "--n", "10", "--m", "20", "--out", "{d}/j.txt"],
            ("matchlab.analysis", *ENGINE_AND_POLICIES, "matchlab.omniscient", "matchlab.ingest")),
    "cover": (["cover", "{d}/i.txt"],
              (*ENGINE_AND_POLICIES, "matchlab.omniscient", "matchlab.datagen", "matchlab.ingest")),
    "run": (["run", "{d}/cfg", "--out", "{d}/o2"], ("matchlab.datagen", "matchlab.ingest")),
    "yardstick": (["yardstick", "{d}/i.txt", "{d}/o/traces/uromm-0.trace.csv"],
                  ("matchlab.analysis", "matchlab.policies", "matchlab.datagen", "matchlab.ingest",
                   "numpy.random", "hashlib")),  # no OpenSSL in analysis_peak_rss_mb
    "ingest": (["ingest", "--ratings", "{d}/r.csv", "--genders", "{d}/g.csv", "--coeff", "1",
                "--out", "{d}/k.txt", "--report", "{d}/k.report"],
               ("matchlab.analysis", *ENGINE_AND_POLICIES, "matchlab.omniscient", "matchlab.datagen")),
    "report": (["report", "{d}/o"], ("numpy",)),
}


@pytest.mark.parametrize("command", sorted(COMMAND_LOADS))
def test_command_loads_only_its_modules(command_inputs, command):
    # each command imports what it runs; report, the shortest, loads no numpy
    # and no matchlab module besides cli and errors
    import json

    argv, banned = COMMAND_LOADS[command]
    code = (
        "import json, sys\n"
        "from matchlab.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = _python(code, json.dumps([a.format(d=command_inputs) for a in argv]))
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert not {m for m in loaded for b in banned if m == b or m.startswith(b + ".")}
    if command == "report":
        assert {m for m in loaded if m.startswith("matchlab")} == {"matchlab", "matchlab.cli", "matchlab.errors"}


def test_import_matchlab_loads_no_submodule():
    # the public names load on first use; a submodule name still imports it
    code = (
        "import sys\n"
        "import matchlab\n"
        "assert sorted(m for m in sys.modules if m.startswith('matchlab')) == ['matchlab']\n"
        "assert 'numpy' not in sys.modules\n"
        "assert matchlab.gen_clustered.__module__ == 'matchlab.datagen'\n"
        "assert 'matchlab.analysis' not in sys.modules\n"
        "from matchlab import analysis, core\n"
        "assert analysis.greedy_covering is matchlab.greedy_covering\n"
        "assert not hasattr(matchlab, 'no_such_name')\n"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr


def test_a_worker_that_dies_exits_3_and_leaves_no_process(tmp_path):
    # a killed worker (a signal, the out-of-memory killer) breaks the pool:
    # run must neither wait forever nor leave a worker behind
    import os
    import signal
    import subprocess

    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,oomm", T=100, seeds=3, out=out)
    started = tmp_path / "started"
    started.mkdir()
    code = (
        "import multiprocessing, os, sys\n"
        "from pathlib import Path\n"
        "import matchlab.cli as cli\n"
        "run_one, start_worker = cli._run_one, cli._start_worker\n"
        "def dying_run_one(job):\n"
        "    if job == ('oomm', 1):\n"
        "        os._exit(9)\n"
        "    return run_one(job)\n"
        "def marking_start_worker(*args):\n"
        "    (Path(sys.argv[2]) / str(os.getpid())).touch()\n"
        "    start_worker(*args)\n"
        "cli._run_one, cli._start_worker = dying_run_one, marking_start_worker\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "rc = cli.main(['run', sys.argv[1]])\n"
        "assert not multiprocessing.active_children()\n"
        "for pid in map(int, os.listdir(sys.argv[2])):\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        continue\n"
        "    raise AssertionError(f'worker {pid} outlived the command')\n"
        "sys.exit(rc)\n"
    )
    try:
        done = _python(code, cfg, started, timeout=60, start_new_session=True)
    except subprocess.TimeoutExpired:
        for pid in map(int, os.listdir(started)):
            os.kill(pid, signal.SIGKILL)
        pytest.fail("run still waiting 60 s after a worker died")
    assert done.returncode == 3, done.stderr
    assert done.stderr == "internal check failed: a run worker died before its job finished\n"
    assert len(os.listdir(started)) == 2
    assert not (out / "curves.csv").exists()


def test_parse_error_survives_pickling():
    # a worker's error reaches the parent pickled
    import pickle

    from matchlab.errors import ParseError

    e = pickle.loads(pickle.dumps(ParseError(Path("p.csv"), 3, "bad row")))
    assert type(e) is ParseError
    assert (str(e), e.path, e.line_no) == ("p.csv:3: bad row", "p.csv", 3)


@pytest.mark.parametrize(
    "line",
    ["smile.S=0", "smile.gamma=-1", "smile.gamma=0", "smile.gamma=nan", "smile.gamma=inf",
     "smile.tolerance=5", "smile.tolerance=1", "ismile.S=-2", "ismile.tolerance=-1"],
)
def test_out_of_range_policy_parameter_exits_2(tmp_path, capsys, line):
    # these used to run and exit 0 without a word; the override is checked
    # even when its policy is not in the run
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    key, value = line.split("=")
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm", T=10, seeds=1,
                       out=tmp_path / "o", **{key: value})
    assert run_cli("run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert key.split(".")[1] in err
    assert not (tmp_path / "o").exists()


def test_parse_config_validation(tmp_path):
    cfg = tmp_path / "c"
    cfg.write_text("instance=x\npolicies=oomm\nT=10\nseeds=2\nsmile.bogus=3\n")
    try:
        parse_config(cfg)
        assert False, "expected InputError"
    except Exception as e:
        assert "bogus" in str(e)
    cfg.write_text("instance=x\npolicies=oomm\nT=10\nseeds=4,5,6\nout=o\n")
    conf = parse_config(cfg)
    assert conf.seeds == [4, 5, 6]
    base = "instance=x\npolicies=oomm\nT=10\nseeds=2\n"
    bad = {
        "T": "instance=x\npolicies=oomm\nT=abc\nseeds=2\n",
        "smile.S": base + "smile.S=x\n",
        "sede": base + "sede=5\n",
        "threads": base + "threads=2\n",
        "seeds lists 1 twice": "instance=x\npolicies=oomm\nT=10\nseeds=1,1\n",
        "policies lists 'uromm' twice": "instance=x\npolicies=uromm,uromm\nT=10\nseeds=2\n",
        "'T' given twice": base + "T=20\n",
        "'smile.S' given twice": base + "smile.S=3\nsmile.S=4\n",
    }
    for needle, text in bad.items():
        cfg.write_text(text)
        with pytest.raises(InputError, match=needle):
            parse_config(cfg)


def test_policy_param_types_name_the_constructor_parameters():
    # parse_config reads each policy's parameters from its class, in POLICIES
    import inspect

    from matchlab.policies import POLICIES

    for cls in POLICIES.values():
        assert list(cls.param_types) == list(inspect.signature(cls).parameters), cls.name


@pytest.mark.parametrize("line", ["T=abc", "smile.S=x"])
def test_bad_config_exits_2_with_one_line(tmp_path, capsys, line):
    # a value that is not a number used to escape as a ValueError traceback
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    kv = {"instance": inst, "policies": "uromm", "T": 10, "seeds": 1, "out": tmp_path / "o"}
    key, value = line.split("=")
    kv[key] = value
    assert run_cli("run", write_config(tmp_path / "cfg", **kv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_run_when_last_user_never_arrives(tmp_path):
    # at T = 40 and n = 50 user 49 misses some seeds' arrivals on both sides;
    # the yardstick must still size its network by the instance's n
    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 50, "--c-b", 5, "--c-g", 5, "--seed", 7, "--out", inst)
    missing = 0
    for seed in range(10):
        r = run_protocol(read_instance(inst), make_policy("uromm"), 40, seed)
        missing += max(r.trace.boy_arrivals.max(), r.trace.girl_arrivals.max()) < 49
        cfg = write_config(tmp_path / f"cfg{seed}", instance=inst, policies="uromm", T=40,
                           seeds=1, base_seed=seed, out=tmp_path / f"out{seed}")
        assert run_cli("run", cfg) == 0, seed
    assert missing >= 1  # the case is exercised


def test_yardstick_rejects_trace_of_another_instance(tmp_path, capsys):
    own, other = tmp_path / "seed7.txt", tmp_path / "seed8.txt"
    for seed, path in ((7, own), (8, other)):
        run_cli("gen", "clustered", "--n", 50, "--c-b", 5, "--c-g", 5, "--seed", seed, "--out", path)
    r = run_protocol(read_instance(own), make_policy("uromm"), 600, seed=0)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, r.trace)
    assert run_cli("yardstick", own, tpath) == 0
    capsys.readouterr()
    assert run_cli("yardstick", other, tpath) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "round " in err[0] and "sign" in err[0]


@pytest.mark.parametrize(
    "flips, first", [({3: 6, 5: 3}, 3), ({5: 3}, 5)], ids=["both-sides", "boy-to-girl-only"]
)
def test_yardstick_names_first_round_with_a_wrong_sign(tmp_path, capsys, flips, first):
    # flips maps a round to the trace field whose sign is negated there:
    # field 3 is the boy-to-girl sign, field 6 the girl-to-boy sign
    inst = tmp_path / "i.txt"
    run_cli("gen", "clustered", "--n", 20, "--c-b", 2, "--c-g", 2, "--seed", 1, "--out", inst)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, run_protocol(read_instance(inst), make_policy("uromm"), 10, seed=0).trace)
    lines = tpath.read_text().splitlines()
    for t, field in flips.items():
        values = lines[t].split(",")
        values[field] = str(-int(values[field]))
        lines[t] = ",".join(values)
    tpath.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("yardstick", inst, tpath) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tpath}: round {first} records a sign the instance does not have\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["run", "run-instance", "ingest", "cover", "yardstick"])
def test_unreadable_input_file_exits_2_with_one_line(tmp_path, capsys, command, kind):
    # these escaped as FileNotFoundError and IsADirectoryError tracebacks
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, run_protocol(read_instance(inst), make_policy("uromm"), 2, seed=0).trace)
    genders = tmp_path / "g.csv"
    genders.write_text("1,M\n2,F\n")
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    cfg = write_config(tmp_path / "cfg", instance=bad, policies="uromm", T=10, seeds=1, out=tmp_path / "o")
    args = {
        "run": ["run", bad],
        "run-instance": ["run", cfg],
        "ingest": ["ingest", "--ratings", bad, "--genders", genders,
                   "--out", tmp_path / "o.txt", "--report", tmp_path / "r.txt"],
        "cover": ["cover", bad],
        "yardstick": ["yardstick", bad, tpath],
    }[command]
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def test_yardstick_rejects_index_outside_instance(tmp_path, capsys):
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    run_cli("gen", "adversarial", "--n", 20, "--m", 60, "--seed", 0, "--out", big)
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", small)
    r = run_protocol(read_instance(big), make_policy("uromm"), 200, seed=0)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, r.trace)
    capsys.readouterr()
    assert run_cli("yardstick", small, tpath) == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    ["3,1,x,1,2,3,0", "1,2", "3,0,1,1,2,3", "renumbered", "no rounds", "missing",
     "wrapped index", "doubled sign"],
)
def test_yardstick_malformed_trace_exits_2_with_one_line(tmp_path, capsys, bad):
    # a non-integer field and a short row used to escape as ValueError and
    # IndexError tracebacks; a wrong field count, a round out of sequence,
    # a trace without rounds and a missing file are rejected too, as are a
    # user index that int32 would wrap (b + 2**32 was scored as user b) and
    # a sign other than 1 or -1
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    tpath = tmp_path / "run.trace.csv"
    write_trace(tpath, run_protocol(read_instance(inst), make_policy("uromm"), 2, seed=0).trace)
    header, first, second = tpath.read_text().splitlines()

    def edit(row, field, change):
        values = row.split(",")
        values[field] = str(change(int(values[field])))
        return ",".join(values)

    rows = {
        "renumbered": [first, edit(second, 0, lambda t: 3)],
        "no rounds": [],
        "wrapped index": [first, edit(second, 1, lambda b: b + 2**32)],
        "doubled sign": [first, edit(second, 3, lambda sign: 2 * sign)],
    }.get(bad, [first, second, bad])
    tpath.write_text("\n".join([header, *rows]) + "\n")
    if bad == "missing":
        tpath.unlink()
    capsys.readouterr()
    assert run_cli("yardstick", inst, tpath) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tpath) in err


@pytest.mark.parametrize(
    "damage", ["short stats row", "yardstick header only", "auc cut", "bad bound_ok"]
)
def test_report_of_a_damaged_table_exits_2_with_one_line(tmp_path, capsys, damage):
    # the first three escaped as ValueError, ZeroDivisionError and KeyError
    # tracebacks; nothing of the summary is printed before the error
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg", instance=inst, policies="uromm,ismile", T=100, seeds=2, out=out)
    assert run_cli("run", cfg) == 0
    name, where = {
        "short stats row": ("stats.csv", ":6: expected 7 fields, got 3"),
        "yardstick header only": ("yardstick.csv", ":2: expected a row starting '0'"),
        "auc cut": ("auc.csv", ":1: expected the header 'metric,uromm,ismile'"),
        "bad bound_ok": ("stats.csv", ":4: bound_ok must be 1, 0 or empty, got 'x'"),
    }[damage]
    path = out / name
    lines = path.read_text().splitlines()
    if damage == "short stats row":
        lines.append("uromm,0,5")
    elif damage == "auc cut":
        lines = ["metric,uromm"]
    elif damage == "bad bound_ok":
        lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
    else:
        lines = lines[:1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("report", out) == 2
    assert capsys.readouterr() == ("", f"error: {path}{where}\n")


def test_cover_radii_not_integers_exits_2_with_one_line(tmp_path, capsys):
    inst = tmp_path / "i.txt"
    run_cli("gen", "adversarial", "--n", 10, "--m", 20, "--seed", 0, "--out", inst)
    capsys.readouterr()
    assert run_cli("cover", inst, "--radii", "a,b") == 2
    assert capsys.readouterr().err == "error: cover: --radii must be an integer, got 'a'\n"
