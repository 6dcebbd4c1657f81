"""Smoke tests of the scripts under scripts/ and of the package's public surface."""

import subprocess
import sys
from pathlib import Path

import matchlab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_covering_table_script():
    lines = run_script("covering_table.py", "--n", 60, "--configs", "5:5")
    assert lines[0] == "config,likes,matches,C^B@29,C^G@29,C^B@14,C^G@14,C^B@7,C^G@7"
    assert lines[1].startswith("S-5-5,") and len(lines) == 2


def test_compare_policies_script(tmp_path):
    lines = run_script("compare_policies.py", "--n", 40, "--c-b", 4, "--c-g", 4,
                       "--policies", "uromm,ismile", "--t-factor", 0.5, "--seeds", 2,
                       "--out", tmp_path / "out")
    assert any(l.startswith("mean M*_T over seeds: ") for l in lines)
    assert (tmp_path / "out" / "curves.csv").read_text().startswith("t,uromm,ismile\n")


def test_public_surface_resolves():
    for name in matchlab.__all__:
        assert hasattr(matchlab, name), name
    namespace = {}
    exec("from matchlab import *", namespace)
    assert set(matchlab.__all__) <= namespace.keys()
