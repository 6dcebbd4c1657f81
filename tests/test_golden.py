"""Golden outputs: every policy on every generator, frozen byte for byte.

Each case generates an n = 50 instance through ``matchlab gen``, runs all
four policies for T = 2 n^2 rounds on three seeds through ``matchlab run``,
and compares the run's CSV tables, a SHA-256 of the instance and of every
saved trace (so every selection is pinned), and each run's
``diagnostics()``, as its ``RunRecord`` brings it back from the worker
process that ran it, with the files under ``tests/golden/<case>/``.  Criterion
11 only compares two runs of the same code; this fixture shows that a
change of the code changed no output.

The ``ingest`` case runs ``matchlab ingest`` on a small ratings/genders pair
and compares a SHA-256 of the densified instance and the report with
``tests/golden/ingest/``.  The pair has one-way likes, ids that are not
contiguous, ratings on both sides of the like threshold (2 and 3), an
unknown gender, two users that densification removes and a phantom boy, so
a densified cell at a swapped or shifted index changes the instance.

After a change that is meant to alter outputs, rewrite the fixture with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import matchlab.cli as cli

GOLDEN = Path(__file__).parent / "golden"
N = 50
T = 2 * N * N
SEEDS = (0, 1, 2)
POLICIES = ("uromm", "oomm", "smile", "ismile")
TABLES = ("curves.csv", "auc.csv", "yardstick.csv", "stats.csv")
CLUSTERED = ["clustered", "--n", str(N), "--c-b", "5", "--c-g", "5", "--seed", "7"]
CASES = {
    "clustered": (CLUSTERED, {}),
    "adversarial": (["adversarial", "--n", str(N), "--m", "200", "--seed", "1"], {}),
    "block": (["block", "--n", str(N), "--d", "5", "--m", "600", "--seed", "2"], {}),
    "bipartite": (["bipartite", "--n", str(N), "--p", "0.1", "--seed", "3"], {}),
    "clustered-overrides": (
        CLUSTERED,
        {"smile.S": "4", "smile.tolerance": "0.05", "ismile.S": "5", "ismile.tolerance": "0"},
    ),
}

INGEST_GENDERS = ("3,M", "10,M", "17,M", "24,M", "31,M", "44,M",
                  "6,F", "12,F", "40,F", "41,F", "50,F", "99,U")
INGEST_RATINGS = (
    "3,6,9", "3,12,3", "3,40,2", "3,41,7", "10,6,8", "10,40,3", "10,50,1",
    "17,12,5", "17,41,2", "17,6,10", "24,40,6", "24,41,3", "24,50,4", "31,6,2",
    "44,12,3", "6,3,8", "6,17,3", "6,24,2", "12,3,4", "12,10,9", "12,17,6",
    "40,10,3", "40,24,7", "40,3,1", "41,17,2", "41,24,8", "41,10,6", "50,24,3",
    "50,99,9",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(case: str, work: Path, monkeypatch) -> dict[str, str]:
    """Run one case through the CLI; returns the fixture files' contents by name."""
    gen_args, overrides = CASES[case]
    inst = work / "instance.txt"
    assert cli.main(["gen", *gen_args, "--out", str(inst)]) == 0
    out = work / "out"
    lines = [
        f"instance={inst}",
        f"policies={','.join(POLICIES)}",
        f"T={T}",
        f"seeds={','.join(map(str, SEEDS))}",
        f"out={out}",
        "curve_stride=50",
        "save_traces=1",
    ] + [f"{k}={v}" for k, v in overrides.items()]
    cfg = work / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")

    received = {}

    def recording_write_stats(path, config, results, bounds):
        received.update(results)  # the RunRecords the parent read back from its workers
        return write_stats(path, config, results, bounds)

    write_stats = cli.write_stats
    monkeypatch.setattr(cli, "write_stats", recording_write_stats)
    assert cli.main(["run", str(cfg)]) == 0

    files = {name: (out / name).read_text() for name in TABLES}
    hashes = [f"{_sha256(inst)}  instance.txt"]
    for pol in POLICIES:
        for seed in SEEDS:
            name = f"{pol}-{seed}.trace.csv"
            hashes.append(f"{_sha256(out / 'traces' / name)}  {name}")
    files["sha256sums.txt"] = "\n".join(hashes) + "\n"
    assert all([rec.seed for rec in received[pol]] == list(SEEDS) for pol in POLICIES)
    files["diagnostics.txt"] = "".join(
        f"{pol},{rec.seed},{json.dumps(rec.diagnostics)}\n" for pol in POLICIES for rec in received[pol]
    )
    for rec in received["smile"]:
        assert rec.diagnostics["phase"] == "user_matching", (case, rec.seed)
    return files


def run_ingest(work: Path) -> dict[str, str]:
    """Ingest the fixed ratings through the CLI; returns the fixture files' contents by name."""
    ratings, genders = work / "ratings.csv", work / "genders.csv"
    ratings.write_text("\n".join(INGEST_RATINGS) + "\n")
    genders.write_text("\n".join(INGEST_GENDERS) + "\n")
    inst, report = work / "instance.txt", work / "report.txt"
    assert cli.main(["ingest", "--ratings", str(ratings), "--genders", str(genders),
                     "--coeff", "2", "--out", str(inst), "--report", str(report)]) == 0
    return {"sha256sums.txt": f"{_sha256(inst)}  instance.txt\n", "report.txt": report.read_text()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path, monkeypatch):
    files = run_case(case, tmp_path, monkeypatch)
    for name, text in files.items():
        want = (GOLDEN / case / name).read_text()
        assert text == want, f"{case}/{name} differs from the golden fixture"


def test_golden_ingest(tmp_path):
    files = run_ingest(tmp_path)
    report = files["report.txt"]
    assert "removals=2" in report and "phantoms=1" in report  # the cases are exercised
    for name, text in files.items():
        want = (GOLDEN / "ingest" / name).read_text()
        assert text == want, f"ingest/{name} differs from the golden fixture"


def _write_fixture(case: str, files: dict[str, str]) -> None:
    dest = GOLDEN / case
    dest.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (dest / name).write_text(text)
    print(f"wrote {dest}", file=sys.stderr)


def regenerate() -> None:
    import tempfile

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            work = Path(tmp) / case
            work.mkdir()
            _write_fixture(case, run_case(case, work, mp))
        work = Path(tmp) / "ingest"
        work.mkdir()
        _write_fixture("ingest", run_ingest(work))


if __name__ == "__main__":
    regenerate()
