"""The job runner on trivial jobs: order, errors, stopping and clean-up."""

import multiprocessing
import os
import time

import pytest

from matchlab.errors import InputError
from matchlab.runner import run_jobs


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _mark(directory, name):
    (directory / str(name)).touch()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_results_come_in_job_order_when_jobs_take_uneven_time(two_cpus):
    # the early jobs sleep longest, so the later ones finish first; the job
    # function is a closure, which fork hands to the workers unpickled
    squares = {k: k * k for k in range(8)}

    def job(k):
        time.sleep(0.03 * (8 - k))
        return squares[k], os.getpid()

    with run_jobs(job, range(8)) as results:
        got = list(results)
    assert [value for value, _ in got] == [k * k for k in range(8)]
    assert len({pid for _, pid in got}) == 2
    assert os.getpid() not in {pid for _, pid in got}


@pytest.mark.parametrize("cpus, jobs, workers", [(1, 5, 1), (2, 5, 2), (4, 3, 3), (4, 0, 0)])
def test_one_worker_per_cpu_and_no_more_than_jobs(monkeypatch, tmp_path, cpus, jobs, workers):
    # the initializer runs once in each worker, with its arguments
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = tmp_path / "started"
    started.mkdir()

    def start(directory):
        _mark(directory, os.getpid())

    with run_jobs(lambda k: k, range(jobs), start, (started,)) as results:
        assert list(results) == list(range(jobs))
    assert len(list(started.iterdir())) == workers


@pytest.mark.parametrize("error", [ValueError("bad job 3"), InputError("job 3: not an instance")])
def test_a_job_error_reaches_the_caller_with_its_type_and_message(two_cpus, error):
    def job(k):
        if k == 3:
            raise error
        return k

    seen = []
    with pytest.raises(type(error)) as caught:
        with run_jobs(job, range(6)) as results:
            seen.extend(results)
    assert str(caught.value) == str(error)
    assert seen == [0, 1, 2]  # the results before it, in order
    assert not multiprocessing.active_children()


def test_no_job_starts_once_the_caller_has_raised(two_cpus, tmp_path):
    # every job but the first sleeps, so the other worker is still in its
    # first job when the caller raises on the first result; the jobs the
    # executor had already queued for the workers must not start
    def job(k):
        _mark(tmp_path, k)
        if k:
            time.sleep(0.3)
        return k

    with pytest.raises(RuntimeError, match="stop at 0"):
        with run_jobs(job, range(12)) as results:
            for k in results:
                raise RuntimeError(f"stop at {k}")
    assert len(list(tmp_path.iterdir())) <= 2 + 1  # the two first jobs and one taken in the race


@pytest.mark.parametrize("ending", ["done", "job error", "caller error", "break"])
def test_no_child_process_is_left(two_cpus, tmp_path, ending):
    started = tmp_path / "started"
    started.mkdir()

    def start():
        _mark(started, os.getpid())

    def job(k):
        if ending == "job error" and k == 2:
            raise ValueError("job error")
        return k

    try:
        with run_jobs(job, range(6), start) as results:
            for k in results:
                if k == 1 and ending == "caller error":
                    raise ValueError("caller error")
                if k == 1 and ending == "break":
                    break
    except ValueError as e:
        assert str(e) == ending
    assert not multiprocessing.active_children()
    pids = [int(p.name) for p in started.iterdir()]
    assert pids and not any(map(_alive, pids))
