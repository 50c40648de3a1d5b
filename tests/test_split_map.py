"""The regression table's splits on every CPU in the process's affinity.

``experiments._map`` forks one child per extra CPU and merges the results in
split order. It must return the plain loop's results, raise the error of the
earliest failing job with its type and message, reap every child on every
way out, and fall back to the loop where forking is unavailable or unsafe.
The CLI bundle must write the same bytes on one CPU and on two.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import oracle
from roweis import experiments
from roweis.cli import main
from roweis.exceptions import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_PROCESS = os.getpid()


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def cpus(monkeypatch):
    """Sets the affinity ``_map`` sees to the first k CPUs, and counts forks."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        return forks

    return set_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square(job):
    index, failing = job
    if index in failing:
        raise ConfigError(f"job {index} failed")
    return index * index


@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_map_is_the_loop(cpus, k):
    forks = cpus(k)
    jobs = [(index, ()) for index in range(7)]
    assert experiments._map(square, jobs) == [index * index for index in range(7)]
    assert len(forks) == min(k, len(jobs)) - 1
    assert_no_child_left()


# With two CPUs the parent computes the even jobs and the child the odd ones.
@pytest.mark.parametrize("failing, raised", [
    ((2,), 2),      # on the parent's share
    ((3,), 3),      # on the child's share
    ((3, 4), 3),    # both shares: the earlier job, the child's
    ((5, 2), 2),    # both shares: the earlier job, the parent's
    ((1, 3), 1),    # twice on the child's share
])
def test_earliest_failing_job_raises(cpus, failing, raised):
    forks = cpus(2)
    with pytest.raises(ConfigError, match=f"^job {raised} failed$"):
        experiments._map(square, [(index, failing) for index in range(8)])
    assert len(forks) == 1
    assert_no_child_left()


def interrupt_or_sleep(job):
    if job == 0:
        raise KeyboardInterrupt
    time.sleep(30.0)


def test_interrupt_kills_and_reaps_the_children(cpus):
    cpus(2)
    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        experiments._map(interrupt_or_sleep, [0, 1])
    assert time.perf_counter() - began < 10.0
    assert_no_child_left()


def exit_in_a_child(job):
    if os.getpid() != TEST_PROCESS:
        os._exit(9)
    return job + 1


def test_a_child_that_ends_without_results_leaves_its_share_to_the_parent(cpus):
    cpus(3)
    assert experiments._map(exit_in_a_child, list(range(7))) == list(range(1, 8))
    assert_no_child_left()


def test_a_fork_that_fails_leaves_its_share_to_the_parent(monkeypatch, cpus):
    cpus(3)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert experiments._map(square, [(index, ()) for index in range(5)]) == [0, 1, 4, 9, 16]
    assert_no_child_left()


@pytest.mark.parametrize("host", ["no fork", "no affinity", "threaded"])
def test_loop_where_forking_is_unavailable_or_unsafe(monkeypatch, cpus, host):
    forks = cpus(2)
    stop = threading.Event()
    if host == "no fork":
        monkeypatch.delattr(os, "fork")
    elif host == "no affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        threading.Thread(target=stop.wait, daemon=True).start()
    try:
        assert experiments._map(square, [(index, ()) for index in range(4)]) == [0, 1, 4, 9]
    finally:
        stop.set()
    assert forks == []


def test_bundle_is_byte_identical_on_one_and_two_cpus(tmp_path, monkeypatch, cpus):
    outputs = {}
    for k in (1, 2):
        forks = cpus(k)
        workdir = tmp_path / f"cpus{k}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run("experiments", "--out-dir", "results", "--reps", 3, "--n", 40,
                   "--panel-n", 40, "--seed", 4) == 0
        assert len(forks) == k - 1
        outputs[k] = {path.relative_to(workdir): path.read_bytes()
                      for path in sorted(workdir.rglob("*")) if path.is_file()}
        cells = experiments.regression_benchmark_table(repetitions=3, n=40, base_seed=4)
        assert cells == oracle.regression_benchmark_table(repetitions=3, n=40, base_seed=4)
    assert len(outputs[1]) == 1 + 2 + 18
    assert outputs[2] == outputs[1]
    assert_no_child_left()


def test_refused_bundle_on_two_cpus_creates_no_directory(tmp_path, capsys, cpus):
    forks = cpus(2)
    out_dir = tmp_path / "results"
    assert run("experiments", "--out-dir", out_dir, "--reps", 2, "--n", 0, "--panel-n", 20) == 2
    assert "n must be at least 1, got 0" in capsys.readouterr().err
    assert len(forks) == 1
    assert not out_dir.exists()
    assert_no_child_left()


def test_cli_import_loads_no_process_pool():
    probe = ("import sys, roweis.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'subprocess')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
