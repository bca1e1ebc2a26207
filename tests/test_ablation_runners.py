"""The ablation tables run on n = min(4, usable CPUs) runners: the caller
takes every n-th table and forked workers take the rest.  Every
written byte is the one the serial run writes, a worker that fails never
hangs the caller, and no worker outlives ``run_ablation``."""

from __future__ import annotations

import os
import signal
import subprocess
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml

from oracles import child_env
from subtune import cli, harness, model
from subtune.config import config_from_dict

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are forked")


# d_model 8 leaves no rank for K=9, so the subspaces table has a failed cell
TINY = {
    "seed": 11,
    "model": {"d_model": 8, "n_blocks": 2, "n_tokens": 6},
    "decomposition": {"n_subspaces": 2},
    "mask": {"active_layer_budget": 4},
    "optimizer": {"epochs": 2, "batch_size": 16},
    "pretrain": {"max_epochs": 6, "accuracy_floor": 0.5},
    "data": {"n_pretrain": 64, "n_pretrain_test": 32, "n_finetune": 128, "n_test": 64, "clip_size": 4},
}


@pytest.fixture
def config(tmp_path) -> Path:
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


def report_cpus(monkeypatch, n: int) -> None:
    """Make the process report ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@contextmanager
def deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class InjectedFault(Exception):
    pass


def test_every_runner_count_writes_the_same_bytes(tmp_path, config, monkeypatch, capfd) -> None:
    def failing(bvg, budget, step, warmup, _real=harness.build_mask):
        mask = _real(bvg, budget, step, warmup)
        if budget == 1 and mask.bits.sum() == 1:  # past the warmup of the budget-1 arm
            raise InjectedFault("injected")
        return mask

    monkeypatch.setattr(harness, "build_mask", failing)
    out = tmp_path / "out"
    written = {}
    # the failing budget table runs on a worker at 2 runners and on the
    # caller at 3; the subspaces table the other way round
    for n in (1, 2, 3):
        report_cpus(monkeypatch, n)
        with deadline(120):
            assert cli.main(["ablate", "--config", str(config), "--out", str(out)]) == 0
        assert_no_child()
        stdout, stderr = capfd.readouterr()
        written[n] = stdout, stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert written[1] == written[2] == written[3]
    assert [line.split(": ")[0] for line in written[1][1].splitlines()] == [
        "ablation cell subspaces[K=9] failed", "ablation cell budget[m=1] failed"]
    assert written[1][2]["budget.csv"].decode().splitlines()[1].endswith(",error:InjectedFault")


def _exit_3():
    os._exit(3)


def _raise():
    raise ValueError("outside the cell catches")


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("act, ended", [(_exit_3, "exit status 3"), (_raise, "exit status 1"),
                                        (_kill, "signal 9")])
def test_a_worker_that_dies_fails_the_run_and_leaves_no_process(tmp_path, monkeypatch, act, ended) -> None:
    report_cpus(monkeypatch, 2)
    caller = os.getpid()

    def run_table(cfg, t, table, cells):
        if os.getpid() != caller and t == 1:
            act()
        return [{"status": "error:Skipped"}] * len(cells), []

    monkeypatch.setattr(harness, "_run_table", run_table)
    with deadline(60), pytest.raises(RuntimeError) as raised:
        harness.run_ablation(config_from_dict(TINY), tmp_path)
    assert str(raised.value) == f"the ablation worker for tables losses, budget ended with {ended}"
    assert_no_child()
    assert list(tmp_path.iterdir()) == []


def test_an_interrupted_caller_kills_and_reaps_every_worker(tmp_path, monkeypatch) -> None:
    report_cpus(monkeypatch, 3)
    caller = os.getpid()
    workers_alive = []

    def run_table(cfg, t, table, cells):
        if os.getpid() != caller:
            time.sleep(60)  # still running when the caller is interrupted
        workers_alive.append(os.waitpid(-1, os.WNOHANG) == (0, 0))
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_run_table", run_table)
    with deadline(30), pytest.raises(KeyboardInterrupt):
        harness.run_ablation(config_from_dict(TINY), tmp_path)
    assert workers_alive == [True]
    assert_no_child()


@pytest.mark.parametrize("n, seen", [(1, "2"), (2, "1")])
def test_forked_runners_score_on_one_blas_thread_and_the_count_is_restored(tmp_path, monkeypatch, n, seen) -> None:
    blas = model.openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count call found in this process")
    get, put = blas
    report_cpus(monkeypatch, n)

    def run_table(cfg, t, table, cells):
        return [{"status": f"blas{get()}"}] * len(cells), []

    monkeypatch.setattr(harness, "_run_table", run_table)
    before = get()
    put(2)
    try:
        paths = harness.run_ablation(config_from_dict(TINY), tmp_path)
        assert get() == 2
    finally:
        put(before)
    assert {line.rsplit(",", 1)[1] for p in paths for line in p.read_text().splitlines()[1:]} == {f"blas{seen}"}


def test_no_table_runner_forks_a_scoring_helper(tmp_path, monkeypatch) -> None:
    # 200 test samples at 6 tokens are two of predict's row blocks
    cfg = config_from_dict({**TINY, "data": {**TINY["data"], "n_test": 200}})
    report_cpus(monkeypatch, 2)
    log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def predict(m, x, _real=harness.predict):
        os.write(log, f"predict {len(x)}\n".encode())
        return _real(m, x)

    def fork_helper(_real=model._fork_helper):
        helper = _real()
        os.write(log, f"fork {os.getpid()} {helper[0]}\n".encode())
        return helper

    monkeypatch.setattr(harness, "predict", predict)
    monkeypatch.setattr(model, "_fork_helper", fork_helper)
    try:
        with deadline(120):
            harness.run_ablation(cfg, tmp_path / "out")
        assert model._helpers == []
        assert_no_child()
        # outside the tables, a batch of that size forks a fresh helper
        m = model.init_model(cfg.model, harness.make_rng(0))
        model.predict(m, harness.make_rng(1).normal(size=(200, 6, 8)))
    finally:
        os.close(log)
    calls = (tmp_path / "log").read_text().splitlines()
    assert max(int(line.split()[1]) for line in calls if line.startswith("predict")) == 200
    forks = [line.split()[1:] for line in calls if line.startswith("fork")]
    assert [parent for parent, _ in forks] == [str(os.getpid())] * 2
    assert forks[0][1] != forks[1][1]


# a fresh interpreter runs `subtune ablate` with the out directory relative
# to its working directory, so the paths it prints are the same in each run
_CHILD = """
import sys
from subtune import cli

sys.exit(cli.main(["ablate", "--config", sys.argv[1], "--out", "out"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the run with os.sched_setaffinity")
def test_a_fresh_interpreter_writes_the_same_bytes_pinned_to_one_cpu_and_unpinned(tmp_path, config) -> None:
    usable = sorted(os.sched_getaffinity(0))
    env = child_env()

    def ablate(name: str, cpus: list[int] | None):
        cwd = tmp_path / name
        cwd.mkdir()
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        done = subprocess.run([sys.executable, "-c", _CHILD, str(config)], cwd=cwd, env=env, preexec_fn=pin,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout, done.stderr, {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}

    pinned = ablate("pinned", usable[:1])
    assert pinned[1].startswith("ablation cell subspaces[K=9] failed: ")
    if len(usable) < 2:
        pytest.skip(f"one usable CPU: the unpinned run would run the tables serially too ({usable})")
    assert ablate("unpinned", None) == pinned


# a fresh interpreter whose every runner marks its pid in the out directory
# and then waits, so the caller can be ended while its workers run
_WAITING = """
import json, os, sys, time
from pathlib import Path
from subtune import harness
from subtune.config import config_from_dict

out = Path(sys.argv[2])
caller = os.getpid()


def run_table(cfg, t, table, cells):
    (out / f"{'caller' if os.getpid() == caller else 'worker'}-{os.getpid()}").touch()
    time.sleep(120)


harness._run_table = run_table
harness.run_ablation(config_from_dict(json.loads(sys.argv[1])), out)
"""


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
def test_the_workers_of_a_caller_killed_by_a_signal_end_with_it(tmp_path) -> None:
    usable = len(os.sched_getaffinity(0))
    if usable < 2:
        pytest.skip(f"{usable} usable CPU: the tables would run serially, with no worker")
    caller = subprocess.Popen([sys.executable, "-c", _WAITING, json.dumps(TINY), str(tmp_path)], env=child_env())
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(list(tmp_path.iterdir())) < min(4, usable) and time.monotonic() < deadline:
            time.sleep(0.05)
        names = [p.name for p in tmp_path.iterdir()]
        workers = [int(name.split("-")[1]) for name in names if name.startswith("worker-")]
        assert len(workers) == min(4, usable) - 1 and f"caller-{caller.pid}" in names, names
        caller.terminate()  # SIGTERM: no finally runs in the caller
        assert caller.wait(timeout=60) == -signal.SIGTERM
        deadline = time.monotonic() + 10
        while not all(_ended(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(_ended(pid) for pid in workers)
    finally:
        caller.kill()
        caller.wait()
        for pid in workers:
            if not _ended(pid):
                os.kill(pid, signal.SIGKILL)
