"""How ``ProcessRuntime`` workers start and what a finished run gives back.

Every worker is a fork of one fork server per process, which preloads
the worker's modules.  These tests pin that: workers are the server's
children across runs, they inherit the preload instead of importing it,
a killed server is relaunched with its preload on the next run, a server
killed mid-run is not mistaken for the death of its workers, workers
that all die leave an error naming their exit codes, and an interpreter
that exits reaps its server.  A finished runtime that stays referenced
holds no file descriptor or named semaphore.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import TaskFailedError
from repro.runtime import ProcessRuntime
from repro.runtime import procs

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc and /dev/shm"
)


def whoami(rt):
    """Where this worker came from, as a dispatched body sees it."""
    return {
        "ppid": os.getppid(),
        "imported_by": procs._IMPORTED_BY,
        "client_loaded": "repro.service.client" in sys.modules,
    }


def _start_one():
    rt = ProcessRuntime(workers=1, seg0=64, stripe=16)
    return rt, rt.run(lambda: rt.join(rt.fork(whoami)))


def _server_pid():
    from multiprocessing import forkserver

    return forkserver._forkserver._forkserver_pid


def test_workers_are_forks_of_the_preloaded_server_across_runs():
    seen = [_start_one()[1] for _ in range(2)]
    server = _server_pid()
    assert server is not None and server != os.getpid()
    for worker in seen:
        assert worker["ppid"] == server
        # Imported by the server before the fork, not by the worker ...
        assert worker["imported_by"] == server
        # ... and so is the wire client, which no sidecar-less worker imports.
        assert worker["client_loaded"]


def test_a_killed_server_is_relaunched_with_its_preload(monkeypatch):
    _start_one()
    old = _server_pid()
    os.kill(old, signal.SIGKILL)
    # Wait for the death but leave the zombie: the relaunch reaps it.
    os.waitid(os.P_PID, old, os.WEXITED | os.WNOWAIT)
    # Without an ambient PYTHONPATH the new server finds the package only
    # through the path the runtime hands it.
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _, worker = _start_one()
    new = _server_pid()
    assert new != old
    assert worker["ppid"] == worker["imported_by"] == new
    assert "PYTHONPATH" not in os.environ  # the launch environment is restored


def nap(rt, i):
    time.sleep(0.05)
    return i


def test_a_server_killed_mid_run_is_no_worker_death():
    """Workers are watched through their own pidfds: a SIGKILLed fork
    server closes its status pipes, but both workers still run every
    dispatch and no join fails."""
    _start_one()
    server = _server_pid()
    rt = ProcessRuntime(workers=2, seg0=64, stripe=16)

    def kill_server():
        time.sleep(0.5)
        os.kill(server, signal.SIGKILL)

    def main():
        threading.Thread(target=kill_server, daemon=True).start()
        futures = [rt.fork(nap, i) for i in range(40)]
        return [rt.join(f) for f in futures]

    assert rt.run(main) == list(range(40))
    # the server died during the run (the next run relaunches it)
    os.waitid(os.P_PID, server, os.WEXITED | os.WNOWAIT)
    assert rt.worker_deaths == 0
    assert rt.tasks_redispatched == 0


def test_an_exiting_interpreter_reaps_its_server():
    code = textwrap.dedent(
        """
        from multiprocessing import forkserver
        from repro.runtime import ProcessRuntime
        rt = ProcessRuntime(workers=1, seg0=64, stripe=16)
        rt.run(lambda: None)
        print(forkserver._forkserver._forkserver_pid)
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    server = int(out.stdout.split()[-1])
    with pytest.raises(ProcessLookupError):
        os.kill(server, 0)


def _held():
    fds = len(os.listdir("/proc/self/fd"))
    sems = len([n for n in os.listdir("/dev/shm") if n.startswith("sem.mp-")])
    return fds, sems


def test_a_finished_runtime_holds_no_descriptor_or_semaphore():
    kept = [_start_one()[0]]  # starts the server and the resource tracker
    before = _held()
    kept.append(_start_one()[0])
    assert _held() == before


def tick(rt, i):
    time.sleep(0.004)
    return i


def _feeders():
    return sum(
        t.name == "QueueFeederThread" and t.is_alive() for t in threading.enumerate()
    )


def test_a_killed_workers_backlog_leaves_no_feeder_thread():
    """A worker SIGKILLed with more queued dispatches than its pipe holds
    leaves its dispatch queue's feeder thread blocked on the full pipe.
    Releasing the dead worker reads that pipe dry, so the feeder exits
    and the queue's descriptors and named semaphores go with it."""
    kept = [_start_one()[0]]  # starts the server and the resource tracker
    before, feeders = _held(), _feeders()
    rt = ProcessRuntime(workers=2, seg0=64, stripe=16)

    def kill_worker_0():
        time.sleep(0.5)
        os.kill(rt._workers[0].pid, signal.SIGKILL)

    def main():
        threading.Thread(target=kill_worker_0, daemon=True).start()
        futures = [rt.fork(tick, i) for i in range(3000)]
        return [rt.join(f) for f in futures]

    assert rt.run(main) == list(range(3000))
    kept.append(rt)
    assert rt.worker_deaths == 1
    assert _feeders() == feeders
    assert _held() == before


class _ExitOnUnpickle:
    """A dispatch argument whose unpickling exits the worker with code 3."""

    def __reduce__(self):
        return (os._exit, (3,))


def test_when_every_worker_dies_the_error_names_each_exit_code():
    """Both workers die unpickling the one dispatch (the second after its
    redispatch); the root's join fails naming each dead worker's index
    and exit code."""
    rt = ProcessRuntime(workers=2, seg0=64, stripe=16)
    with pytest.raises(TaskFailedError) as info:
        rt.run(lambda: rt.join(rt.fork(nap, _ExitOnUnpickle())))
    assert rt.worker_deaths == 2
    assert rt.tasks_redispatched == 1
    message = str(info.value.root_cause)
    assert "no live worker processes to redispatch to" in message
    assert "worker 0 exit code 3" in message
    assert "worker 1 exit code 3" in message
