"""Sidecar subprocess management for harnesses that need a *real* kill -9.

The in-process :class:`~repro.service.server.VerificationServer` covers
most tests, but the degradation/recovery story is only honest against a
separate OS process that can die by ``SIGKILL`` mid-write.  This module
spawns ``python -m repro.service.server`` and speaks its one-line
startup contract (``LISTENING <host> <port>``), so the chaos runner,
the subprocess test harness, and the CI smoke job all share one way of
bringing a sidecar up, killing it, and bringing it back on the same
port with the same journal.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import Optional

from .._importpath import child_pythonpath

__all__ = ["SidecarProcess"]


class SidecarProcess:
    """One sidecar child process with the startup-line handshake.

    Parameters mirror ``repro.service.server.main``; ``port=0`` lets the
    first incarnation pick a free port, which :meth:`restart` then pins
    so resuming clients find the reborn server at the same address.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_path: "str | None" = None,
        inbox_limit: "int | None" = None,
        ack_every: "int | None" = None,
        liveness_timeout: "float | None" = None,
        startup_timeout: float = 20.0,
        obs: bool = False,
        trace_id: "str | None" = None,
    ) -> None:
        self.host = host
        self.port = port
        self.journal_path = journal_path
        self.inbox_limit = inbox_limit
        self.ack_every = ack_every
        self.liveness_timeout = liveness_timeout
        self.startup_timeout = startup_timeout
        self.obs = obs
        self.trace_id = trace_id
        self.proc: Optional[subprocess.Popen] = None
        self.start()

    # ------------------------------------------------------------------
    def _command(self) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro.service.server",
            "--host",
            self.host,
            "--port",
            str(self.port),
        ]
        if self.journal_path is not None:
            cmd += ["--journal", self.journal_path]
        if self.inbox_limit is not None:
            cmd += ["--inbox-limit", str(self.inbox_limit)]
        if self.ack_every is not None:
            cmd += ["--ack-every", str(self.ack_every)]
        if self.liveness_timeout is not None:
            cmd += ["--liveness-timeout", str(self.liveness_timeout)]
        if self.obs:
            cmd += ["--obs"]
            if self.trace_id is not None:
                cmd += ["--trace-id", self.trace_id]
        return cmd

    def start(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            raise RuntimeError("sidecar already running")
        self._close_stdout()  # a restart replaces the dead child's pipe
        env = os.environ.copy()
        env["PYTHONPATH"] = child_pythonpath(env)
        self.proc = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self._await_listening()

    def _await_listening(self) -> None:
        """Block until the child prints LISTENING (or dies / times out)."""
        assert self.proc is not None and self.proc.stdout is not None
        line_box: list = []

        def read_line() -> None:
            line_box.append(self.proc.stdout.readline())

        reader = threading.Thread(target=read_line, daemon=True)
        reader.start()
        reader.join(self.startup_timeout)
        if reader.is_alive() or not line_box or not line_box[0]:
            self.kill9()
            raise RuntimeError(
                f"sidecar did not print LISTENING within {self.startup_timeout}s"
            )
        parts = line_box[0].split()
        if len(parts) != 3 or parts[0] != "LISTENING":
            self.kill9()
            raise RuntimeError(f"unexpected sidecar startup line: {line_box[0]!r}")
        self.host, self.port = parts[1], int(parts[2])

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self.host, int(self.port)

    @property
    def url(self) -> str:
        return f"remote://{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill9(self) -> None:
        """SIGKILL — the crash the recovery machinery exists for."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._close_stdout()

    def restart(self) -> None:
        """Bring a (killed) sidecar back on the *same* port and journal."""
        if self.alive():
            raise RuntimeError("sidecar still alive; kill it before restart")
        self.start()

    def stop(self) -> None:
        """Graceful-ish teardown for harness cleanup paths."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.kill9()
        self._close_stdout()

    def _close_stdout(self) -> None:
        """Close the startup-line pipe once the child is gone.  Not
        sooner: a sidecar that recovered sessions prints ``RECOVERED``
        after ``LISTENING``, and a closed pipe would fail that print."""
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "SidecarProcess":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
