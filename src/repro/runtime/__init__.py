"""Task-parallel futures runtimes (the programming model of Section 2.2).

Two interchangeable runtimes drive the same verification machinery:

* :class:`TaskRuntime` — blocking, thread-per-task (the default for the
  evaluation benchmarks);
* :class:`CooperativeRuntime` — deterministic single-threaded generator
  scheduling (the paper's footnote-4 alternative; also the repository's
  safe sandbox for real deadlock scenarios).
"""

from .context import current_task, require_current_task, task_scope
from .cooperative import CooperativeRuntime
from .future import Future
from .retry import RetryPolicy
from .supervisor import BlockedJoin, StallWatchdog
from .task import CancelToken, TaskHandle, TaskState
from .threaded import TaskRuntime, resolve_policy

__all__ = [
    "TaskRuntime",
    "RetryPolicy",
    "CooperativeRuntime",
    "WorkSharingRuntime",
    "AsyncioRuntime",
    "AsyncFuture",
    "Future",
    "TaskHandle",
    "TaskState",
    "CancelToken",
    "BlockedJoin",
    "StallWatchdog",
    "current_task",
    "require_current_task",
    "task_scope",
    "resolve_policy",
]

from .asyncio_adapter import AsyncFuture, AsyncioRuntime  # noqa: E402 (cycle-free tail import)
from .executor import VerifiedExecutor  # noqa: E402
from .phaser import Phaser  # noqa: E402
from .pool import WorkSharingRuntime  # noqa: E402
from .procs import ProcessRuntime  # noqa: E402

__all__ += ["Phaser", "VerifiedExecutor", "ProcessRuntime"]
