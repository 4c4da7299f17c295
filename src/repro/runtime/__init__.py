"""Task-parallel futures runtimes (the programming model of Section 2.2).

Two interchangeable runtimes drive the same verification machinery:

* :class:`TaskRuntime` — blocking, thread-per-task (the default for the
  evaluation benchmarks);
* :class:`CooperativeRuntime` — deterministic single-threaded generator
  scheduling (the paper's footnote-4 alternative; also the repository's
  safe sandbox for real deadlock scenarios).
"""

from .. import _lazy

_EXPORTS = {
    "TaskRuntime": ".threaded",
    "RetryPolicy": ".retry",
    "CooperativeRuntime": ".cooperative",
    "WorkSharingRuntime": ".pool",
    "AsyncioRuntime": ".asyncio_adapter",
    "AsyncFuture": ".asyncio_adapter",
    "Future": ".future",
    "TaskHandle": ".task",
    "TaskState": ".task",
    "CancelToken": ".task",
    "BlockedJoin": ".supervisor",
    "StallWatchdog": ".supervisor",
    "current_task": ".context",
    "require_current_task": ".context",
    "task_scope": ".context",
    "resolve_policy": ".threaded",
    "Phaser": ".phaser",
    "VerifiedExecutor": ".executor",
    "ProcessRuntime": ".procs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.lazy_exports(__name__, globals(), _EXPORTS)
